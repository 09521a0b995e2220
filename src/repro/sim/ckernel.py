"""On-demand compiled core for the FCFS/PS replay kernels.

The multi-job PS busy-period loop is the one part of the static fast
path that resists numpy vectorization: every departure changes the
service rate of every remaining job, so the recurrence is inherently
sequential (the pure-numpy lockstep formulations explored for kernel v3
topped out at ~2x — see DESIGN.md).  The compiled surface therefore
covers the whole replay pipeline behind one static-replay entry point,
:func:`cell_fn` (``cell_replay_batch`` in :mod:`repro.sim._pskernel.c`):
grouping, the FCFS Lindley recursion or the PS virtual-time heap, and
the scatter back to arrival order, for every unique dispatch plan of a
replication in one call, OpenMP-parallel over disjoint (plan, server)
slices.  A single replication is a one-plan call and
:func:`repro.sim.fastpath.ps_replay` a one-server one.  The library also
carries the searchsorted-style uniform→target mapping used by the
random dispatchers and the serve-path kernels (FCFS window sweep,
fault-mode segment dispatch, Algorithm 2 sequence extension, EWMA and
P² folds) — compiled here with
the system ``gcc`` and loaded through :mod:`ctypes`.  No third-party
build dependency, no wheels.

Bit-identity with the interpreted path is a hard requirement (the
replication cache and the grid executor both assume replay kernels are
deterministic functions of their inputs): the C source copies the float
operation order verbatim and is compiled with ``-ffp-contract=off`` so
the compiler cannot fuse multiply-adds into FMA instructions.  OpenMP
is applied only across slices with disjoint outputs, so the thread
count cannot affect the bits either; the cross-checking tests assert
``np.array_equal`` against the Python formulations at 1 and N threads.

The same library carries the compiled Dynamic Least-Load event loop
(:func:`least_load_fn`, called from :func:`repro.sim.engine.run_simulation`),
which links numpy's static ``libnpyrandom`` to draw its feedback delays
with numpy's own distribution code.

The shared object is cached under ``$XDG_CACHE_HOME/repro-sched`` (or
the system temp directory), keyed by the SHA-256 of the C source, the
numpy version and link inputs, and the OpenMP variant, and published
with an atomic rename so concurrent grid workers never race.
Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_DISABLE_CKERNEL=1`` simply leaves the numpy/Python path in
place; a toolchain without ``-fopenmp`` gets a serial compile and a
``ckernel.openmp_unavailable`` counter, never a failure.

Scratch memory for the compiled entry points comes from a per-process
:class:`Arena` — named buffers grown to the largest replication seen
and reused forever after, so steady-state replay performs no numpy
allocation at all.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..obs import counters

__all__ = [
    "cell_fn",
    "map_fn",
    "window_fn",
    "fault_dispatch_fn",
    "rr_fn",
    "ewma_fn",
    "p2_fn",
    "least_load_fn",
    "kernel_available",
    "compiled_library_path",
    "compile_flags",
    "openmp_enabled",
    "omp_max_threads",
    "set_omp_threads",
    "Arena",
    "arena",
    "replay_cell_c",
    "run_least_load_c",
]

_SOURCE = Path(__file__).with_name("_pskernel.c")

#: Compile flags: -ffp-contract=off is load-bearing — FMA contraction
#: would change rounding and break bit-identity with the Python loop.
#: -fopenmp is appended when the toolchain supports it (probed with a
#: graceful serial fallback, never a hard failure).
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_OMP_FLAG = "-fopenmp"

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_i64_p = ctypes.POINTER(ctypes.c_longlong)


class _Array:
    """ctypes argtype for a contiguous numpy array of one C type.

    The serve-path entry points take numpy arrays directly, checked for
    dtype and contiguity.  Sharing an array's memory through
    ``from_buffer`` + ``byref`` costs about a quarter of
    ``ctypes.data_as``, which dominated those calls; empty and read-only
    arrays, which ``from_buffer`` rejects, take ``data_as``.
    """

    @classmethod
    def from_param(cls, arr):
        if arr.dtype != cls.dtype:
            raise TypeError(f"expected a {cls.dtype} array, got {arr.dtype}")
        if not arr.flags.c_contiguous:
            raise TypeError("expected a C-contiguous array")
        if arr.size and arr.flags.writeable:
            return ctypes.byref(cls.ctype.from_buffer(arr))
        return arr.ctypes.data_as(ctypes.POINTER(cls.ctype))


class _F64(_Array):
    ctype, dtype = ctypes.c_double, np.dtype(np.float64)


class _I64(_Array):
    ctype, dtype = ctypes.c_longlong, np.dtype(np.int64)


class _U8(_Array):
    ctype, dtype = ctypes.c_uint8, np.dtype(np.bool_)


@dataclass(frozen=True)
class _Lib:
    """Resolved entry points of one loaded kernel library."""

    cell: object
    map_uniform: object
    window: object
    fault_dispatch: object
    rr_extend: object
    ewma: object
    p2: object
    least_load: object
    max_threads: object
    set_threads: object
    openmp: bool
    flags: tuple[str, ...]


#: None = not yet attempted; False = attempted and unavailable;
#: otherwise the :class:`_Lib` of resolved entry points.
_fns: object = None


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path(tempfile.gettempdir())
    return base / "repro-sched"


def _npyrandom() -> Path | None:
    """numpy's static C distribution library, when this numpy ships it.

    The Least-Load engine links it to draw feedback delays with the very
    functions ``Generator.uniform``/``exponential`` call.  Without it
    the kernel is built without that engine (``-DPK_NO_NPYRANDOM``).
    """
    lib = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
    return lib if lib.exists() else None


def _link_args() -> tuple[str, ...]:
    """Compile arguments after the flags: defines, source, link inputs."""
    archive = _npyrandom()
    if archive is None:
        return ("-DPK_NO_NPYRANDOM", str(_SOURCE))
    return (str(_SOURCE), str(archive), "-lm")


def _lib_path(openmp: bool) -> Path:
    # The library embeds numpy's RNG code, so a numpy upgrade (or a
    # numpy without the archive) must not reuse a stale build.
    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update(f"numpy-{np.__version__}|{' '.join(_link_args())}".encode())
    suffix = "-omp" if openmp else ""
    return _cache_dir() / f"pskernel-{h.hexdigest()[:16]}{suffix}.so"


def compiled_library_path() -> Path:
    """Where the compiled shared object lives (keyed by source hash).

    Prefers the OpenMP variant; falls back to the serial variant's path
    when only that one has been built on this host.
    """
    omp = _lib_path(openmp=True)
    if omp.exists():
        return omp
    plain = _lib_path(openmp=False)
    if plain.exists():
        return plain
    return omp


def _compile_variant(gcc: str, target: Path, flags: tuple[str, ...]) -> Path | None:
    """Compile one flag variant, publishing atomically; None on failure."""
    target.parent.mkdir(parents=True, exist_ok=True)
    # Stage to a pid-unique name and publish atomically: concurrent
    # workers compiling the same source never see a half-written .so.
    staging = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [gcc, *flags, "-o", str(staging), *_link_args()],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(staging, target)
    except (OSError, subprocess.SubprocessError):
        try:
            staging.unlink()
        except OSError:
            pass
        if target.exists():
            return target
        return None
    return target


def _compile() -> tuple[Path, bool] | None:
    """The usable shared object and whether it carries OpenMP.

    Tries the OpenMP variant first; a toolchain without ``-fopenmp``
    degrades to the serial variant with a ``ckernel.openmp_unavailable``
    counter — the run itself never fails on a stripped-down compiler.
    """
    omp_target = _lib_path(openmp=True)
    if omp_target.exists():
        return omp_target, True
    plain_target = _lib_path(openmp=False)
    gcc = shutil.which("gcc") or shutil.which("cc")
    if gcc is None:
        if plain_target.exists():
            return plain_target, False
        counters.inc("ckernel.unavailable", reason="no-compiler")
        return None
    built = _compile_variant(gcc, omp_target, (*_CFLAGS, _OMP_FLAG))
    if built is not None:
        return built, True
    counters.inc("ckernel.openmp_unavailable")
    if plain_target.exists():
        return plain_target, False
    built = _compile_variant(gcc, plain_target, _CFLAGS)
    if built is not None:
        return built, False
    counters.inc("ckernel.unavailable", reason="compile-failed")
    return None


def _load(path: Path, openmp: bool) -> _Lib:
    lib = ctypes.CDLL(str(path))
    cell = lib.cell_replay_batch
    cell.argtypes = [
        _c_double_p,  # times (shared stream)
        _c_double_p,  # work (shared stream)
        ctypes.c_longlong,  # n
        _c_double_p,  # speeds
        ctypes.c_longlong,  # nservers
        _c_i64_p,  # targets (nplans × n)
        ctypes.c_longlong,  # nplans
        ctypes.c_longlong,  # use_ps
        _c_double_p,  # completions (out, nplans × n, arrival order)
        _c_double_p,  # gt scratch
        _c_double_p,  # gw scratch
        _c_double_p,  # gc scratch
        _c_i64_p,  # order scratch
        _c_i64_p,  # offsets (out, nplans × (nservers+1))
        _c_i64_p,  # pos scratch
        _c_double_p,  # ht scratch (per thread)
        _c_i64_p,  # hi scratch (per thread)
        ctypes.c_longlong,  # nthreads
        ctypes.c_longlong,  # cut (post-warmup start; >= n skips phase D)
        _c_double_p,  # resp (out, nplans × (n-cut))
        _c_double_p,  # ratio (out, nplans × (n-cut))
        _c_i64_p,  # pcounts (out, nplans × nservers)
    ]
    cell.restype = ctypes.c_longlong
    map_uniform = lib.map_uniform_right
    map_uniform.argtypes = [
        _F64,  # cum
        ctypes.c_longlong,  # nbins
        _F64,  # u
        ctypes.c_longlong,  # n
        _I64,  # out
    ]
    map_uniform.restype = None
    window = lib.fcfs_window_sweep
    window.argtypes = [
        _F64,  # times (arrival order)
        _F64,  # work (arrival order)
        ctypes.c_longlong,  # n
        _F64,  # speeds
        ctypes.c_longlong,  # nservers
        _I64,  # targets
        _F64,  # free_at (in/out)
        _F64,  # departures (out)
        _F64,  # service_times (out)
        _I64,  # order (out, stable grouping permutation)
        _I64,  # offsets (out, nservers + 1)
        _I64,  # cursor scratch (nservers)
        _F64,  # state scratch (2 * nservers)
    ]
    window.restype = ctypes.c_longlong
    fault_dispatch = lib.fault_segment_dispatch
    fault_dispatch.argtypes = [
        _F64,  # times (arrival order)
        _F64,  # work
        _F64,  # origins
        _I64,  # attempts
        _I64,  # targets
        ctypes.c_longlong,  # n
        _F64,  # effective speeds
        _U8,  # up (bool per server)
        ctypes.c_longlong,  # nservers
        _F64,  # free_at (in/out)
        _F64,  # ledger rows (out, 6 x n)
        _I64,  # refused job indices (out)
    ]
    fault_dispatch.restype = ctypes.c_longlong
    rr_extend = lib.rr_sequence_extend
    rr_extend.argtypes = [
        _F64,  # inv (1/alpha per server)
        _I64,  # active indices
        ctypes.c_longlong,  # nactive
        _I64,  # assign (in/out)
        _F64,  # next credits (in/out)
        ctypes.c_longlong,  # count
        _I64,  # out targets
    ]
    rr_extend.restype = None
    ewma = lib.ewma_fold_grouped
    ewma.argtypes = [
        _F64,  # state [raw, norm] per estimator (in/out)
        ctypes.c_double,  # weight
        _F64,  # xs (grouped by estimator)
        _I64,  # offsets (estimators + 1)
        ctypes.c_longlong,  # estimators
    ]
    ewma.restype = None
    p2 = lib.p2_fold_many
    p2.argtypes = [
        _F64,  # [q, n, np, dn] markers per estimator (in/out)
        _I64,  # first element each estimator folds
        ctypes.c_longlong,  # estimators
        _F64,  # xs
        ctypes.c_longlong,  # m
    ]
    p2.restype = None
    try:
        least_load = lib.least_load_run
    except AttributeError:  # built without libnpyrandom
        least_load = None
    else:
        least_load.argtypes = [
            _c_double_p,  # times (arrivals <= horizon)
            _c_double_p,  # sizes
            ctypes.c_longlong,  # n
            _c_double_p,  # server speeds
            ctypes.c_longlong,  # nservers
            ctypes.c_longlong,  # use_ps
            _c_double_p,  # dispatcher speeds
            _c_i64_p,  # known queue lengths (in/out)
            ctypes.c_double,  # duration
            ctypes.c_double,  # warmup
            ctypes.c_longlong,  # drain
            ctypes.c_void_p,  # feedback bitgen_t
            ctypes.c_longlong,  # feedback on
            ctypes.c_double,  # detection window
            ctypes.c_double,  # message delay mean
            _c_i64_p,  # targets (out, or NULL)
            _c_double_p,  # busy (out)
            _c_i64_p,  # received (out)
            _c_i64_p,  # completed (out)
            _c_i64_p,  # post-warm-up dispatch counts (out)
            _c_double_p,  # Welford stats (out, 3 x 6)
        ]
        least_load.restype = ctypes.c_longlong
    max_threads = lib.pk_max_threads
    max_threads.argtypes = []
    max_threads.restype = ctypes.c_longlong
    set_threads = lib.pk_set_threads
    set_threads.argtypes = [ctypes.c_longlong]
    set_threads.restype = None
    flags = (*_CFLAGS, _OMP_FLAG) if openmp else _CFLAGS
    return _Lib(
        cell=cell,
        map_uniform=map_uniform,
        window=window,
        fault_dispatch=fault_dispatch,
        rr_extend=rr_extend,
        ewma=ewma,
        p2=p2,
        least_load=least_load,
        max_threads=max_threads,
        set_threads=set_threads,
        openmp=openmp,
        flags=flags,
    )


def _ensure_fns():
    """Resolve the compiled entry points once per process.

    Never raises: every failure mode — explicit disable, no compiler on
    PATH, a failed compile, a bad .so — degrades to the bit-identical
    numpy/Python path with a telemetry counter recording why
    (``ckernel.disabled`` / ``ckernel.unavailable{reason=...}``), so a
    stripped-down host runs correctly and the trace still shows the
    kernel never engaged.
    """
    global _fns
    if _fns is False:
        return None
    if _fns is not None:
        return _fns
    if os.environ.get("REPRO_DISABLE_CKERNEL"):
        _fns = False
        counters.inc("ckernel.disabled")
        return None
    try:
        compiled = _compile()
        if compiled is None:
            _fns = False
            return None
        path, openmp = compiled
        _fns = _load(path, openmp)
    except Exception:  # noqa: BLE001 — degrade, never break the run
        _fns = False
        counters.inc("ckernel.unavailable", reason="load-failed")
        return None
    return _fns


def cell_fn():
    """The whole-cell fused replay entry point, or None.

    One call replays every unique dispatch plan of a replication:
    counting-sort grouping, per-(plan, server) FCFS/PS replay, and the
    scatter back to arrival order all happen in C (OpenMP-parallel over
    disjoint slices).  Compiled and loaded on first call and cached for
    the process; None when the kernel is disabled
    (``REPRO_DISABLE_CKERNEL``), no compiler exists, or
    compilation/loading failed — callers then run the numpy/Python
    path, which computes the exact same bits.  The other ``*_fn``
    accessors follow the same contract.
    """
    lib = _ensure_fns()
    return lib.cell if lib else None


def map_fn():
    """The compiled searchsorted-right uniform→bucket mapper, or None.

    ``fn(cum, cum.size, u, u.size, out)``: ``cum``/``u`` contiguous
    float64, ``out`` int64 of ``u``'s length.  The other serve-path
    entry points below take numpy arrays the same way (argument order
    as in ``_pskernel.c``).
    """
    lib = _ensure_fns()
    return lib.map_uniform if lib else None


def window_fn():
    """The carry-state FCFS window sweep entry point, or None.

    One call replays a control window of dispatched jobs through the
    per-server Lindley recursion with the servers' ``free_at`` instants
    carried across windows (in place) — the serve-path counterpart of
    :func:`cell_fn`: ``fn(times, work, n, speeds, nservers, targets,
    free_at, departures, service_times, order, offsets, cursor,
    state)``, 0 on success, 1 (nothing touched) on a target out of
    range.  Same availability/fallback contract.
    """
    lib = _ensure_fns()
    return lib.window if lib else None


def fault_dispatch_fn():
    """The fault-mode segment dispatch entry point, or None.

    ``fn(times, work, origins, attempts, targets, n, eff, up, nservers,
    free_at, rows, refused)`` runs one segment of a fault-mode window
    through the scalar per-job FCFS recursion and returns the accepted
    count (-1: a target out of range, nothing touched).  Same
    availability/fallback contract as :func:`cell_fn`.
    """
    lib = _ensure_fns()
    return lib.fault_dispatch if lib else None


def rr_fn():
    """The Algorithm 2 sequence-extension entry point, or None.

    ``fn(inv, active, active.size, assign, nxt, count, out)`` advances
    live dispatcher state (``assign``/``nxt``, in place) by ``count``
    targets written to ``out``.
    """
    lib = _ensure_fns()
    return lib.rr_extend if lib else None


def ewma_fn():
    """The bias-corrected EWMA batch-fold entry point, or None.

    ``fn(state, weight, xs, offsets, k)`` folds ``xs[offsets[e]:
    offsets[e+1]]`` into ``state[2e:2e+2] = [raw, norm]`` for each of
    ``k`` estimators sharing one weight.
    """
    lib = _ensure_fns()
    return lib.ewma if lib else None


def p2_fn():
    """The P² streaming-quantile batch-fold entry point, or None.

    ``fn(state, start, k, xs, xs.size)`` folds ``xs[start[e]:]`` into
    the markers ``state[20e:20e+20] = [q, n, np, dn]`` of each of ``k``
    estimators.
    """
    lib = _ensure_fns()
    return lib.p2 if lib else None


def least_load_fn():
    """The compiled Dynamic Least-Load event loop, or None.

    None also when the library was built without numpy's
    ``libnpyrandom``; callers then stay on the Python engine.
    """
    lib = _ensure_fns()
    return lib.least_load if lib else None


def kernel_available() -> bool:
    """True when the compiled core is (or can be made) usable."""
    return _ensure_fns() is not None


def compile_flags() -> tuple[str, ...]:
    """The gcc flags the loaded kernel was built with (() if none)."""
    lib = _ensure_fns()
    return lib.flags if lib else ()


def openmp_enabled() -> bool:
    """True when the loaded kernel was compiled with OpenMP support."""
    lib = _ensure_fns()
    return bool(lib and lib.openmp)


# GNU OpenMP thread teams do not survive fork(): a worker forked after
# the parent ran a parallel region deadlocks on its first own region.
# Replay is bit-identical at any thread count, so forked children are
# simply clamped to serial.  Spawned workers re-import this module and
# get their own pid recorded, keeping threads available there.
_IMPORT_PID = os.getpid()


def omp_max_threads() -> int:
    """Threads the kernel's parallel regions may use (1 when serial)."""
    lib = _ensure_fns()
    if not lib or not lib.openmp:
        return 1
    if os.getpid() != _IMPORT_PID:
        return 1
    return int(lib.max_threads())


def set_omp_threads(n: int) -> None:
    """Cap the kernel's OpenMP thread count (no-op on serial builds).

    Exists for the threads=1 vs threads=N bit-identity tests; normal
    runs control threading with ``OMP_NUM_THREADS``.
    """
    lib = _ensure_fns()
    if lib and lib.openmp:
        lib.set_threads(int(n))


# ----------------------------------------------------------------------
# Scratch arena
# ----------------------------------------------------------------------


class Arena:
    """Named, monotonically grown scratch buffers for the compiled core.

    Each buffer is keyed by (name, dtype) and only ever grows — sized to
    the largest replication a worker has seen — so steady-state replay
    reuses the same memory instead of allocating fresh numpy arrays per
    plan.  Requests return a length-``size`` view of the underlying
    buffer (contiguous from the start, as the C entry points require).
    Not thread-safe by design: parallelism in this codebase is
    process-based, and each process owns one arena.
    """

    def __init__(self):
        self._bufs: dict[tuple[str, str], np.ndarray] = {}
        self.requests = 0
        self.grows = 0

    def _get(self, name: str, size: int, dtype) -> np.ndarray:
        self.requests += 1
        key = (name, np.dtype(dtype).char)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            # Grow geometrically so a sequence of slightly-larger
            # replications does not reallocate every time.
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
            self.grows += 1
            counters.inc("arena.grow", buffer=name)
        return buf[:size]

    def f64(self, name: str, size: int) -> np.ndarray:
        """A float64 scratch view of ``size`` elements."""
        return self._get(name, int(size), np.float64)

    def i64(self, name: str, size: int) -> np.ndarray:
        """An int64 scratch view of ``size`` elements."""
        return self._get(name, int(size), np.int64)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._bufs.values())

    def reset(self) -> None:
        """Drop every buffer (tests and memory-pressure escapes)."""
        self._bufs.clear()


_arena: Arena | None = None


def arena() -> Arena:
    """The per-process scratch arena (created on first use)."""
    global _arena
    if _arena is None:
        _arena = Arena()
    return _arena


# ----------------------------------------------------------------------
# ctypes call wrappers
# ----------------------------------------------------------------------


def replay_cell_c(
    fn,
    times: np.ndarray,
    work: np.ndarray,
    speeds: np.ndarray,
    plans,
    use_ps: bool,
    warmup_cut: int | None = None,
):
    """Replay every unique dispatch plan of one replication in one call.

    ``plans`` is a sequence of int64 target arrays (one per unique
    plan), each aligned with the shared ``times``/``work`` streams.
    Returns ``(completions, grouped_work, offsets, tail, ok)`` where
    ``completions`` is (nplans, n) in arrival order, ``grouped_work``
    is the server-grouped job sizes (for per-server busy-time sums),
    ``offsets`` is (nplans, nservers+1), and ``ok`` is False when a
    target was out of range (the caller's numpy path then raises the
    descriptive error).

    When ``warmup_cut`` is given (the index of the first post-warmup
    arrival), the kernel also emits the per-plan summarize precursors
    and ``tail`` is ``(resp, ratio, pcounts)``: response times and
    response ratios of the post-warmup jobs, (nplans, n-warmup_cut)
    each, plus per-server post-warmup dispatch counts,
    (nplans, nservers).  All elementwise or integer work, so the
    arrays are bit-identical to the numpy expressions they replace.
    ``tail`` is None when ``warmup_cut`` is omitted or >= n.

    All returned arrays are arena-backed views: consume them before the
    next replay call, never store them.
    """
    n = int(times.size)
    nplans = len(plans)
    nservers = int(speeds.size)
    # No parallel region has more than nplans × nservers iterations, so
    # capping the team there loses no parallelism and spares per-thread
    # heap scratch on one-server calls (ps_replay).
    nthreads = max(1, min(omp_max_threads(), nplans * nservers))
    a = arena()
    if (
        nplans == 1
        and plans[0].dtype == np.int64
        and plans[0].flags.c_contiguous
    ):
        targets = plans[0]
    else:
        targets = a.i64("cell.targets", nplans * n).reshape(nplans, n)
        for k, plan in enumerate(plans):
            np.copyto(targets[k], plan)
    completions = a.f64("cell.comp", nplans * n)
    gt = a.f64("cell.gt", nplans * n)
    gw = a.f64("cell.gw", nplans * n)
    gc = a.f64("cell.gc", nplans * n)
    order = a.i64("cell.order", nplans * n)
    offsets = a.i64("cell.offsets", nplans * (nservers + 1))
    pos = a.i64("cell.pos", nplans * (nservers + 1))
    # Matches the kernel's per-thread scratch stride: the PS heap needs
    # n entries, the fused FCFS pass 2*nservers of per-server state.
    stride = max(n, 2 * nservers)
    ht = a.f64("cell.ht", nthreads * stride)
    hi = a.i64("cell.hi", nthreads * stride)
    cut = n if warmup_cut is None else min(max(int(warmup_cut), 0), n)
    tail_len = n - cut
    resp = a.f64("cell.resp", nplans * tail_len)
    ratio = a.f64("cell.ratio", nplans * tail_len)
    pcounts = a.i64("cell.pcounts", nplans * nservers)
    status = fn(
        times.ctypes.data_as(_c_double_p),
        work.ctypes.data_as(_c_double_p),
        ctypes.c_longlong(n),
        speeds.ctypes.data_as(_c_double_p),
        ctypes.c_longlong(nservers),
        targets.ctypes.data_as(_c_i64_p),
        ctypes.c_longlong(nplans),
        ctypes.c_longlong(1 if use_ps else 0),
        completions.ctypes.data_as(_c_double_p),
        gt.ctypes.data_as(_c_double_p),
        gw.ctypes.data_as(_c_double_p),
        gc.ctypes.data_as(_c_double_p),
        order.ctypes.data_as(_c_i64_p),
        offsets.ctypes.data_as(_c_i64_p),
        pos.ctypes.data_as(_c_i64_p),
        ht.ctypes.data_as(_c_double_p),
        hi.ctypes.data_as(_c_i64_p),
        ctypes.c_longlong(nthreads),
        ctypes.c_longlong(cut),
        resp.ctypes.data_as(_c_double_p),
        ratio.ctypes.data_as(_c_double_p),
        pcounts.ctypes.data_as(_c_i64_p),
    )
    tail = None
    if tail_len > 0:
        tail = (
            resp.reshape(nplans, tail_len),
            ratio.reshape(nplans, tail_len),
            pcounts.reshape(nplans, nservers),
        )
    return (
        completions.reshape(nplans, n),
        gw.reshape(nplans, n),
        offsets.reshape(nplans, nservers + 1),
        tail,
        status == 0,
    )


def run_least_load_c(
    fn,
    times: np.ndarray,
    sizes: np.ndarray,
    speeds: np.ndarray,
    use_ps: bool,
    ll_speeds: np.ndarray,
    known: np.ndarray,
    duration: float,
    warmup: float,
    drain: bool,
    feedback_rng: np.random.Generator | None,
    detection: float,
    delay_mean: float,
    targets: np.ndarray | None = None,
):
    """Run one Least-Load replication through the compiled event loop.

    ``times``/``sizes`` are the arrivals at or before the horizon
    (contiguous float64), ``known`` the dispatcher's int64 known-queue
    array, updated in place.  ``feedback_rng`` (None: no feedback) is
    advanced by exactly the draws the Python engine makes.  ``targets``
    (int64, one per arrival) receives the dispatch decisions.

    Returns ``(busy, received, completed, dispatch_counts, stats,
    status)``: per-server arrays, the (3, 6) Welford state ``[count,
    mean, m2, total, min, max]`` of response time, response ratio and
    job size, and the kernel status (0 ok, -1 out of memory, ``s + 1``
    when a load update found server ``s``'s known queue at 0).
    """
    times = np.ascontiguousarray(times, dtype=np.float64)
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    speeds = np.ascontiguousarray(speeds, dtype=np.float64)
    ll_speeds = np.ascontiguousarray(ll_speeds, dtype=np.float64)
    nservers = int(speeds.size)
    outputs = [("known queues", known, nservers)]
    if targets is not None:
        outputs.append(("targets", targets, times.size))
    for name, arr, size in [
        ("sizes", sizes, times.size),
        ("dispatcher speeds", ll_speeds, nservers),
        *outputs,
    ]:
        if arr.size != size:
            raise ValueError(f"{name}: {arr.size} entries, expected {size}")
    for name, arr, _ in outputs:
        if not (arr.dtype == np.int64 and arr.flags.c_contiguous
                and arr.flags.writeable):
            raise ValueError(f"{name} must be a writable contiguous int64 array")
    busy = np.empty(nservers)
    received = np.empty(nservers, dtype=np.int64)
    completed = np.empty(nservers, dtype=np.int64)
    dispatch_counts = np.empty(nservers, dtype=np.int64)
    stats = np.empty((3, 6))
    bitgen = (
        feedback_rng.bit_generator.ctypes.bit_generator
        if feedback_rng is not None
        else None
    )
    status = fn(
        times.ctypes.data_as(_c_double_p),
        sizes.ctypes.data_as(_c_double_p),
        ctypes.c_longlong(times.size),
        speeds.ctypes.data_as(_c_double_p),
        ctypes.c_longlong(nservers),
        ctypes.c_longlong(1 if use_ps else 0),
        ll_speeds.ctypes.data_as(_c_double_p),
        known.ctypes.data_as(_c_i64_p),
        ctypes.c_double(duration),
        ctypes.c_double(warmup),
        ctypes.c_longlong(1 if drain else 0),
        bitgen,
        ctypes.c_longlong(0 if feedback_rng is None else 1),
        ctypes.c_double(detection),
        ctypes.c_double(delay_mean),
        None if targets is None else targets.ctypes.data_as(_c_i64_p),
        busy.ctypes.data_as(_c_double_p),
        received.ctypes.data_as(_c_i64_p),
        completed.ctypes.data_as(_c_i64_p),
        dispatch_counts.ctypes.data_as(_c_i64_p),
        stats.ctypes.data_as(_c_double_p),
    )
    return busy, received, completed, dispatch_counts, stats, int(status)
