"""Round-robin based job dispatching — the paper's Algorithm 2 (Section 3.2).

The strategy equalizes the number of *overall* arrivals falling between
successive jobs sent to the same computer, which smooths each computer's
substream without measuring inter-arrival times.  Each computer carries
two attributes:

* ``assign`` — jobs sent to it so far;
* ``next``   — expected number of further arrivals before its next job.

On each arrival the computer with the smallest ``next`` wins; ties go to
the smallest ``(assign + 1)/α`` (step 2.c.3 — the algorithm listing
normalizes by the workload fraction, which is the speed-proportional
quantity under weighted allocation).  The winner's ``next`` is advanced
by 1/α — it expects one job out of every 1/α arrivals — and every
computer that has started receiving jobs counts the dispatched arrival
down (step 2.h).

The guard initialization ``next = 1`` (step 1) staggers *first*
assignments: big-fraction computers start immediately (smallest
normalized assign), while small-fraction computers are held off until a
started computer's ``next`` drops below the guard, spreading their first
jobs evenly through a cycle.  When all fractions are equal the whole
scheme degenerates to the classic round robin.

Implementation notes: this is a *bit-exact* transcription of the paper's
listing (the test suite checks it against an independent oracle), with
state in plain Python lists — ``select`` runs once per arriving job and
small-list access is several times faster than numpy scalar indexing.
Only computers with α > 0 are scanned (step 2.c.1's ``continue``), and
the step 2.h decrement touches only started computers, exactly as the
guard semantics require.  ``next`` values stay bounded (they decrease by
1 per arrival and rise by 1/α on selection), so no drift accumulates
over multi-million-job runs beyond the ±ulp rounding the paper's own
float implementation had.
"""

from __future__ import annotations

import numpy as np

from .base import StaticDispatcher

__all__ = [
    "RoundRobinDispatcher",
    "SequenceRoundRobin",
    "build_dispatch_sequence",
    "dispatch_sequence_slice",
    "sequence_memo_key",
]


class RoundRobinDispatcher(StaticDispatcher):
    """Deterministic weighted round robin per Algorithm 2.

    Parameters
    ----------
    guard_init:
        Initial value of every ``next`` field.  The paper uses 1 (the
        guard that staggers first assignments); the ablation benchmark
        sets 0 to show the resulting early-cycle clumping.
    """

    name = "round_robin"
    # Algorithm 2 never looks at job sizes or random numbers: the target
    # sequence is a pure function of (alphas, arrival count), so the
    # fast path may memoize it across replications.
    sequence_deterministic = True

    def __init__(self, guard_init: float = 1.0):
        super().__init__()
        if guard_init < 0:
            raise ValueError(f"guard_init must be non-negative, got {guard_init}")
        self.guard_init = float(guard_init)
        self._assign: list[int] = []
        self._next: list[float] = []
        self._started: list[int] = []  # indices with assign > 0, scan order
        self._active: list[int] = []   # indices with alpha > 0
        self._inv_alpha: list[float] = []

    def _setup(self) -> None:
        alphas = self.alphas
        n = alphas.size
        active = np.nonzero(alphas > 0)[0]
        if active.size == 0:
            raise ValueError("round robin needs at least one positive fraction")
        self._assign = [0] * n
        self._next = [self.guard_init] * n
        self._started = []
        self._active = [int(i) for i in active]
        self._inv_alpha = [
            (1.0 / float(alphas[i]) if alphas[i] > 0 else float("inf"))
            for i in range(n)
        ]

    def select(self, size: float) -> int:
        """One iteration of Algorithm 2's dispatch loop (steps 2.b–2.h)."""
        self._require_reset()
        assign = self._assign
        nxt = self._next
        inv = self._inv_alpha

        # Steps 2.b/2.c: smallest `next` wins; ties by smallest
        # (assign + 1)/alpha.  Only alpha > 0 computers participate
        # (the `continue` of step 2.c.1).
        select = -1
        minnext = 0.0
        norassign = 0.0
        for i in self._active:
            ni = nxt[i]
            if select == -1 or ni < minnext:
                minnext = ni
                norassign = (assign[i] + 1) * inv[i]
                select = i
            elif ni == minnext:
                cand = (assign[i] + 1) * inv[i]
                if cand < norassign:
                    norassign = cand
                    select = i

        # Step 2.d: a first-time winner resets its `next` to 0 ("now").
        if assign[select] == 0:
            nxt[select] = 0.0
            self._started.append(select)
        # Steps 2.e/2.f: it expects its next job 1/alpha arrivals out.
        nxt[select] += inv[select]
        assign[select] += 1
        # Step 2.h: the dispatched arrival counts down every computer
        # that has started receiving jobs (assign != 0).
        for i in self._started:
            nxt[i] -= 1.0
        return select

    # ------------------------------------------------------------------
    # Introspection helpers used by tests
    # ------------------------------------------------------------------

    @property
    def assigned_counts(self) -> np.ndarray:
        """Jobs dispatched per computer so far (copy)."""
        self._require_reset()
        return np.asarray(self._assign, dtype=np.int64)

    @property
    def next_fields(self) -> np.ndarray:
        """Current ``next`` values (copy)."""
        self._require_reset()
        return np.asarray(self._next, dtype=float)

    # ------------------------------------------------------------------
    # Crash-safe service checkpoints
    # ------------------------------------------------------------------
    #
    # The service swaps sequences only at some window boundaries, so a
    # checkpoint usually lands mid-sequence; `assign`/`next` must be
    # restored exactly or the resumed run walks a different sequence.

    def state_dict(self) -> dict:
        return {
            "guard_init": self.guard_init,
            "alphas": None if self.alphas is None else [float(a) for a in self.alphas],
            "assign": [int(a) for a in self._assign],
            "next": [float(x) for x in self._next],
            "started": [int(i) for i in self._started],
        }

    def load_state(self, state: dict) -> None:
        self.guard_init = float(state["guard_init"])
        if state["alphas"] is None:
            self.alphas = None
            return
        self.reset(np.asarray(state["alphas"], dtype=float))
        if "assign" in state:
            self._assign = [int(a) for a in state["assign"]]
            self._next = [float(x) for x in state["next"]]
            self._started = [int(i) for i in state["started"]]
        else:
            # A SequenceRoundRobin checkpoint stores only the sequence
            # position; Algorithm 2 is a pure function of the arrival
            # count, so replaying `pos` selections reconstructs the
            # exact (assign, next, started) state.
            self.select_batch(np.zeros(int(state["pos"])))


# ----------------------------------------------------------------------
# Memoized sequence builder
# ----------------------------------------------------------------------
#
# Algorithm 2 never looks at job sizes or random numbers, so the target
# sequence is a pure function of (alphas, guard_init, arrival count) and
# the sequence for N jobs is a prefix of the sequence for M > N jobs.
# The memo computes each sequence once per process and extends it
# statefully: every entry owns a *private* dispatcher that nothing else
# can reset, so a caller reusing one dispatcher object across different
# allocations cannot corrupt a cached prefix (extending a corrupted
# entry used to leak zero-share servers into the sequence).  The key
# carries the full byte pattern of the allocation vector, so allocations
# that differ only in *which* server holds the zero share occupy
# distinct entries.  Targets are stored as int16 (a network never has
# 32k computers) and entries are LRU-bounded.

_SEQUENCE_MEMO_ENTRIES = 4
_sequence_memo: dict[tuple, tuple[np.ndarray, "RoundRobinDispatcher"]] = {}


def _extend_targets(private: "RoundRobinDispatcher", count: int) -> np.ndarray:
    """The next ``count`` Algorithm 2 targets from a live dispatcher.

    Advances ``private``'s state exactly as ``count`` ``select`` calls
    would, through the compiled ``rr_sequence_extend`` loop when the
    kernel is available (the tie-break products use the identical
    ``_inv_alpha`` doubles, so the sequence and the post-call state are
    bit-identical to the Python loop).  Falls back to ``select_batch``
    otherwise.  Returns int16 (the memo's storage dtype).
    """
    if count <= 0:
        return np.empty(0, dtype=np.int16)
    from ..sim import ckernel  # local: repro.sim.fastpath imports us

    fn = ckernel.rr_fn()
    if fn is None:
        return private.select_batch(np.zeros(count)).astype(np.int16)
    inv = np.asarray(private._inv_alpha, dtype=float)
    active = np.asarray(private._active, dtype=np.int64)
    assign = np.asarray(private._assign, dtype=np.int64)
    nxt = np.asarray(private._next, dtype=float)
    out = np.empty(count, dtype=np.int64)
    was_started = [a > 0 for a in private._assign]
    fn(inv, active, active.size, assign, nxt, count, out)
    private._assign = [int(a) for a in assign]
    private._next = [float(x) for x in nxt]
    # `_started` keeps first-win append order (it only drives the
    # order-insensitive step 2.h decrement, but checkpoints serialize
    # it, so the Python loop's ordering is reproduced exactly).
    newly = [int(i) for i in active if not was_started[i] and assign[i] > 0]
    if newly:
        first_pos = {s: int(np.argmax(out == s)) for s in newly}
        newly.sort(key=first_pos.__getitem__)
        private._started.extend(newly)
    return out.astype(np.int16)


def sequence_memo_key(alphas: np.ndarray, guard_init: float = 1.0) -> tuple:
    """Memo key for Algorithm 2's target sequence.

    Includes the vector length and every byte of every entry: two
    allocations whose nonzero values match but whose zero share sits on
    a different server produce different sequences and must not share a
    cache line.
    """
    a = np.ascontiguousarray(np.asarray(alphas, dtype=float))
    return ("round_robin", float(guard_init), a.size, a.tobytes())


def _memo_sequence(
    alphas: np.ndarray, guard_init: float, length: int, *, geometric: bool
) -> tuple[np.ndarray, str]:
    """The memo entry's int16 sequence, extended to at least ``length``.

    Extension is exact (to ``length``) or, with ``geometric``, to
    ``max(length, 2 × cached)``.  Returns ``(sequence, status)`` with
    ``status`` one of ``"miss"``, ``"extend"``, ``"hit"``; the entry is
    re-inserted as most recently used and the memo trimmed to its bound.
    """
    key = sequence_memo_key(alphas, guard_init)
    entry = _sequence_memo.pop(key, None)
    if entry is None:
        status = "miss"
        private = RoundRobinDispatcher(guard_init=guard_init)
        private.reset(np.array(alphas, dtype=float, copy=True))
        entry = (_extend_targets(private, length), private)
    else:
        targets, private = entry
        status = "hit"
        if length > targets.size:
            status = "extend"
            grow_to = max(length, 2 * targets.size) if geometric else length
            extra = _extend_targets(private, grow_to - targets.size)
            entry = (np.concatenate([targets, extra]), private)
    _sequence_memo[key] = entry  # re-insert: dict preserves LRU order
    while len(_sequence_memo) > _SEQUENCE_MEMO_ENTRIES:
        _sequence_memo.pop(next(iter(_sequence_memo)))
    return entry[0], status


def build_dispatch_sequence(
    alphas: np.ndarray, count: int, *, guard_init: float = 1.0
) -> tuple[np.ndarray, str]:
    """First ``count`` dispatch targets of Algorithm 2, memoized.

    Bit-identical to resetting a fresh :class:`RoundRobinDispatcher`
    with ``alphas`` and calling ``select_batch`` on ``count`` jobs.
    Returns ``(targets, status)`` where ``targets`` is an int64 array of
    length ``count`` and ``status`` is ``"miss"``, ``"extend"``, or
    ``"hit"`` (exposed for telemetry).  Servers with an exactly zero
    share never appear in the sequence.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    targets, status = _memo_sequence(alphas, guard_init, count, geometric=False)
    return targets[:count].astype(np.int64), status


def dispatch_sequence_slice(
    alphas: np.ndarray, start: int, stop: int, *, guard_init: float = 1.0
) -> np.ndarray:
    """Targets ``[start, stop)`` of Algorithm 2's sequence, memoized.

    The window-serving counterpart of :func:`build_dispatch_sequence`:
    where that returns (and copies) the whole prefix, this copies only
    the requested slice, so a service dispatching window after window
    pays O(window) per call instead of O(total dispatched so far).
    Extension is geometric (to ``max(stop, 2 × cached)``), keeping the
    amortized per-job cost constant across a long run; over-extension
    is harmless because the sequence for N jobs is a prefix of the
    sequence for M > N jobs.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"invalid sequence slice [{start}, {stop})")
    targets, _ = _memo_sequence(alphas, guard_init, stop, geometric=True)
    return targets[start:stop].astype(np.int64)


class SequenceRoundRobin(StaticDispatcher):
    """Algorithm 2 served as slices of the memoized target sequence.

    Dispatch-wise indistinguishable from :class:`RoundRobinDispatcher`
    — the sequence is the same bits — but O(window) per batch with no
    per-job Python scan: the serving loop's fast path.  Carries only a
    position into the sequence; checkpoints interoperate both ways
    (either class restores the other's ``state_dict``, see
    ``load_state``).
    """

    name = "round_robin"
    sequence_deterministic = True

    def __init__(self, guard_init: float = 1.0):
        super().__init__()
        if guard_init < 0:
            raise ValueError(f"guard_init must be non-negative, got {guard_init}")
        self.guard_init = float(guard_init)
        self._pos = 0

    def _setup(self) -> None:
        if not np.any(self.alphas > 0):
            raise ValueError("round robin needs at least one positive fraction")
        self._pos = 0

    def select(self, size: float) -> int:
        self._require_reset()
        target = dispatch_sequence_slice(
            self.alphas, self._pos, self._pos + 1, guard_init=self.guard_init
        )
        self._pos += 1
        return int(target[0])

    def select_batch(self, sizes: np.ndarray) -> np.ndarray:
        self._require_reset()
        count = int(np.asarray(sizes).size)
        targets = dispatch_sequence_slice(
            self.alphas, self._pos, self._pos + count, guard_init=self.guard_init
        )
        self._pos += count
        return targets

    def state_dict(self) -> dict:
        return {
            "guard_init": self.guard_init,
            "alphas": None if self.alphas is None else [float(a) for a in self.alphas],
            "pos": int(self._pos),
        }

    def load_state(self, state: dict) -> None:
        self.guard_init = float(state["guard_init"])
        if state["alphas"] is None:
            self.alphas = None
            return
        self.reset(np.asarray(state["alphas"], dtype=float))
        if "pos" in state:
            self._pos = int(state["pos"])
        else:
            # Legacy RoundRobinDispatcher checkpoint: the sequence
            # position is the total number of jobs dispatched.
            self._pos = int(sum(int(a) for a in state["assign"]))
