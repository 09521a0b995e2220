"""Windowed FCFS replay with residual backlog carried across windows.

The offline fast path (:mod:`repro.sim.fastpath`) replays a *complete*
substream at once; the service dispatches in control windows, so each
server's queue state must survive the window boundary.  The only state
FCFS needs is the time the server frees up: with per-window arrival
times t, service demands ``svc = size/speed``, and carried ``free_at``,
the Lindley recursion vectorizes as

    dep_j = cum_j + max( free_at, max_{k≤j}( t_k − cum_{k−1} ) )

where ``cum`` is the running sum of svc — identical to the fast path's
prefix-max kernel with the carried term folded into the max.  Replaying
one stream in windows agrees with replaying it whole to float-rounding
accuracy (the window split re-bases the cumulative sums), which lets
the oracle comparison in the online experiments attribute MRT
differences to the *allocation*, not the replay.

**Failure support.**  A down server must reject dispatches and bounce
its resident jobs, and a degraded server stretches everything still in
flight, so fault mode keeps an in-flight ledger: one column per job in
a ``(6, jobs)`` table (rows :data:`ORIGIN` … :data:`SERVER`), each
server's jobs in FIFO order.  The fault-mode window drives it one
*segment* — the stretch between two fault events — at a time:

* :meth:`dispatch` runs a segment through one compiled call of the
  scalar FCFS recursion, refusing jobs aimed at down servers,
* :meth:`collect_completions` finalizes what departed, once a window,
* :meth:`fail` / :meth:`repair` flip membership, bouncing residents,
* :meth:`set_speed_factor` rescales in-flight work for degradation —
  for FCFS everything after *now* on one server is service work at the
  new speed, so ``dep' = now + (dep − now)·(s_old/s_new)`` is exact.

Checkpoints keep the per-server ``[origin, size, svc, dep, attempts]``
list layout.
"""

from __future__ import annotations

import numpy as np

from ..sim import ckernel

__all__ = [
    "ServerBank", "lindley_window",
    "ORIGIN", "SIZE", "SVC", "DEP", "ATTEMPTS", "SERVER",
]

#: Row indices of the in-flight ledger, a ``(6, jobs)`` float64 table:
#: first arrival, size, service time, projected departure, failed
#: placements and server (the last two small integers, exact as floats).
ORIGIN, SIZE, SVC, DEP, ATTEMPTS, SERVER = range(6)


def lindley_window(
    times: np.ndarray, sizes: np.ndarray, speed: float, free_at: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One server's FCFS Lindley recursion over one window slice.

    Returns ``(departures, service_times, new_free_at)`` for jobs
    arriving at *times* with demands *sizes* on a server of *speed*
    that frees up at *free_at*.  This is the exact float-op sequence of
    the per-server body of :meth:`ServerBank._replay_grouped_python`
    (proven bit-identical to the compiled sweep), factored out so the
    networked server stubs replay windows with the very same bits the
    in-process bank produces.
    """
    svc = sizes / speed
    cum = np.cumsum(svc)
    starts = times - (cum - svc)
    dep = cum + np.maximum(np.maximum.accumulate(starts), free_at)
    return dep, svc, float(dep[-1]) if dep.size else float(free_at)


def _fault_dispatch_python(times, work, origins, attempts, targets, n, eff,
                           up, nservers, free_at, rows, refused) -> int:
    """``fault_segment_dispatch`` of ``_pskernel.c`` in Python, same bits."""
    if np.any(targets < 0) or np.any(targets >= nservers):
        return -1
    up, eff, fa = up.tolist(), eff.tolist(), free_at.tolist()
    k = r = 0
    for j, (s, t, x) in enumerate(
        zip(targets.tolist(), times.tolist(), work.tolist())
    ):
        if not up[s]:
            refused[r] = j
            r += 1
            continue
        svc = x / eff[s]
        fa[s] = max(fa[s], t) + svc
        rows[:, k] = (origins[j], x, svc, fa[s], attempts[j], s)
        k += 1
    free_at[:] = fa
    return k


class ServerBank:
    """Per-server FCFS queues whose backlog persists across windows."""

    def __init__(self, speeds):
        s = np.asarray(speeds, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("speeds must be a non-empty 1-D vector")
        if np.any(s <= 0):
            raise ValueError(f"speeds must be positive, got {s}")
        self.speeds = s.copy()
        self.free_at = np.zeros(s.size)
        self.up = np.ones(s.size, dtype=bool)
        self.speed_factor = np.ones(s.size)
        self._ledger = np.empty((6, 0))

    @property
    def n(self) -> int:
        return int(self.speeds.size)

    def replay_window(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Process one window of dispatched jobs; update server state.

        Returns ``(departures, service_times)`` aligned with the input
        arrival order.  ``times`` must be non-decreasing and must not
        precede any earlier window.

        Validating compatibility wrapper around
        :meth:`replay_window_grouped`; the returned arrays are fresh
        copies the caller may keep across windows.
        """
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        if not (targets.shape == times.shape == sizes.shape):
            raise ValueError("targets, times, and sizes must align")
        departures, service_times, _, _ = self.replay_window_grouped(
            targets, times, sizes
        )
        return departures.copy(), service_times.copy()

    def replay_window_grouped(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The serve hot path: one window in one compiled call.

        Inputs must be contiguous, shape-aligned arrays (int64 targets,
        float64 times/sizes) — the service loop guarantees this, so the
        per-window cost carries no re-validation or conversion.  Returns
        ``(departures, service_times, order, offsets)``: the first two
        in arrival order, ``order`` the stable group-by-server
        permutation and ``offsets`` the per-server group bounds
        (length ``n + 1``), which callers reuse to fold per-server
        speed witnesses without a second argsort.

        All four arrays are views of per-process arena buffers —
        consume them before the next replay call, never store them
        (:meth:`replay_window` copies for callers that accumulate).
        The compiled carry-state sweep (``fcfs_window_sweep``) and the
        numpy fallback compute identical bits; either updates
        ``free_at`` in place.
        """
        n = times.size
        a = ckernel.arena()
        fn = ckernel.window_fn()
        if fn is None:
            return self._replay_grouped_python(targets, times, sizes)
        dep, svc = a.f64("window.dep", n), a.f64("window.svc", n)
        order = a.i64("window.order", n)
        offsets = a.i64("window.offsets", self.n + 1)
        if fn(times, sizes, n, self.speeds, self.n, targets, self.free_at,
              dep, svc, order, offsets, a.i64("window.cursor", self.n),
              a.f64("window.state", 2 * self.n)):
            # The kernel validates every target before touching any
            # state, so free_at is intact here.
            raise ValueError("dispatch target out of range")
        return dep, svc, order, offsets

    def _replay_grouped_python(
        self, targets: np.ndarray, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Numpy fallback of :meth:`replay_window_grouped` (same bits).

        The per-server Lindley recursion in its vectorized form; the
        compiled sweep folds ``free_at`` into the running max instead of
        taking the elementwise maximum afterwards, which is exact
        because max never rounds.  Kept separate so the bit-identity
        property tests can pin the two paths against each other.
        """
        n = times.size
        a = ckernel.arena()
        departures = a.f64("window.dep", n)
        service_times = a.f64("window.svc", n)
        if np.any(targets < 0) or np.any(targets >= self.n):
            raise ValueError("dispatch target out of range")
        # Stable argsort groups jobs by server while preserving arrival
        # order within each group (same trick as the fast path).
        order = np.argsort(targets, kind="stable")
        sorted_targets = targets[order]
        bounds = np.searchsorted(sorted_targets, np.arange(self.n + 1))
        for i in range(self.n):
            idx = order[bounds[i]:bounds[i + 1]]
            if idx.size == 0:
                continue
            dep, svc, self.free_at[i] = lindley_window(
                times[idx], sizes[idx], self.speeds[i], self.free_at[i]
            )
            departures[idx] = dep
            service_times[idx] = svc
        order_out = a.i64("window.order", n)
        np.copyto(order_out, order)
        offsets = a.i64("window.offsets", self.n + 1)
        np.copyto(offsets, bounds)
        return departures, service_times, order_out, offsets

    def backlog_at(self, now: float) -> np.ndarray:
        """Remaining busy time per server as of *now* (≥ 0)."""
        return np.maximum(self.free_at - float(now), 0.0)

    # ------------------------------------------------------------------
    # Fault-mode API: one segment at a time, a columnar in-flight ledger
    # ------------------------------------------------------------------

    def dispatch(self, targets, times, sizes, origins, attempts) -> np.ndarray:
        """Queue one segment of jobs in arrival order; refuse down servers.

        Each job runs the scalar FCFS recursion ``svc = size/eff``,
        ``dep = max(free_at, t) + svc`` — one compiled call, or the same
        loop in Python without the kernel.  ``origins`` are the jobs'
        first arrivals (response times span retries), ``attempts`` their
        failed placements so far.  Contiguous int64 targets/attempts and
        float64 times/sizes/origins, as the service loop passes them.
        Accepted jobs join the ledger; returns the refused jobs' indices.
        """
        n = times.size
        a = ckernel.arena()
        rows = a.f64("fault.rows", 6 * n).reshape(6, n)
        refused = a.i64("fault.refused", n)
        fn = ckernel.fault_dispatch_fn() or _fault_dispatch_python
        k = fn(times, sizes, origins, attempts, targets, n,
               self.speeds * self.speed_factor, self.up, self.n, self.free_at,
               rows, refused)
        if k < 0:
            raise ValueError("dispatch target out of range")
        self._ledger = np.concatenate((self._ledger, rows[:, :k]), axis=1)
        return refused[:n - k].copy()

    def collect_completions(self, ends) -> np.ndarray:
        """Remove and return the ledger columns of jobs departed by the end.

        ``ends`` are non-decreasing collection instants (a scalar is one
        instant): the fault-mode window's event times, then its end.  A
        job counts as collected at the first instant at or after its
        departure.  The columns come in the order collecting at each
        instant in turn gives — instant by instant, server-major, FIFO
        within a server — a fixed, documented order so downstream
        streaming estimators stay deterministic.  Collecting once is
        exact: a passed departure never moves (:meth:`fail` and
        :meth:`set_speed_factor` touch only jobs still in flight), and
        FCFS departures never decrease along one server's queue.
        """
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        led = self._ledger
        done = led[DEP] <= ends[-1]
        cols = np.flatnonzero(done)
        stamp = np.searchsorted(ends, led[DEP, cols])
        cols = cols[np.lexsort((led[SERVER, cols], stamp))]
        self._ledger = led.compress(~done, axis=1)
        return led.take(cols, axis=1)

    def fail(
        self, server: int, now: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Take *server* down at *now*; bounce its unfinished residents.

        Jobs that departed by *now* stay in the ledger as finished;
        everything still in flight is returned as ``(origins, sizes,
        attempts)`` in FIFO order for the retry policy to re-place.  The
        server rejoins empty on :meth:`repair`.
        """
        # The free-up point is the server's last projected departure:
        # once that has passed, none of its jobs is still in flight.
        busy = self.free_at[server] > now
        self.up[server] = False
        self.free_at[server] = float(now)
        if not busy:
            return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
        led = self._ledger
        mine = (led[SERVER] == server) & (led[DEP] > now)
        residents = led.compress(mine, axis=1)
        self._ledger = led.compress(~mine, axis=1)
        attempts = residents[ATTEMPTS].astype(np.int64)
        return residents[ORIGIN], residents[SIZE], attempts

    def repair(self, server: int, now: float) -> None:
        """Bring *server* back at *now*, empty (its backlog was bounced)."""
        self.up[server] = True
        self.free_at[server] = float(now)

    def set_speed_factor(self, server: int, now: float, factor: float) -> None:
        """Change *server*'s speed multiplier; rescale in-flight work.

        All work on one FCFS server after *now* is service time at the
        (old) effective speed, so departures and the free-up point shift
        affinely: ``x' = now + (x − now)·(s_old/s_new)``.  Recorded
        service times rescale by the same factor, so the speed
        estimator's witnesses reflect the degraded speed.
        """
        if factor <= 0.0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        now = float(now)
        old = float(self.speeds[server] * self.speed_factor[server])
        self.speed_factor[server] = float(factor)
        scale = old / float(self.speeds[server] * self.speed_factor[server])
        if scale == 1.0:
            return
        led = self._ledger
        cols = np.flatnonzero((led[SERVER] == server) & (led[DEP] > now))
        led[DEP, cols] = now + (led[DEP, cols] - now) * scale
        led[SVC, cols] *= scale
        if self.free_at[server] > now:
            self.free_at[server] = now + (self.free_at[server] - now) * scale

    def inflight_count(self) -> int:
        return int(self._ledger.shape[1])

    def state_dict(self) -> dict:
        # Per-server FIFO lists of [origin, size, svc, dep, attempts].
        inflight = [[] for _ in range(self.n)]
        for o, x, v, d, k, s in zip(*self._ledger.tolist()):
            inflight[int(s)].append([o, x, v, d, int(k)])
        return {
            "free_at": [float(x) for x in self.free_at],
            "up": [bool(u) for u in self.up],
            "speed_factor": [float(x) for x in self.speed_factor],
            "inflight": inflight,
        }

    def load_state(self, state: dict) -> None:
        free_at = np.asarray(state["free_at"], dtype=float)
        if free_at.shape != self.free_at.shape:
            raise ValueError(
                f"bank state has {free_at.size} servers, expected {self.n}"
            )
        self.free_at = free_at
        self.up = np.asarray(state["up"], dtype=bool)
        self.speed_factor = np.asarray(state["speed_factor"], dtype=float)
        jobs = [job + [s] for s, q in enumerate(state["inflight"]) for job in q]
        self._ledger = np.array(jobs, dtype=float).reshape(-1, 6).T.copy()
