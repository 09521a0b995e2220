"""The per-job fault-mode window, kept as the oracle of the segmented one.

:class:`PerJobFaultService` is :class:`~repro.service.SchedulerService`
with the original fault-mode window: every job dispatches through one
scalar :meth:`DequeServerBank.dispatch` call, in-flight jobs live in one
``deque`` of ``[origin, size, svc, dep, attempts]`` lists per server,
each bounce pushes one retry, and every completion folds through the
scalar estimator updates with a left-to-right response sum.  The
service package replays the same window segment by segment with one
compiled dispatch call per segment, a columnar ledger and batched folds;
``tests/test_fault_window_oracle.py`` pins the two against each other
report for report and checkpoint for checkpoint.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.faults.models import DEGRADE_END, DEGRADE_START, DOWN, UP
from repro.service import SchedulerService, ServerBank

__all__ = ["DequeServerBank", "PerJobFaultService"]

#: In-flight record layout: [origin, size, svc, dep, attempts].
_ORIGIN, _SIZE, _SVC, _DEP, _ATTEMPTS = range(5)


class DequeServerBank(ServerBank):
    """:class:`ServerBank` with the job-at-a-time fault API."""

    def __init__(self, speeds):
        super().__init__(speeds)
        self._inflight: list[deque] = [deque() for _ in range(self.n)]

    def effective_speed(self, server: int) -> float:
        return float(self.speeds[server] * self.speed_factor[server])

    def dispatch(self, server, t, size, origin, attempts):
        """Queue one job on *server* at time *t*; ``None`` if it is down."""
        if not self.up[server]:
            return None
        svc = float(size) / self.effective_speed(server)
        dep = max(float(self.free_at[server]), float(t)) + svc
        self.free_at[server] = dep
        self._inflight[server].append([float(origin), float(size), svc, dep,
                                       int(attempts)])
        return dep

    def collect_completions(self, now):
        """``(server, origin, size, svc, dep)`` tuples, server-major FIFO."""
        now = float(now)
        done: list[tuple] = []
        for i in range(self.n):
            q = self._inflight[i]
            while q and q[0][_DEP] <= now:
                origin, size, svc, dep, _ = q.popleft()
                done.append((i, origin, size, svc, dep))
        return done

    def fail(self, server, now):
        """Take *server* down; ``(origin, size, attempts)`` per resident."""
        self.up[server] = False
        q = self._inflight[server]
        bounced = [(job[_ORIGIN], job[_SIZE], job[_ATTEMPTS]) for job in q]
        q.clear()
        self.free_at[server] = float(now)
        return bounced

    def set_speed_factor(self, server, now, factor):
        if factor <= 0.0:
            raise ValueError(f"speed factor must be positive, got {factor}")
        now = float(now)
        old = self.effective_speed(server)
        self.speed_factor[server] = float(factor)
        scale = old / self.effective_speed(server)
        if scale == 1.0:
            return
        for job in self._inflight[server]:
            if job[_DEP] > now:
                job[_DEP] = now + (job[_DEP] - now) * scale
                job[_SVC] *= scale
        if self.free_at[server] > now:
            self.free_at[server] = now + (self.free_at[server] - now) * scale

    def inflight_count(self) -> int:
        return sum(len(q) for q in self._inflight)

    def state_dict(self) -> dict:
        return {
            "free_at": [float(x) for x in self.free_at],
            "up": [bool(u) for u in self.up],
            "speed_factor": [float(x) for x in self.speed_factor],
            "inflight": [[list(job) for job in q] for q in self._inflight],
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
        self._inflight = [
            deque(
                [float(j[0]), float(j[1]), float(j[2]), float(j[3]), int(j[4])]
                for j in q
            )
            for q in state["inflight"]
        ]


class PerJobFaultService(SchedulerService):
    """:class:`SchedulerService` running the per-job fault-mode window."""

    def __init__(self, config, source, *args, **kwargs):
        super().__init__(config, source, *args, **kwargs)
        self.bank = DequeServerBank(config.speeds)

    def _apply_degrade(self, server, now) -> None:
        level = self._degrade_level[server]
        self.bank.set_speed_factor(server, now, self._degrade_factor**level)

    def _bounce_one(self, now, origin, size, attempts) -> str:
        failed = attempts + 1
        if self._on_failure == "lose" or failed >= self._retry.max_attempts:
            return "lost"
        due = now + self._retry.delay(attempts)
        heapq.heappush(
            self._pending,
            (float(due), self._pending_seq, float(origin), float(size), int(failed)),
        )
        self._pending_seq += 1
        return "retried"

    def _run_window_faulted(self, start, end, report) -> None:
        controller = self.controller
        times, sizes = self.source.jobs_until(end)
        adm_times, adm_sizes = self.step.admit(times, sizes)

        due: list[tuple] = []
        while self._pending and self._pending[0][0] <= end:
            due.append(heapq.heappop(self._pending))
        if due:
            job_times = np.concatenate(
                [adm_times, [max(r[0], start) for r in due]]
            )
            job_sizes = np.concatenate([adm_sizes, [r[3] for r in due]])
            job_origins = np.concatenate([adm_times, [r[2] for r in due]])
            job_attempts = np.concatenate(
                [np.zeros(adm_times.size, dtype=np.int64),
                 np.asarray([r[4] for r in due], dtype=np.int64)]
            )
            order = np.argsort(job_times, kind="stable")
            job_times = job_times[order]
            job_sizes = job_sizes[order]
            job_origins = job_origins[order]
            job_attempts = job_attempts[order]
        else:
            job_times = adm_times
            job_sizes = adm_sizes
            job_origins = adm_times
            job_attempts = np.zeros(adm_times.size, dtype=np.int64)

        targets = self.dispatcher.select_batch(job_sizes)

        events = []
        while (
            self._event_pos < len(self.fault_events)
            and self.fault_events[self._event_pos].time <= end
        ):
            events.append(self.fault_events[self._event_pos])
            self._event_pos += 1

        completed: list[tuple] = []
        lost = retried = bounced = 0
        pos = 0
        n_jobs = int(job_times.size)
        for ev in [*events, None]:
            seg_end = end if ev is None else ev.time
            while pos < n_jobs and job_times[pos] <= seg_end:
                srv = int(targets[pos])
                dep = self.bank.dispatch(
                    srv,
                    float(job_times[pos]),
                    float(job_sizes[pos]),
                    float(job_origins[pos]),
                    int(job_attempts[pos]),
                )
                if dep is None:
                    bounced += 1
                    outcome = self._bounce_one(
                        float(job_times[pos]),
                        float(job_origins[pos]),
                        float(job_sizes[pos]),
                        int(job_attempts[pos]),
                    )
                    if outcome == "lost":
                        lost += 1
                    else:
                        retried += 1
                pos += 1
            completed.extend(self.bank.collect_completions(seg_end))
            if ev is None:
                continue
            if ev.kind == DOWN:
                if self.bank.up[ev.server]:
                    residents = self.bank.fail(ev.server, ev.time)
                    controller.mark_server_down(ev.server, ev.time)
                    for origin, size, att in residents:
                        bounced += 1
                        outcome = self._bounce_one(ev.time, origin, size, int(att))
                        if outcome == "lost":
                            lost += 1
                        else:
                            retried += 1
            elif ev.kind == UP:
                if not self.bank.up[ev.server]:
                    self.bank.repair(ev.server, ev.time)
                    controller.mark_server_up(ev.server, ev.time)
            elif ev.kind == DEGRADE_START:
                self._degrade_level[ev.server] += 1
                self._apply_degrade(ev.server, ev.time)
            elif ev.kind == DEGRADE_END:
                self._degrade_level[ev.server] = max(
                    0, self._degrade_level[ev.server] - 1
                )
                self._apply_degrade(ev.server, ev.time)

        resp_sum = 0.0
        ratio_sum = 0.0
        n_completed = len(completed)
        for srv, origin, size, svc, dep in completed:
            controller.observe_service(int(srv), float(size), float(svc))
            r = float(dep) - float(origin)
            controller.observe_response(r)
            resp_sum += r
            ratio_sum += r / float(size)
        mrt = resp_sum / n_completed if n_completed else float("nan")
        ratio = ratio_sum / n_completed if n_completed else float("nan")

        report.jobs_pending_retry = len(self._pending)
        report.jobs_in_flight = self.bank.inflight_count()
        self.step.close(
            report, start, end, int(times.size), int(adm_times.size), mrt, ratio,
            completed=n_completed, lost=lost, retried=retried, bounced=bounced,
            servers_up=int(np.count_nonzero(self.bank.up)),
        )
