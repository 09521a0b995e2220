"""Property-based tests (hypothesis) on the core algorithms' invariants."""

import heapq

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.allocation import optimized_fractions, unconstrained_fractions
from repro.dispatch import RoundRobinDispatcher
from repro.distributions import BoundedPareto, Hyperexponential
from repro.metrics import RunningStats
from repro.queueing import HeterogeneousNetwork, objective_gradient, objective_value
from repro.sim import ps_replay

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

speeds_strategy = st.lists(
    st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)
rho_strategy = st.floats(min_value=0.01, max_value=0.98)


def network_from(speeds, rho):
    return HeterogeneousNetwork(np.asarray(speeds), mu=1.0, utilization=rho)


# ---------------------------------------------------------------------------
# Algorithm 1 — optimized allocation
# ---------------------------------------------------------------------------


class TestOptimizedAllocationProperties:
    @given(speeds=speeds_strategy, rho=rho_strategy)
    @settings(max_examples=150, deadline=None)
    def test_always_feasible(self, speeds, rho):
        net = network_from(speeds, rho)
        a = optimized_fractions(net)
        assert a.shape == (net.n,)
        assert np.all(a >= 0.0)
        assert a.sum() == pytest.approx(1.0, abs=1e-9)
        # No individual computer saturated.
        assert np.all(a * net.arrival_rate < net.service_rates() + 1e-12)

    @given(speeds=speeds_strategy, rho=rho_strategy)
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_weighted(self, speeds, rho):
        net = network_from(speeds, rho)
        opt = optimized_fractions(net)
        weighted = net.speeds / net.total_speed
        assert objective_value(net, opt) <= objective_value(net, weighted) + 1e-9

    @given(speeds=speeds_strategy, rho=rho_strategy)
    @settings(max_examples=100, deadline=None)
    def test_kkt_stationarity(self, speeds, rho):
        """Active computers share one gradient value; zero-share computers
        have gradient at least that value (KKT complementary slackness)."""
        net = network_from(speeds, rho)
        a = optimized_fractions(net)
        g = objective_gradient(net, a)
        active = a > 1e-12
        if np.any(active):
            g_active = g[active]
            level = g_active.mean()
            np.testing.assert_allclose(g_active, level, rtol=1e-6)
            if np.any(~active):
                assert np.all(g[~active] >= level * (1 - 1e-9))

    @given(speeds=speeds_strategy, rho=rho_strategy)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_speed(self, speeds, rho):
        """Faster computers never receive a smaller fraction."""
        net = network_from(speeds, rho)
        a = optimized_fractions(net)
        order = np.argsort(net.speeds, kind="stable")
        assert np.all(np.diff(a[order]) >= -1e-12)

    @given(speeds=speeds_strategy, rho=rho_strategy, seed=st.integers(0, 2**16))
    @settings(max_examples=75, deadline=None)
    def test_permutation_equivariance(self, speeds, rho, seed):
        net = network_from(speeds, rho)
        perm = np.random.default_rng(seed).permutation(net.n)
        net_p = network_from(np.asarray(speeds)[perm], rho)
        a = optimized_fractions(net)
        a_p = optimized_fractions(net_p)
        np.testing.assert_allclose(a_p, a[perm], atol=1e-9)

    @given(speeds=speeds_strategy, rho=rho_strategy,
           scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=75, deadline=None)
    def test_speed_scale_invariance(self, speeds, rho, scale):
        """Only *relative* speeds matter."""
        a = optimized_fractions(network_from(speeds, rho))
        b = optimized_fractions(network_from(np.asarray(speeds) * scale, rho))
        np.testing.assert_allclose(a, b, atol=1e-9)

    @given(speeds=speeds_strategy, rho=rho_strategy)
    @settings(max_examples=75, deadline=None)
    def test_matches_unconstrained_when_all_positive(self, speeds, rho):
        net = network_from(speeds, rho)
        raw = unconstrained_fractions(net)
        assume(np.all(raw > 1e-9))
        np.testing.assert_allclose(optimized_fractions(net), raw, atol=1e-9)


# ---------------------------------------------------------------------------
# Algorithm 2 — round-robin dispatching
# ---------------------------------------------------------------------------

fractions_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8
).map(lambda xs: np.asarray(xs) / np.sum(xs))


#: Hypothesis-found allocation whose ``max next`` (24.7728) overshoots
#: the guessed bound ``1/α_min + 2`` (24.7518) that the test once used.
_GUARD_OVERSHOOT_ALPHAS = np.array([
    0.25766549, 0.24810369, 0.06441637, 0.09712781,
    0.11725793, 0.07397818, 0.09749787, 0.04395266,
])


class TestRoundRobinProperties:
    @given(alphas=fractions_strategy, count=st.integers(1, 2000))
    @settings(max_examples=75, deadline=None)
    def test_counts_track_targets(self, alphas, count):
        """|assigned/count − α| stays within one inter-selection period:
        the dispatcher never drifts from the target fractions."""
        d = RoundRobinDispatcher()
        d.reset(alphas)
        for _ in range(count):
            d.select(1.0)
        counts = d.assigned_counts
        assert counts.sum() == count
        # Each computer has received within ±2 of its ideal count.
        np.testing.assert_allclose(counts, alphas * count, atol=2.0)

    @given(alphas=fractions_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, alphas):
        a = RoundRobinDispatcher()
        b = RoundRobinDispatcher()
        a.reset(alphas)
        b.reset(alphas)
        for _ in range(100):
            assert a.select(1.0) == b.select(1.0)

    @given(alphas=fractions_strategy)
    @settings(max_examples=50, deadline=None)
    @example(alphas=_GUARD_OVERSHOOT_ALPHAS)
    def test_next_fields_bounded(self, alphas):
        """Two exact invariants of Algorithm 2's ``next`` fields.

        1. Once every computer has started, ``W = Σ αᵢ·nextᵢ`` is
           conserved: the winner adds ``α·(1/α) = 1`` and the step-2.h
           countdown removes ``Σα = 1``.
        2. ``max next ≤ max(1/α_min, W* + 1/α_min − 1)``, where ``W*``
           is ``W`` at the first step at which every computer has
           started.  Only the winner's ``next`` rises, to (its value
           before the step) + 1/α − 1, and the winner holds the
           minimum.  Before that step some computer still sits at the
           guard 1 (computers that have not started are never counted
           down), so the minimum is at most 1, and a first-time winner
           starts from 0: the winner ends at most at 1/α_min.  From
           that step on the minimum is at most the α-weighted mean,
           which is ``W = W*``.  Other fields only fall, so values
           carried over from start-up stay under the first term.
        """
        d = RoundRobinDispatcher()
        d.reset(alphas)
        inv_min = 1.0 / np.min(alphas)
        w_star = None
        for _ in range(500):
            d.select(1.0)
            nxt = d.next_fields
            if w_star is None and np.all(d.assigned_counts > 0):
                w_star = float(alphas @ nxt)
            if w_star is not None:
                w = float(alphas @ nxt)
                assert abs(w - w_star) <= 1e-9 * max(1.0, abs(w_star))
                bound = max(inv_min, w_star + inv_min - 1.0)
            else:
                bound = inv_min
            assert np.max(nxt) <= bound + 1e-9


# ---------------------------------------------------------------------------
# Processor-sharing replay
# ---------------------------------------------------------------------------

workload_strategy = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(0.0, 100.0)),
        hnp.arrays(np.float64, n, elements=st.floats(0.01, 20.0)),
        st.floats(min_value=0.2, max_value=8.0),
    )
)


class TestPsReplayProperties:
    @given(data=workload_strategy)
    @settings(max_examples=150, deadline=None)
    def test_physical_invariants(self, data):
        raw_times, sizes, speed = data
        times = np.sort(raw_times)
        done = ps_replay(times, sizes, speed)
        # 1. A job can never finish faster than running alone.
        assert np.all(done >= times + sizes / speed - 1e-9)
        # 2. A job can never finish later than its arrival plus *all*
        #    work in the trace (the server is work-conserving).
        assert np.all(done <= times + sizes.sum() / speed + 1e-6)
        # 3. No time travel.
        assert np.all(done >= times - 1e-12)

    @given(data=workload_strategy)
    @settings(max_examples=100, deadline=None)
    def test_busy_period_work_conservation(self, data):
        """Within each busy period, the last completion equals the busy
        period's start plus its total work divided by speed."""
        raw_times, sizes, speed = data
        times = np.sort(raw_times)
        done = ps_replay(times, sizes, speed)
        # Sweep arrivals tracking busy periods: PS is work-conserving,
        # so each period ends exactly at start + period_work/speed, and
        # the last completion of the period's jobs equals that end.
        start = times[0]
        work = float(sizes[0])
        members = [0]
        for j in range(1, times.size):
            end = start + work / speed
            if times[j] >= end - 1e-12:  # server idle at this arrival
                assert done[members].max() == pytest.approx(end, rel=1e-9)
                start = float(times[j])
                work = 0.0
                members = []
            work += float(sizes[j])
            members.append(j)
        assert done[members].max() == pytest.approx(start + work / speed, rel=1e-9)

    @given(data=workload_strategy, split=st.integers(1, 59))
    @settings(max_examples=75, deadline=None)
    def test_incremental_equals_batch(self, data, split):
        """Replaying a prefix + drain is consistent with physics even if
        the stream is cut: the first `split` jobs' completions can only
        be earlier or equal when later arrivals are removed."""
        raw_times, sizes, speed = data
        assume(split < raw_times.size)
        times = np.sort(raw_times)
        full = ps_replay(times, sizes, speed)
        partial = ps_replay(times[:split], sizes[:split], speed)
        assert np.all(partial <= full[:split] + 1e-9)


# ---------------------------------------------------------------------------
# Distributions and statistics
# ---------------------------------------------------------------------------


class TestDistributionProperties:
    @given(mean=st.floats(0.01, 1e4), cv=st.floats(1.0, 25.0))
    @settings(max_examples=100, deadline=None)
    def test_h2_fit_roundtrip(self, mean, cv):
        d = Hyperexponential.from_mean_cv(mean, cv)
        assert d.mean == pytest.approx(mean, rel=1e-9)
        assert d.cv == pytest.approx(cv, rel=1e-6)

    @given(
        k=st.floats(0.01, 100.0),
        ratio=st.floats(1.5, 1e4),
        alpha=st.floats(0.1, 3.0),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bounded_pareto_ppf_in_support(self, k, ratio, alpha, q):
        d = BoundedPareto(k, k * ratio, alpha)
        x = d.ppf(q)
        assert d.k - 1e-12 <= x <= d.p + 1e-12
        assert d.cdf(x) == pytest.approx(q, abs=1e-9)

    @given(
        xs=hnp.arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_running_stats_matches_numpy(self, xs):
        s = RunningStats()
        s.add_array(xs)
        assert s.mean == pytest.approx(xs.mean(), rel=1e-9, abs=1e-9)
        assert s.variance == pytest.approx(xs.var(), rel=1e-6, abs=1e-6)

    @given(
        xs=hnp.arrays(np.float64, st.integers(1, 100), elements=st.floats(-100, 100)),
        ys=hnp.arrays(np.float64, st.integers(1, 100), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=100, deadline=None)
    def test_running_stats_merge_associative(self, xs, ys):
        merged = RunningStats()
        merged.add_array(xs)
        other = RunningStats()
        other.add_array(ys)
        merged.merge(other)
        direct = RunningStats()
        direct.add_array(np.concatenate([xs, ys]))
        assert merged.mean == pytest.approx(direct.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(direct.variance, rel=1e-6, abs=1e-6)
