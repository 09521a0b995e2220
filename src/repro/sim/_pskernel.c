/* Exact FCFS/PS replay kernels for the static fast path.
 *
 * Compiled on demand by repro.sim.ckernel (gcc -O3 -fPIC -shared
 * -ffp-contract=off, plus -fopenmp when the toolchain supports it) and
 * called through ctypes from repro.sim.fastpath.  The float arithmetic
 * mirrors the numpy/Python reference formulations operation for
 * operation, and -ffp-contract=off forbids fused multiply-adds, so on
 * the standard SSE2 double pipeline the completions are bit-identical
 * to the interpreted path.
 *
 * The heap is a binary min-heap over (tag, index) pairs ordered
 * lexicographically — exactly the tuple ordering heapq applies to
 * (tag, j) in the Python loop, so ties retire in the same order.
 *
 * OpenMP is used only across (plan, server) slices whose outputs are
 * disjoint: no reduction crosses a slice boundary, so the schedule and
 * thread count cannot affect the bits.
 */
#include <math.h>
#include <stddef.h>

#ifdef _OPENMP
#include <omp.h>
#endif

typedef long long i64;

static inline int heap_lt(const double *ht, const i64 *hi, i64 a, i64 b) {
    if (ht[a] < ht[b]) return 1;
    if (ht[a] > ht[b]) return 0;
    return hi[a] < hi[b];
}

static void sift_down(double *ht, i64 *hi, i64 n, i64 pos) {
    double t = ht[pos]; i64 ix = hi[pos];
    for (;;) {
        i64 c = 2 * pos + 1;
        if (c >= n) break;
        if (c + 1 < n && heap_lt(ht, hi, c + 1, c)) c++;
        if (ht[c] < t || (ht[c] == t && hi[c] < ix)) {
            ht[pos] = ht[c]; hi[pos] = hi[c]; pos = c;
        } else break;
    }
    ht[pos] = t; hi[pos] = ix;
}

static void sift_up(double *ht, i64 *hi, i64 pos) {
    double t = ht[pos]; i64 ix = hi[pos];
    while (pos > 0) {
        i64 p = (pos - 1) / 2;
        if (t < ht[p] || (t == ht[p] && ix < hi[p])) {
            ht[pos] = ht[p]; hi[pos] = hi[p]; pos = p;
        } else break;
    }
    ht[pos] = t; hi[pos] = ix;
}

/* Exact virtual-time PS replay of one multi-job busy period
 * [start, end): float-op-for-float-op the Python _ps_busy_period loop. */
static void replay_period(const double *times, const double *work, double speed,
                          i64 start, i64 end, double *completions,
                          double *ht, i64 *hi) {
    i64 n = 0;           /* active jobs (heap size) */
    double v = 0.0;      /* virtual PS clock, fresh per busy period */
    double t_last = times[start];
    for (i64 j = start; j < end; j++) {
        double t_a = times[j];
        while (n > 0) {
            double tag = ht[0];
            double dt = (tag - v) * (double)n / speed;
            if (dt < 0.0) dt = 0.0;
            double t_dep = t_last + dt;
            if (t_dep > t_a) break;
            completions[hi[0]] = t_dep;
            t_last = t_dep;
            v = tag;
            n--;
            if (n > 0) { ht[0] = ht[n]; hi[0] = hi[n]; sift_down(ht, hi, n, 0); }
        }
        if (n > 0) v += (t_a - t_last) * speed / (double)n;
        t_last = t_a;
        ht[n] = v + work[j]; hi[n] = j; sift_up(ht, hi, n); n++;
    }
    while (n > 0) {
        double tag = ht[0];
        double dt = (tag - v) * (double)n / speed;
        if (dt < 0.0) dt = 0.0;
        t_last += dt;
        v = tag;
        completions[hi[0]] = t_last;
        n--;
        if (n > 0) { ht[0] = ht[n]; hi[0] = hi[n]; sift_down(ht, hi, n, 0); }
    }
}

/* Full per-substream PS pipeline for one server slice, single pass:
 * the Lindley depletion recursion and the busy-period segmentation
 * (job j opens a period iff it arrives at or after the depletion of
 * everything before it) run fused — each completed period is resolved
 * immediately, the singleton closed form t[b] + w[b]/speed for the
 * common case, the virtual-time heap otherwise.  The depletion instant
 * is carried in a register instead of a scratch array, so the float
 * values — and hence the segmentation and the bits — are exactly those
 * of the two-pass numpy formulation.  ht/hi: heap scratch of at least
 * n entries each. */
static void ps_slice(const double *t, const double *w, double sp, i64 n,
                     double *comp, double *ht, i64 *hi) {
    if (n <= 0) return;
    double acc = 0.0, m = -INFINITY, dep_prev = 0.0;
    i64 b = 0;
    for (i64 j = 0; j < n; j++) {
        if (j > b && t[j] >= dep_prev) {
            if (j - b == 1) comp[b] = t[b] + w[b] / sp;
            else replay_period(t, w, sp, b, j, comp, ht, hi);
            b = j;
        }
        double svc = w[j] / sp;
        acc += svc;
        double d = t[j] - (acc - svc);
        if (d > m) m = d;
        dep_prev = acc + m;
    }
    if (n - b == 1) comp[b] = t[b] + w[b] / sp;
    else replay_period(t, w, sp, b, n, comp, ht, hi);
}

/* numpy searchsorted(cum, u, side="right"): for each u[j] the first
 * index i with cum[i] > u[j].  Integer output — any correct upper-bound
 * search yields the identical targets, ties included.
 *
 * Accelerated with a 256-bucket index over [0, 1): bucket k caches the
 * answer for its left edge k/256, and the answer is monotone in u, so
 * each in-range uniform finishes with a short forward scan from
 * lut[k] — usually zero or one comparison.  Out-of-range inputs take
 * the plain binary search. */
void map_uniform_right(const double *cum, i64 nbins, const double *u,
                       i64 n, i64 *out) {
    i64 lut[257];
    i64 i = 0;
    for (i64 k = 0; k <= 256; k++) {
        double x = (double)k / 256.0;
        while (i < nbins && cum[i] <= x) i++;
        lut[k] = i;
    }
    for (i64 j = 0; j < n; j++) {
        double x = u[j];
        if (x >= 0.0 && x < 1.0) {
            i64 lo = lut[(i64)(x * 256.0)];
            while (lo < nbins && cum[lo] <= x) lo++;
            out[j] = lo;
        } else {
            i64 lo = 0, hi = nbins;
            while (lo < hi) {
                i64 mid = (lo + hi) >> 1;
                if (x < cum[mid]) hi = mid; else lo = mid + 1;
            }
            out[j] = lo;
        }
    }
}

/* OpenMP introspection/control for the Python side (1/no-op without). */
i64 pk_max_threads(void) {
#ifdef _OPENMP
    return (i64)omp_get_max_threads();
#else
    return 1;
#endif
}

void pk_set_threads(i64 n) {
#ifdef _OPENMP
    if (n > 0) omp_set_num_threads((int)n);
#else
    (void)n;
#endif
}

i64 pk_openmp_enabled(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* ------------------------------------------------------------------
 * Serve hot path (quasi-static service loop)
 * ------------------------------------------------------------------ */

/* Carry-state FCFS window sweep: one control window of dispatched jobs
 * through the per-server Lindley recursion, with the servers' free-up
 * instants carried in from the previous window and written back out.
 *
 * Mirrors ServerBank.replay_window's numpy formulation bit for bit:
 * grouping jobs by server with a stable counting sort (the same
 * permutation as numpy's stable argsort on the targets), then per
 * server
 *     svc_j = size_j / speed
 *     cum_j = cum_{j-1} + svc_j
 *     dep_j = cum_j + max(free_at, max_{k<=j}(t_k - cum_{k-1}))
 * Seeding the running max with free_at instead of taking the
 * elementwise maximum afterwards is exact — max never rounds — so the
 * fused sweep needs no per-server arrays of starts at all: one
 * arrival-order pass with per-server (acc, m) registers in the state
 * scratch.
 *
 * Outputs: departures/service_times in arrival order, plus the stable
 * grouping permutation (order) and per-server group bounds (offsets,
 * nservers+1), which the service loop reuses to fold per-server speed
 * witnesses without a second argsort.  free_at (nservers) is updated
 * in place; servers with no jobs in the window keep their value.
 * cursor (nservers) and state (2*nservers) are caller scratch.
 *
 * Returns 0 on success, 1 if any target lies outside [0, nservers)
 * (the caller falls back to the numpy path, which raises cleanly).
 */
i64 fcfs_window_sweep(const double *times, const double *work, i64 n,
                      const double *speeds, i64 nservers,
                      const i64 *targets, double *free_at,
                      double *departures, double *service_times,
                      i64 *order, i64 *offsets, i64 *cursor,
                      double *state) {
    for (i64 s = 0; s <= nservers; s++) offsets[s] = 0;
    for (i64 j = 0; j < n; j++) {
        i64 t = targets[j];
        if (t < 0 || t >= nservers) return 1;
        offsets[t + 1]++;
    }
    for (i64 s = 0; s < nservers; s++) offsets[s + 1] += offsets[s];
    double *acc = state;
    double *m = state + nservers;
    for (i64 s = 0; s < nservers; s++) {
        cursor[s] = offsets[s];
        acc[s] = 0.0;
        m[s] = free_at[s];
    }
    for (i64 j = 0; j < n; j++) {
        i64 s = targets[j];
        double svc = work[j] / speeds[s];
        double a = acc[s] + svc;
        acc[s] = a;
        double d = times[j] - (a - svc);
        if (d > m[s]) m[s] = d;
        double dep = a + m[s];
        departures[j] = dep;
        service_times[j] = svc;
        free_at[s] = dep;
        order[cursor[s]++] = j;
    }
    return 0;
}

/* Fault-mode segment dispatch: one segment of a fault-mode window
 * (the stretch between two fault events, over which server membership
 * and speeds are fixed), jobs in arrival order through the scalar FCFS
 * recursion of the per-job loop, float op for float op:
 *     svc = work / eff[s]
 *     dep = max(free_at[s], t) + svc;   free_at[s] = dep
 * This is deliberately not fcfs_window_sweep's cumulative form, whose
 * rounding differs.  eff is each server's effective speed (nominal
 * speed times its degradation factor).
 *
 * Accepted jobs become in-flight ledger rows, written in order into
 * the 6 × n column block `rows` (row c of job k at rows[c*n + k]):
 * origin, size, svc, dep, attempts, server.  A job aimed at a down
 * server (up[s] == 0) is refused and its index appended to `refused`.
 *
 * Returns the number of accepted jobs, or -1 if any target lies
 * outside [0, nservers) — checked before any state changes.
 */
i64 fault_segment_dispatch(const double *times, const double *work,
                           const double *origin, const i64 *attempts,
                           const i64 *targets, i64 n, const double *eff,
                           const unsigned char *up, i64 nservers,
                           double *free_at, double *rows, i64 *refused) {
    for (i64 j = 0; j < n; j++)
        if (targets[j] < 0 || targets[j] >= nservers) return -1;
    i64 k = 0, r = 0;
    for (i64 j = 0; j < n; j++) {
        i64 s = targets[j];
        if (!up[s]) {
            refused[r++] = j;
            continue;
        }
        double svc = work[j] / eff[s];
        double start = times[j] > free_at[s] ? times[j] : free_at[s];
        double dep = start + svc;
        free_at[s] = dep;
        rows[k] = origin[j];
        rows[n + k] = work[j];
        rows[2 * n + k] = svc;
        rows[3 * n + k] = dep;
        rows[4 * n + k] = (double)attempts[j];
        rows[5 * n + k] = (double)s;
        k++;
    }
    return k;
}

/* Algorithm 2 sequence extension: `count` further dispatch targets from
 * live (assign, next) state — the compiled mirror of
 * RoundRobinDispatcher.select, float op for float op (see
 * repro/dispatch/round_robin.py for the step-by-step commentary).
 * active/inv are the alpha > 0 participant indices and their
 * precomputed 1/alpha (the Python _setup values, so the tie-break
 * products use the identical doubles).  assign/nxt are updated in
 * place, exactly as `count` Python select() calls would leave them.
 */
void rr_sequence_extend(const double *inv, const i64 *active, i64 nactive,
                        i64 *assign, double *nxt, i64 count, i64 *out) {
    for (i64 k = 0; k < count; k++) {
        i64 sel = -1;
        double minnext = 0.0, norassign = 0.0;
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            double ni = nxt[i];
            if (sel == -1 || ni < minnext) {
                minnext = ni;
                norassign = (double)(assign[i] + 1) * inv[i];
                sel = i;
            } else if (ni == minnext) {
                double cand = (double)(assign[i] + 1) * inv[i];
                if (cand < norassign) { norassign = cand; sel = i; }
            }
        }
        if (assign[sel] == 0) nxt[sel] = 0.0;
        nxt[sel] += inv[sel];
        assign[sel] += 1;
        for (i64 a = 0; a < nactive; a++) {
            i64 i = active[a];
            if (assign[i] > 0) nxt[i] -= 1.0;
        }
        out[k] = sel;
    }
}

/* Bias-corrected EWMA fold: the sequential recursion of
 * EwmaEstimator.update over a batch of observations.
 *     raw  = (1-w)*raw  + w*x
 *     norm = (1-w)*norm + w
 * state = [raw, norm], updated in place.  The Python update computes
 * keep = 1.0 - weight per call with the same doubles, so the fold is
 * bit-identical to the per-observation loop.
 */
void ewma_fold(double *state, double weight, const double *xs, i64 n) {
    double raw = state[0], norm = state[1];
    double keep = 1.0 - weight;
    for (i64 j = 0; j < n; j++) {
        raw = keep * raw + weight * xs[j];
        norm = keep * norm + weight;
    }
    state[0] = raw;
    state[1] = norm;
}

/* Grouped EWMA fold: ewma_fold for k estimators sharing one weight
 * (the service folds every server's speed witnesses in one call).
 * Estimator e owns xs[offsets[e] .. offsets[e+1]) and the state pair
 * state[2e], state[2e+1] = [raw, norm]; estimators are independent, so
 * one call has the bits of k ewma_fold calls.
 */
void ewma_fold_grouped(double *state, double weight, const double *xs,
                       const i64 *offsets, i64 k) {
    for (i64 e = 0; e < k; e++)
        ewma_fold(state + 2 * e, weight, xs + offsets[e],
                  offsets[e + 1] - offsets[e]);
}

/* P² (Jain–Chlamtac) streaming-quantile batch fold: the post-warmup
 * marker update of P2Quantile.update applied to m observations, with
 * the locate / position-shift / parabolic-else-linear adjustment
 * copied operation for operation from the Python method.  q/n/np_ are
 * the five marker heights, actual positions, and desired positions
 * (updated in place); dn the fixed desired-position increments.
 */
void p2_fold(double *q, double *n, double *np_, const double *dn,
             const double *xs, i64 m) {
    for (i64 t = 0; t < m; t++) {
        double x = xs[t];
        i64 k;
        if (x < q[0]) {
            q[0] = x;
            k = 0;
        } else if (x >= q[4]) {
            if (x > q[4]) q[4] = x;
            k = 3;
        } else {
            k = 0;
            while (k < 3 && x >= q[k + 1]) k++;
        }
        for (i64 i = k + 1; i < 5; i++) n[i] += 1.0;
        for (i64 i = 0; i < 5; i++) np_[i] += dn[i];
        for (i64 i = 1; i <= 3; i++) {
            double d = np_[i] - n[i];
            if ((d >= 1.0 && n[i + 1] - n[i] > 1.0) ||
                (d <= -1.0 && n[i - 1] - n[i] < -1.0)) {
                d = d >= 1.0 ? 1.0 : -1.0;
                double cand = q[i] + d / (n[i + 1] - n[i - 1]) *
                    ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) /
                         (n[i + 1] - n[i]) +
                     (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) /
                         (n[i] - n[i - 1]));
                if (!(q[i - 1] < cand && cand < q[i + 1])) {
                    i64 j = i + (i64)d;
                    cand = q[i] + d * (q[j] - q[i]) / (n[j] - n[i]);
                }
                q[i] = cand;
                n[i] += d;
            }
        }
    }
}

/* Several P² estimators over one batch: estimator e keeps its markers
 * in state[20e .. 20e+20) as q[5], n[5], np[5], dn[5] and folds
 * xs[start[e] .. m) (the elements its Python warm-up left over).
 * Estimators are independent, so one call has the bits of k p2_fold
 * calls.
 */
void p2_fold_many(double *state, const i64 *start, i64 k, const double *xs,
                  i64 m) {
    for (i64 e = 0; e < k; e++) {
        double *st = state + 20 * e;
        p2_fold(st, st + 5, st + 10, st + 15, xs + start[e], m - start[e]);
    }
}

/* Whole-cell fused replay: every unique dispatch plan of one
 * replication in a single call.
 *
 * times/work: the replication's shared arrival/size streams (length n);
 * targets: nplans contiguous rows of n server indices (one dispatch
 * plan per row); completions: nplans rows of n output instants in
 * arrival order.  use_ps selects the PS pipeline (else FCFS).
 *
 * Scratch (caller-provided, reused across calls via the Python arena):
 *   gt/gw/gc        nplans*n   server-grouped times/work/completions
 *   order           nplans*n   grouping permutation (for scatter-back)
 *   offsets         nplans*(nservers+1)  per-plan group bounds (output:
 *                   the Python side reads them for per-server stats)
 *   pos             nplans*(nservers+1)  counting-sort cursors
 *   ht/hi           nthreads*n per-thread heap scratch
 *
 * Three phases, each an OpenMP parallel-for over disjoint outputs with
 * an implicit barrier between phases, so threaded output is
 * bit-identical to serial by construction:
 *   A. counting-sort grouping per plan — stable (arrival order kept
 *      within a server), the same permutation as numpy's stable argsort
 *      on the target keys;
 *   B. replay each (plan, server) slice;
 *   C. scatter each plan's completions back to arrival order.
 *
 * Returns 0 on success, 1 if any target is out of [0, nservers) (the
 * caller falls back to the numpy path, which raises cleanly).
 */
/* Phase D — per-plan summarize precursors for the post-warmup tail.
 * Response times and response ratios are elementwise (one subtract, one
 * divide per job — bit-identical wherever they are computed) and the
 * per-server dispatch counts are integers, so hoisting them out of the
 * per-plan numpy passes changes no bits.  Skipped when cut >= n. */
static void summarize_tail(const double *times, const double *work, i64 n,
                           i64 nservers, const i64 *targets, i64 nplans,
                           const double *completions, i64 cut,
                           double *resp, double *ratio, i64 *pcounts,
                           i64 nthreads) {
    i64 m = n - cut;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *tg = targets + p * n;
        const double *out = completions + p * n;
        i64 *pc = pcounts + p * nservers;
        double *pr = resp + p * m;
        double *pq = ratio + p * m;
        for (i64 s = 0; s < nservers; s++) pc[s] = 0;
        for (i64 j = cut; j < n; j++) {
            double r = out[j] - times[j];
            pr[j - cut] = r;
            pq[j - cut] = r / work[j];
            pc[tg[j]]++;
        }
    }
}

i64 cell_replay_batch(const double *times, const double *work, i64 n,
                      const double *speeds, i64 nservers,
                      const i64 *targets, i64 nplans, i64 use_ps,
                      double *completions,
                      double *gt, double *gw, double *gc,
                      i64 *order, i64 *offsets, i64 *pos,
                      double *ht, i64 *hi, i64 nthreads,
                      i64 cut, double *resp, double *ratio, i64 *pcounts) {
    i64 bad = 0;
    if (nthreads < 1) nthreads = 1;
    /* Per-thread scratch stride, mirrored by the Python caller when it
     * sizes ht/hi: the PS heap needs n entries, the fused FCFS pass
     * needs 2*nservers doubles of per-server state. */
    i64 stride = n > 2 * nservers ? n : 2 * nservers;

    if (!use_ps) {
        /* FCFS fused path: the Lindley recursion is online — carrying
         * per-server (acc, m) state through one arrival-order sweep
         * performs the float ops of fastpath._lindley_departures
         *   svc    = work[j] / speed                    (elementwise divide)
         *   cum_j  = cum_{j-1} + svc                    (np.cumsum is sequential)
         *   m_j    = max(m_{j-1}, t[j] - (cum_j - svc)) (np.maximum.accumulate)
         *   out[j] = cum_j + m_j
         * in the same per-server order as grouping + per-server replay +
         * scatter, so the bits match while the grouped-times copy, the
         * order index, and the scatter pass all disappear.  Only the
         * server-grouped sizes (the per-server busy-time sums) still
         * need the counting sort, and that write fuses into the same
         * sweep. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads) \
    reduction(|:bad)
#endif
        for (i64 p = 0; p < nplans; p++) {
            const i64 *tg = targets + p * n;
            i64 *off = offsets + p * (nservers + 1);
            i64 *cur = pos + p * (nservers + 1);
            for (i64 s = 0; s <= nservers; s++) off[s] = 0;
            i64 oops = 0;
            for (i64 j = 0; j < n; j++) {
                i64 t = tg[j];
                if (t < 0 || t >= nservers) { oops = 1; break; }
                off[t + 1]++;
            }
            if (oops) { bad |= 1; continue; }
            for (i64 s = 0; s < nservers; s++) off[s + 1] += off[s];
            for (i64 s = 0; s < nservers; s++) cur[s] = off[s];
            i64 tid = 0;
#ifdef _OPENMP
            tid = (i64)omp_get_thread_num();
#endif
            double *acc = ht + tid * stride;
            double *m = acc + nservers;
            for (i64 s = 0; s < nservers; s++) {
                acc[s] = 0.0;
                m[s] = -INFINITY;
            }
            double *pw = gw + p * n;
            double *out = completions + p * n;
            /* Phase D fused in: the completion is still in a register
             * when the post-warmup response/ratio are derived, saving
             * the re-read pass the PS path needs. */
            i64 dcut = (cut >= 0 && cut < n) ? cut : n;
            i64 *pc = pcounts + p * nservers;
            double *pr = resp + p * (n - dcut);
            double *pq = ratio + p * (n - dcut);
            if (dcut < n)
                for (i64 s = 0; s < nservers; s++) pc[s] = 0;
            for (i64 j = 0; j < n; j++) {
                i64 s = tg[j];
                pw[cur[s]++] = work[j];
                double svc = work[j] / speeds[s];
                double a = acc[s] + svc;
                acc[s] = a;
                double d = times[j] - (a - svc);
                if (d > m[s]) m[s] = d;
                double c = a + m[s];
                out[j] = c;
                if (j >= dcut) {
                    double r = c - times[j];
                    pr[j - dcut] = r;
                    pq[j - dcut] = r / work[j];
                    pc[s]++;
                }
            }
        }
        (void)gt; (void)gc; (void)order; (void)hi;
        return bad ? 1 : 0;
    }

    /* Phase A — group each plan's jobs by target server. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads) \
    reduction(|:bad)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *tg = targets + p * n;
        i64 *off = offsets + p * (nservers + 1);
        i64 *cur = pos + p * (nservers + 1);
        for (i64 s = 0; s <= nservers; s++) off[s] = 0;
        i64 oops = 0;
        for (i64 j = 0; j < n; j++) {
            i64 t = tg[j];
            if (t < 0 || t >= nservers) { oops = 1; break; }
            off[t + 1]++;
        }
        if (oops) { bad |= 1; continue; }
        for (i64 s = 0; s < nservers; s++) off[s + 1] += off[s];
        for (i64 s = 0; s < nservers; s++) cur[s] = off[s];
        i64 *ord = order + p * n;
        double *pt = gt + p * n, *pw = gw + p * n;
        for (i64 j = 0; j < n; j++) {
            i64 k = cur[tg[j]]++;
            ord[k] = j; pt[k] = times[j]; pw[k] = work[j];
        }
    }
    if (bad) return 1;

    /* Phase B — replay every (plan, server) slice. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 q = 0; q < nplans * nservers; q++) {
        i64 p = q / nservers, s = q % nservers;
        const i64 *off = offsets + p * (nservers + 1);
        i64 lo = off[s], cnt = off[s + 1] - lo;
        if (cnt <= 0) continue;
        i64 tid = 0;
#ifdef _OPENMP
        tid = (i64)omp_get_thread_num();
#endif
        const double *pt = gt + p * n + lo, *pw = gw + p * n + lo;
        double *pc = gc + p * n + lo;
        ps_slice(pt, pw, speeds[s], cnt, pc, ht + tid * stride,
                 hi + tid * stride);
    }

    /* Phase C — scatter back to arrival order. */
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)nthreads)
#endif
    for (i64 p = 0; p < nplans; p++) {
        const i64 *ord = order + p * n;
        const double *pc = gc + p * n;
        double *out = completions + p * n;
        for (i64 k = 0; k < n; k++) out[ord[k]] = pc[k];
    }
    if (cut >= 0 && cut < n)
        summarize_tail(times, work, n, nservers, targets, nplans,
                       completions, cut, resp, ratio, pcounts, nthreads);
    return 0;
}

/* ------------------------------------------------------------------
 * Dynamic Least-Load event engine
 * ------------------------------------------------------------------
 *
 * The compiled mirror of repro.sim.engine.run_simulation for the
 * LeastLoadDispatcher over PS or FCFS servers, fault-free.  Every step
 * copies the Python engine's order of operations:
 *
 *   - events sit in one min-heap ordered by (time, kind, seq), kinds
 *     DEPARTURE < ARRIVAL < LOAD_UPDATE, seq a global push counter;
 *     departures carry the server's version and stale ones are skipped;
 *   - PS servers keep virtual-time tags (tag, arrival index) — the
 *     index orders a server's jobs exactly as its push counter does —
 *     with the clamp and the idle reset of ProcessorSharingServer;
 *     FCFS servers keep a FIFO threaded through next[] and the
 *     head-completion recurrence of FCFSServer;
 *   - dispatch is the argmin of (q+1)/speed over the scheduler's known
 *     queues, ties to the fastest server, then the lowest index;
 *   - post-warm-up completions fold into three Welford accumulators
 *     exactly as RunningStats.add does;
 *   - each departure draws its notification delay from the
 *     replication's feedback generator through numpy's own C
 *     distribution functions (libnpyrandom), so the draws and the
 *     generator's final state match FeedbackModel.sample_delay.
 *
 * Arrival instants (all <= the horizon) and sizes come pre-drawn from
 * Python.  The arrival past the horizon is never pushed: seq only
 * orders events relative to each other, so leaving one push out
 * changes no comparison.
 */
#ifndef PK_NO_NPYRANDOM
#include <stdlib.h>

struct bitgen;
double random_uniform(struct bitgen *state, double lower, double range);
double random_exponential(struct bitgen *state, double scale);

enum { LL_DEPARTURE = 0, LL_ARRIVAL = 1, LL_LOAD_UPDATE = 2 };

typedef struct { double t; i64 kind, seq, a, b; } ll_event;

typedef struct { ll_event *e; i64 n, cap; } ll_heap;

static inline int ev_lt(const ll_event *x, const ll_event *y) {
    if (x->t < y->t) return 1;
    if (x->t > y->t) return 0;
    if (x->kind != y->kind) return x->kind < y->kind;
    return x->seq < y->seq;
}

static int ev_push(ll_heap *h, double t, i64 kind, i64 seq, i64 a, i64 b) {
    if (h->n == h->cap) {
        i64 cap = h->cap ? 2 * h->cap : 64;
        ll_event *e = realloc(h->e, (size_t)cap * sizeof(ll_event));
        if (!e) return -1;
        h->e = e; h->cap = cap;
    }
    ll_event ev = {t, kind, seq, a, b};
    i64 pos = h->n++;
    while (pos > 0) {
        i64 p = (pos - 1) / 2;
        if (!ev_lt(&ev, &h->e[p])) break;
        h->e[pos] = h->e[p];
        pos = p;
    }
    h->e[pos] = ev;
    return 0;
}

static ll_event ev_pop(ll_heap *h) {
    ll_event top = h->e[0];
    ll_event last = h->e[--h->n];
    i64 n = h->n, pos = 0;
    for (;;) {
        i64 c = 2 * pos + 1;
        if (c >= n) break;
        if (c + 1 < n && ev_lt(&h->e[c + 1], &h->e[c])) c++;
        if (!ev_lt(&h->e[c], &last)) break;
        h->e[pos] = h->e[c];
        pos = c;
    }
    if (n > 0) h->e[pos] = last;
    return top;
}

typedef struct {
    double speed, busy, t_last, v, head_done;
    i64 version, sched, received, completed, n;
    double *ht; i64 *hi; i64 cap;   /* PS tag heap */
    i64 head, tail;                 /* FCFS FIFO over next[] */
} ll_server;

typedef struct { i64 count; double mean, m2, total, min, max; } ll_stats;

static inline void stats_add(ll_stats *s, double x) {
    s->count++;
    double delta = x - s->mean;
    s->mean += delta / (double)s->count;
    s->m2 += delta * (x - s->mean);
    s->total += x;
    if (x < s->min) s->min = x;
    if (x > s->max) s->max = x;
}

/* PS virtual clock and busy time up to now (ProcessorSharingServer._advance). */
static inline void ps_advance(ll_server *s, double now) {
    if (s->n > 0) {
        s->v += (now - s->t_last) * s->speed / (double)s->n;
        s->busy += now - s->t_last;
    }
    s->t_last = now;
}

static int ps_arrive(ll_server *s, i64 job, double size, double now) {
    ps_advance(s, now);
    if (s->n == s->cap) {
        i64 cap = s->cap ? 2 * s->cap : 16;
        double *ht = realloc(s->ht, (size_t)cap * sizeof(double));
        if (!ht) return -1;
        s->ht = ht;
        i64 *hi = realloc(s->hi, (size_t)cap * sizeof(i64));
        if (!hi) return -1;
        s->hi = hi; s->cap = cap;
    }
    s->ht[s->n] = s->v + size; s->hi[s->n] = job;
    sift_up(s->ht, s->hi, s->n);
    s->n++;
    s->received++;
    s->version++;
    return 0;
}

static i64 ps_depart(ll_server *s, double now) {
    ps_advance(s, now);
    double tag = s->ht[0];
    i64 job = s->hi[0];
    s->n--;
    if (s->n > 0) {
        s->ht[0] = s->ht[s->n]; s->hi[0] = s->hi[s->n];
        sift_down(s->ht, s->hi, s->n, 0);
    }
    if (s->v < tag) s->v = tag;
    if (s->n == 0) s->v = 0.0;
    s->completed++;
    s->version++;
    return job;
}

static inline void fcfs_account(ll_server *s, double now) {
    if (s->n > 0) s->busy += now - s->t_last;
    s->t_last = now;
}

static void fcfs_arrive(ll_server *s, i64 job, double size, double now, i64 *next) {
    fcfs_account(s, now);
    if (s->n == 0) {
        s->head_done = now + size / s->speed;
        s->head = job;
    } else {
        next[s->tail] = job;
    }
    s->tail = job;
    s->n++;
    s->received++;
    s->version++;
}

static i64 fcfs_depart(ll_server *s, double now, const double *sizes, const i64 *next) {
    fcfs_account(s, now);
    i64 job = s->head;
    s->n--;
    s->completed++;
    if (s->n > 0) {
        s->head = next[job];
        s->head_done = now + sizes[s->head] / s->speed;
    }
    s->version++;
    return job;
}

/* The engine's resync(i): schedule the server's next departure after
 * a state change, stamped with its version. */
static int ll_resync(ll_heap *h, i64 *seq, ll_server *s, i64 i, i64 use_ps) {
    if (s->sched == s->version) return 0;
    s->sched = s->version;
    if (s->n == 0) return 0;
    double t;
    if (use_ps) {
        double dt = (s->ht[0] - s->v) * (double)s->n / s->speed;
        t = s->t_last + (dt > 0.0 ? dt : 0.0);
    } else {
        t = s->head_done;
    }
    return ev_push(h, t, LL_DEPARTURE, ++*seq, i, s->version);
}

/* Run one Least-Load replication.
 *
 * times/sizes: the n arrivals at or before the horizon, in order.
 * speeds: the servers' speeds; ll_speeds: the dispatcher's; known: its
 * known queue lengths (in/out, left as the Python dispatcher's are).
 * bitgen: the feedback generator's bitgen_t, used only when feedback.
 * targets: per-arrival dispatch decisions (out), or NULL.
 * busy/received/completed/dcounts: per-server outputs (dcounts counts
 * post-warm-up dispatches); stats: 3 x [count, mean, m2, total, min,
 * max] for response time, response ratio and job size.
 *
 * Returns 0 on success, -1 on allocation failure, and s+1 when a load
 * update for server s found its known queue already 0.
 */
i64 least_load_run(const double *times, const double *sizes, i64 n,
                   const double *speeds, i64 nservers, i64 use_ps,
                   const double *ll_speeds, i64 *known,
                   double duration, double warmup, i64 drain,
                   void *bitgen, i64 feedback, double detection,
                   double delay_mean, i64 *targets,
                   double *busy, i64 *received, i64 *completed,
                   i64 *dcounts, double *stats) {
    struct bitgen *bg = (struct bitgen *)bitgen;
    ll_server *srv = calloc((size_t)nservers, sizeof(ll_server));
    i64 *next = use_ps ? NULL : malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    ll_heap heap = {NULL, 0, 0};
    ll_stats st[3];
    i64 rc = 0, seq = 0, arrived = 0;
    if (!srv || (!use_ps && !next)) { rc = -1; goto done; }
    for (i64 i = 0; i < nservers; i++) {
        srv[i].speed = speeds[i];
        dcounts[i] = 0;
    }
    for (int k = 0; k < 3; k++) {
        st[k].count = 0;
        st[k].mean = st[k].m2 = st[k].total = 0.0;
        st[k].min = INFINITY;
        st[k].max = -INFINITY;
    }
    if (n > 0 && ev_push(&heap, times[0], LL_ARRIVAL, ++seq, 0, 0)) { rc = -1; goto done; }

    while (heap.n > 0) {
        ll_event ev = ev_pop(&heap);
        double t = ev.t;
        if (!drain && t > duration) break;
        if (ev.kind == LL_DEPARTURE) {
            ll_server *s = &srv[ev.a];
            if (ev.b != s->version) continue;
            i64 job = use_ps ? ps_depart(s, t) : fcfs_depart(s, t, sizes, next);
            if (ll_resync(&heap, &seq, s, ev.a, use_ps)) { rc = -1; goto done; }
            double arr = times[job];
            if (!(arr < warmup)) {
                double r = t - arr;
                stats_add(&st[0], r);
                stats_add(&st[1], r / sizes[job]);
                stats_add(&st[2], sizes[job]);
            }
            if (feedback) {
                double delay = 0.0;
                if (detection > 0) delay += random_uniform(bg, 0.0, detection);
                if (delay_mean > 0) delay += random_exponential(bg, delay_mean);
                if (ev_push(&heap, t + delay, LL_LOAD_UPDATE, ++seq, ev.a, 0)) {
                    rc = -1; goto done;
                }
            }
        } else if (ev.kind == LL_ARRIVAL) {
            i64 j = arrived++;
            i64 best = 0;
            double bv = (double)(known[0] + 1) / ll_speeds[0];
            for (i64 i = 1; i < nservers; i++) {
                double v = (double)(known[i] + 1) / ll_speeds[i];
                if (v < bv || (v == bv && ll_speeds[i] > ll_speeds[best])) {
                    bv = v;
                    best = i;
                }
            }
            known[best]++;
            ll_server *s = &srv[best];
            if (use_ps) {
                if (ps_arrive(s, j, sizes[j], t)) { rc = -1; goto done; }
            } else {
                fcfs_arrive(s, j, sizes[j], t, next);
            }
            if (ll_resync(&heap, &seq, s, best, use_ps)) { rc = -1; goto done; }
            if (t >= warmup) dcounts[best]++;
            if (targets) targets[j] = best;
            if (arrived < n &&
                ev_push(&heap, times[arrived], LL_ARRIVAL, ++seq, 0, 0)) {
                rc = -1; goto done;
            }
        } else {
            if (known[ev.a] <= 0) { rc = ev.a + 1; goto done; }
            known[ev.a]--;
        }
    }

    for (i64 i = 0; i < nservers; i++) {
        busy[i] = srv[i].busy;
        received[i] = srv[i].received;
        completed[i] = srv[i].completed;
    }
    for (int k = 0; k < 3; k++) {
        double *o = stats + 6 * k;
        o[0] = (double)st[k].count;
        o[1] = st[k].mean; o[2] = st[k].m2; o[3] = st[k].total;
        o[4] = st[k].min; o[5] = st[k].max;
    }
done:
    if (srv)
        for (i64 i = 0; i < nservers; i++) { free(srv[i].ht); free(srv[i].hi); }
    free(srv);
    free(next);
    free(heap.e);
    return rc;
}
#endif /* PK_NO_NPYRANDOM */
