"""Interacting-particle stochastic dynamics and collision statistics.

One adaptive Euler-Maruyama engine, integrate_ensemble, advances a sweep
of jobs, each an initial path set with its own delta and noise stream, in
one lockstep loop; a single recorded trajectory is a sweep of one job of
one path.  It integrates two drift fields:

* the log-gas field dyson_drift, component i = sum_{j != i} 1/(x_i - x_j)
  - lam * x_i, which is half the gradient of the log of the
  quadratic-confinement ensemble density, for one configuration or a stack;
* the gradient field half * grad log sigma_2 of a windowed determinantal
  density in the two-point sector, interpolated from a PairDriftTable of
  log det L (spectral.l_matrix).  The caller builds one table per
  decomposition and passes it to every probe on it.  Its probes start
  from equilibrium conditioned on exactly two points, drawn exactly from
  the sampler's two-point sector (conditioned_pair_initials).

The step rule is dt = min(dt_max, c_dt * g_min^2) with g_min the current
minimum gap; a proposal that breaks the strict ordering is rejected and
retried with dt/2 (at most 20 halvings, after which the path is counted as
an integration failure).  A path whose step no longer moves its time
(t + dt == t) stops as a failure too.  Paths are independent jobs keyed
by stream id.

An iteration makes one drift call on the active paths of every job and,
per job with active paths, one normal draw of shape (active, n) in path
order, plus one such draw per halving round for the crossed paths.  The
active set stays compact between iterations: its states, times, minimum
gaps and deltas live from one step to the next and are written back and
compressed only when a path stops (or on every step when recording), so
an iteration costs a fixed few dozen numpy calls on arrays of the active
set's size.  That fixed cost, not the arithmetic, is the engine's time
when a few dozen paths remain, and a sweep pays it once for all of its
deltas.  Every draw and every float of a job equals that of a lone run
of it in the plain form that re-gathers the active set from the full
state on each iteration.

A "hit" means the minimum gap dropped to the threshold delta, the
computational stand-in for a collision.  For a two-particle system with
unit-noise coordinates the gap follows dg = sqrt(2) dW + ((d-1)/g) dt with
d = 3 for the log-gas pair, and d = 1 + a for a gradient pair whose density
vanishes like gap^a; d < 2 hits zero, d >= 2 does not, which is what the
probes measure.  Each probe returns, per delta, the row that probe.json
writes: the hit fraction, its 95% Wilson interval, the counts of paths,
hits and failures, and under "sde" the engine's counters for the manifest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SingularConfigurationError
from .rng import RngStream
from .sampler import _DENSE_ENTRIES, DppSampler, lambda_n, sample_log_gas_batch
from .spectral import SpectralDecomposition, l_matrix, nystrom_decompose

_MAX_HALVINGS = 20
# the normal quantile of a two-sided 95% interval
_Z95 = 1.959963984540054
# PairDriftTable grid: log-spaced gaps from _TABLE_G_MIN to 2.2 window
# lengths, sums spanning the window widened by 1 on each side, and the
# node count of the table's own decomposition
_TABLE_G_MIN, _TABLE_N_G, _TABLE_N_S, _TABLE_N_QUAD = 1e-5, 240, 161, 48


# ---------------------------------------------------------------------------
# drift fields and energies
# ---------------------------------------------------------------------------

def dyson_drift(points, lam: float) -> np.ndarray:
    """Pairwise-repulsion drift with quadratic confinement of one sorted
    configuration (n,) or of a stack of them (..., n), whose pair
    differences are built _DENSE_ENTRIES at a time, each row as if alone."""
    x = np.asarray(points, dtype=float)
    n = x.shape[-1]
    if n >= 2 and np.min(np.diff(x, axis=-1)) <= 0.0:
        raise SingularConfigurationError("points must be strictly sorted")
    rows = x.reshape(int(np.prod(x.shape[:-1])), n)
    out = np.empty_like(rows)
    block, idx = max(1, _DENSE_ENTRIES // max(1, n * n)), np.arange(n)
    for s in range(0, rows.shape[0], block):
        r = rows[s:s + block]
        d = r[:, :, None] - r[:, None, :]
        d[:, idx, idx] = np.inf
        out[s:s + block] = np.sum(np.divide(1.0, d, out=d), axis=-1) - lam * r
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# the SDE engine
# ---------------------------------------------------------------------------

class EnsembleRun(NamedTuple):
    """Per-path outcome of one job of integrate_ensemble."""

    hit: np.ndarray          # (n_paths,) bool
    failed: np.ndarray       # (n_paths,) bool: halvings exhausted or a stalled step
    hit_time: np.ndarray     # (n_paths,) nan where no hit
    final: np.ndarray        # (n_paths, n) states at the end
    rejections: np.ndarray   # (n_paths,) proposals rejected for crossing
    steps: np.ndarray        # (n_paths,) iterations the path was active in
    iterations: int          # the last lockstep iteration with an active path
    frames: list | None      # [(t, X)] at the start and after each of its iterations


def _min_gaps(Y: np.ndarray) -> np.ndarray:
    """Minimum gap of each sorted row of Y (at least two columns)."""
    d = Y[:, 1:] - Y[:, :-1]
    return d[:, 0] if d.shape[1] == 1 else d.min(axis=1)


def _normals(gens: list, counts: np.ndarray, n: int) -> np.ndarray:
    """(sum(counts), n) standard normals, counts[j] rows from gens[j] in
    job order; jobs with no rows draw nothing."""
    parts = [gen.normal(size=(c, n)) for gen, c in zip(gens, counts) if c]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def integrate_ensemble(jobs, drift, T: float, dt_max: float = 1e-3, c_dt: float = 2e-3,
                       record: bool = False) -> list[EnsembleRun]:
    """Adaptive Euler-Maruyama paths of dX = drift(X) dt + dB for a sweep
    of jobs, every path advanced in lockstep with its own step; one
    EnsembleRun per job.

    A job is ``(initials, delta, rng)``: (n_paths, n) states with strictly
    increasing rows, the job's hit threshold and its noise stream.  Every
    job has the same n, and ``drift`` maps an (m, n) stack of states to its
    (m, n) drift row by row, so one call per iteration serves the sweep.
    A path stops at T, at its first hit of a minimum gap <= its job's delta
    (delta = 0 disables hit detection), or as a failure: when 20 halvings
    of its step cannot keep the ordering, or when its step no longer moves
    its time (t + dt == t).  The step dt = min(dt_max, c_dt g^2) has no
    floor, so with delta = 0 a drift that drives a pair together shrinks
    it until the step falls below half an ulp of t, and the path stalls
    there.  Each job draws the noise of its active paths from its own
    rng, in path order, so its run is that of a lone job bit for bit, and
    depends on the generator sequence but not on the rest of the sweep or
    any worker decomposition.  With ``record``, a job's frames hold copies
    of its (t, X) at the start and after every iteration it had an active
    path in.
    """
    jobs = list(jobs)
    sizes = [len(init) for init, _, _ in jobs]
    X = np.concatenate([np.asarray(init, dtype=float) for init, _, _ in jobs])
    n_paths, n = X.shape
    pairs = n >= 2
    if pairs and np.any(np.diff(X, axis=1) <= 0.0):
        raise SingularConfigurationError("initial states must be strictly sorted")
    gens = [rng.generator() for _, _, rng in jobs]
    rows = [slice(end - size, end) for end, size in zip(np.cumsum(sizes), sizes)]
    job = np.repeat(np.arange(len(jobs)), sizes)
    # a sorted state's gaps are positive, so delta = 0 never hits
    delta = np.array([d for _, d, _ in jobs], dtype=float)[job]
    t = np.zeros(n_paths)
    failed = np.zeros(n_paths, dtype=bool)
    hit_time = np.full(n_paths, np.nan)
    rejections = np.zeros(n_paths, dtype=int)
    steps = np.zeros(n_paths, dtype=int)
    gaps = _min_gaps(X) if pairs else np.full(n_paths, np.inf)
    hit = gaps <= delta
    hit_time[hit] = 0.0
    frames = [[(t[r].copy(), X[r].copy())] for r in rows] if record else None

    # the active set stays compact between iterations: its rows of X and
    # t, its minimum gaps, which the last accepted proposal gave, and its
    # deltas; X and t are written back, and the per-job active counts
    # taken, only when a path stops
    idx = np.flatnonzero(~hit & (t < T))
    Xa, ta, ga, da = X[idx], t[idx], gaps[idx], delta[idx]
    counts = np.bincount(job[idx], minlength=len(jobs))
    it = 0
    while idx.size:
        it += 1
        dt = np.minimum(dt_max, T - ta)
        if pairs:
            # fmin leaves dt alone where the gap is not finite
            dt = np.fmin(dt, c_dt * ga * ga)
        dr = drift(Xa)
        prop = Xa + dr * dt[:, None] + np.sqrt(dt)[:, None] * _normals(gens, counts, n)
        if pairs:
            ga = _min_gaps(prop)
            bad = ga <= 0.0
            if np.count_nonzero(bad):
                bad = _halve_crossed(bad, Xa, dr, dt, prop, ga, gens, job, idx, rejections)
                if np.count_nonzero(bad):
                    # exhausted: the path stays put with dt = 0, and stalls below
                    rejections[idx[bad]] += 1
                    prop[bad] = Xa[bad]
                    dt[bad] = 0.0
                    ga[bad] = _min_gaps(Xa[bad])
        # a step that no longer moves the time stalls its path: a failure,
        # unless the step hit
        t_next = ta + dt
        stuck = t_next == ta
        ta = t_next
        Xa = prop
        newly = ga <= da
        stop = (ta >= T) | newly | stuck
        if record:
            X[idx] = Xa
            t[idx] = ta
            for j in np.flatnonzero(counts):
                frames[j].append((t[rows[j]].copy(), X[rows[j]].copy()))
        if np.count_nonzero(stop):
            failed[idx[stuck & ~newly]] = True
            hit[idx[newly]] = True
            hit_time[idx[newly]] = ta[newly]
            done = idx[stop]
            X[done] = Xa[stop]
            t[done] = ta[stop]
            steps[done] = it
            keep = ~stop
            idx, Xa, ta, ga, da = idx[keep], Xa[keep], ta[keep], ga[keep], da[keep]
            counts = np.bincount(job[idx], minlength=len(jobs))
    # a job's last iteration is that of its last path to stop
    return [EnsembleRun(hit[r], failed[r], hit_time[r], X[r], rejections[r], steps[r],
                        int(steps[r].max(initial=0)), frames[j] if record else None)
            for j, r in enumerate(rows)]


def _halve_crossed(bad, Xa, dr, dt, prop, ga, gens, job, idx, rejections) -> np.ndarray:
    """Redraw each crossed proposal (mask ``bad``) with half its step and
    fresh noise from its job's generator, at most _MAX_HALVINGS times,
    updating dt, prop, its gaps ga and the rejection counts in place;
    returns the mask still crossed."""
    for _ in range(_MAX_HALVINGS):
        rejections[idx[bad]] += 1
        dt[bad] *= 0.5
        noise = _normals(gens, np.bincount(job[idx[bad]], minlength=len(gens)), Xa.shape[1])
        rows = Xa[bad] + dr[bad] * dt[bad, None] + np.sqrt(dt[bad])[:, None] * noise
        prop[bad] = rows
        ga[bad] = _min_gaps(rows)
        bad = ga <= 0.0
        if not np.count_nonzero(bad):
            break
    return bad


# ---------------------------------------------------------------------------
# hitting statistics
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    z = _Z95
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def _probe_row(run: EnsembleRun, delta, T, params) -> dict:
    """The probe.json row of one job's run.  Its "sde" entry, the engine's
    counters, is for the manifest: the caller pops it before writing."""
    n_paths, n_hit, n_fail = run.hit.size, int(run.hit.sum()), int(run.failed.sum())
    return {"hit_fraction": n_hit / n_paths if n_paths else 0.0,
            "ci": list(wilson_interval(n_hit, n_paths)),
            "n_paths": n_paths, "n_hit": n_hit, "n_failures": n_fail,
            "inconclusive": n_fail > 0.05 * n_paths,
            "delta": delta, "T": T, "params": params,
            "sde": {"delta": delta, "iterations": run.iterations,
                    "path_steps": int(run.steps.sum()),
                    "rejections": int(run.rejections.sum()), "failures": n_fail}}


def dyson_collision_probe(N: int, n_paths: int, sweep, T: float, rho_bar: float = 0.5,
                          dt_max: float = 1e-3, c_dt: float = 2e-3) -> list[dict]:
    """Hit frequency of the log-gas dynamics started in equilibrium, one
    probe row per ``(delta, rng)`` of the sweep: n_paths initial states
    from streams rng.stream_id + i, and the noise from rng.child(0), all
    deltas integrated in one lockstep pass."""
    lam = lambda_n(N, rho_bar)
    jobs = [(sample_log_gas_batch(N, rho_bar, rng.seed, n_paths, base_stream=rng.stream_id),
             delta, rng.child(0)) for delta, rng in sweep]
    runs = integrate_ensemble(jobs, lambda X: dyson_drift(X, lam), T, dt_max, c_dt)
    params = {"model": "dyson", "N": N, "rho_bar": rho_bar, "c_dt": c_dt, "dt_max": dt_max}
    return [_probe_row(run, delta, T, dict(params)) for run, (_, delta, _) in zip(runs, jobs)]


class PairDriftTable:
    """Gradient drift of a two-particle windowed density on a
    (log gap) x (sum) grid with bilinear interpolation.

    u = log det L(x1, x2) is tabulated from spectral.l_matrix on a 48-node
    decomposition of the same kernel and window: log sigma_2 less the
    constant log det(Id - K).  L uses K(x1, x2) itself, so it resolves the
    cusp below the node spacing; tabulating du / d log g keeps relative
    accuracy uniform down to tiny gaps, where the drift behaves like a/(2 g).
    An eigenvalue numerically at 1 raises DegenerateProjectionError.
    """

    def __init__(self, decomp: SpectralDecomposition):
        a, b = decomp.window
        self.gs = np.geomspace(_TABLE_G_MIN, 2.2 * (b - a), _TABLE_N_G)
        self.ss = np.linspace(2 * a - 1.0, 2 * b + 1.0, _TABLE_N_S)
        rule = nystrom_decompose(decomp.kernel, decomp.window, _TABLE_N_QUAD)
        u = np.empty((self.gs.size, self.ss.size))
        # one gap at a time keeps the (pairs, 2, nodes) blocks small
        for i, g in enumerate(self.gs):
            x = np.stack([(self.ss - g) / 2.0, (self.ss + g) / 2.0], axis=1)
            u[i] = np.log(np.maximum(np.linalg.det(l_matrix(rule, x)), 1e-300))
        du_dlng = np.gradient(u, np.log(self.gs[1] / self.gs[0]), axis=0)
        du_ds = np.gradient(u, self.ss[1] - self.ss[0], axis=1)
        # column i * n_s + j holds half (du/ds, du/dlog g) at (gs[i], ss[j]),
        # so the four corners of a cell are columns k, k + n_s, k + 1 and
        # k + n_s + 1; halving is exact, so the drift needs no final factor
        self.half_grad = 0.5 * np.stack([du_ds.ravel(), du_dlng.ravel()])
        self._corners = np.array([[0], [self.ss.size], [1], [self.ss.size + 1]])
        # (log g, s) to fractional grid coordinates, clipped to the last cell
        self._origin = np.array([[np.log(self.gs[0])], [self.ss[0]]])
        self._step = np.array([[np.log(self.gs[1] / self.gs[0])], [self.ss[1] - self.ss[0]]])
        self._top = np.array([[self.gs.size - 1.001], [self.ss.size - 1.001]])

    def drift(self, X: np.ndarray) -> np.ndarray:
        """Half the gradient of log sigma_2 at each row (x1 < x2) of X.

        The work runs on (2, m) arrays, a coordinate or component per row,
        so every operation loops over the m pairs in one contiguous run."""
        x1, x2 = X[:, 0], X[:, 1]
        g = x2 - x1
        if np.count_nonzero(g <= 0.0):
            raise SingularConfigurationError("pairs must be strictly sorted")
        f = np.empty((2, X.shape[0]))
        np.log(np.maximum(g, 1e-12), out=f[0])
        np.add(x1, x2, out=f[1])
        f -= self._origin
        f /= self._step
        f = np.minimum(np.maximum(f, 0.0, out=f), self._top, out=f)
        k = f.astype(int)
        t = f - k
        u = 1 - t
        ti, tj, ui, uj = t[0], t[1], u[0], u[1]
        # (2, 4, m): both half gradients at the four corners, in one gather
        c = self.half_grad.take(k[0] * self.ss.size + k[1] + self._corners, axis=1)
        v = c[:, 0] * ui * uj + c[:, 1] * ti * uj + c[:, 2] * ui * tj + c[:, 3] * ti * tj
        b = v[1] / g
        out = np.empty(X.shape)
        np.subtract(v[0], b, out=out[:, 0])
        np.add(v[0], b, out=out[:, 1])
        return out


def conditioned_pair_initials(sampler: DppSampler, n_paths: int,
                              rng: RngStream) -> np.ndarray:
    """Equilibrium samples conditioned on exactly two points: the sampler's
    two-point sector draws on streams rng.stream_id + i (DppSampler.sample_pairs)."""
    return sampler.sample_pairs(rng.seed, n_paths, rng.stream_id)


def distorted_pair_collision_probe(table: PairDriftTable, sweep, T: float,
                                   dt_max: float = 1e-3,
                                   c_dt: float = 2e-3) -> list[dict]:
    """Hit frequency of the gradient dynamics on the two-point sector, one
    probe row per ``(initials, delta, rng)`` of the sweep: (n_paths, 2)
    initial pairs, e.g. conditioned_pair_initials, and the noise from
    rng.child(1), all deltas integrated in one lockstep pass."""
    jobs = [(initials, delta, rng.child(1)) for initials, delta, rng in sweep]
    runs = integrate_ensemble(jobs, table.drift, T, dt_max, c_dt)
    params = {"model": "distorted-pair", "c_dt": c_dt, "dt_max": dt_max}
    return [_probe_row(run, delta, T, dict(params)) for run, (_, delta, _) in zip(runs, jobs)]
