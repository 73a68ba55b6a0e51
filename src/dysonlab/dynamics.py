"""Interacting-particle stochastic dynamics and collision statistics.

One adaptive Euler-Maruyama engine, integrate_ensemble, advances every
path set in lockstep; a single recorded trajectory is an ensemble of one.
It integrates two drift fields:

* the log-gas field dyson_drift, component i = sum_{j != i} 1/(x_i - x_j)
  - lam * x_i, which is half the gradient of the log of the
  quadratic-confinement ensemble density, for one configuration or a stack;
* the gradient field half * grad log sigma_2 of a windowed determinantal
  density in the two-point sector, interpolated from a PairDriftTable of
  the series-route density.  The caller builds one table per
  decomposition and passes it to every probe on it.

The step rule is dt = min(dt_max, c_dt * g_min^2) with g_min the current
minimum gap; a proposal that breaks the strict ordering is rejected and
retried with dt/2 (at most 20 halvings, after which the path is counted as
an integration failure).  Paths are independent jobs keyed by stream id.

A "hit" means the minimum gap dropped to the threshold delta, the
computational stand-in for a collision.  For a two-particle system with
unit-noise coordinates the gap follows dg = sqrt(2) dW + ((d-1)/g) dt with
d = 3 for the log-gas pair, and d = 1 + a for a gradient pair whose density
vanishes like gap^a; d < 2 hits zero, d >= 2 does not, which is what the
probes measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IntegrationFailureError, SingularConfigurationError
from .rng import RngStream
from .sampler import DppSampler, lambda_n, sample_log_gas_batch
from .spectral import SpectralDecomposition
from .statistics import palm_integrals

_MAX_HALVINGS = 20
# PairDriftTable grid: log-spaced gaps from _TABLE_G_MIN to 2.2 window
# lengths, sums spanning the window widened by 1 on each side, and the
# Gauss rule of the series integrals
_TABLE_G_MIN, _TABLE_N_G, _TABLE_N_S, _TABLE_N_QUAD = 1e-5, 240, 161, 48


# ---------------------------------------------------------------------------
# drift fields and energies
# ---------------------------------------------------------------------------

def dyson_drift(points, lam: float) -> np.ndarray:
    """Pairwise-repulsion drift with quadratic confinement of one sorted
    configuration (n,) or of a stack of them (..., n)."""
    x = np.asarray(points, dtype=float)
    n = x.shape[-1]
    if n >= 2 and np.min(np.diff(x, axis=-1)) <= 0.0:
        raise SingularConfigurationError("points must be strictly sorted")
    d = x[..., :, None] - x[..., None, :]
    d[..., np.arange(n), np.arange(n)] = np.inf
    return np.sum(1.0 / d, axis=-1) - lam * x


# ---------------------------------------------------------------------------
# the SDE engine
# ---------------------------------------------------------------------------

class EnsembleRun(NamedTuple):
    """Per-path outcome of integrate_ensemble."""

    hit: np.ndarray          # (n_paths,) bool
    failed: np.ndarray       # (n_paths,) bool: step halvings exhausted
    hit_time: np.ndarray     # (n_paths,) nan where no hit
    final: np.ndarray        # (n_paths, n) states at the end
    rejections: np.ndarray   # (n_paths,) proposals rejected for crossing
    frames: list | None      # [(t, X)] at the start and after each iteration


def integrate_ensemble(initials, drift, T: float, delta: float, rng: RngStream,
                       dt_max: float = 1e-3, c_dt: float = 2e-3,
                       record: bool = False) -> EnsembleRun:
    """Adaptive Euler-Maruyama paths of dX = drift(X) dt + dB, all
    advanced in lockstep with per-path steps.

    ``initials`` is (n_paths, n) with strictly increasing rows and
    ``drift`` maps an (m, n) stack of states to its (m, n) drift.  A path
    stops at T, at its first hit of a minimum gap <= delta (delta = 0
    disables hit detection), or when 20 halvings of its step cannot keep
    the ordering (a failure).  Noise is drawn per iteration for the active
    set from rng, so results depend on the generator sequence but not on
    any worker decomposition.  With ``record``, frames holds copies of
    (t, X) for every path at the start and after every iteration.
    """
    X = np.array(initials, dtype=float, copy=True)
    n_paths, n = X.shape
    if n >= 2 and np.any(np.diff(X, axis=1) <= 0.0):
        raise SingularConfigurationError("initial states must be strictly sorted")
    gen = rng.generator()
    t = np.zeros(n_paths)
    hit = np.zeros(n_paths, dtype=bool)
    failed = np.zeros(n_paths, dtype=bool)
    hit_time = np.full(n_paths, np.nan)
    rejections = np.zeros(n_paths, dtype=int)
    if n >= 2 and delta > 0:
        hit |= np.diff(X, axis=1).min(axis=1) <= delta
        hit_time[hit] = 0.0
    frames = [(t.copy(), X.copy())] if record else None
    active = ~hit & (t < T)

    while active.any():
        idx = np.flatnonzero(active)
        Xa = X[idx]
        g = np.diff(Xa, axis=1).min(axis=1) if n >= 2 else np.full(idx.size, np.inf)
        dt = np.minimum(dt_max, T - t[idx])
        fin = np.isfinite(g)
        dt[fin] = np.minimum(dt[fin], c_dt * g[fin] * g[fin])
        dr = drift(Xa)
        prop = Xa + dr * dt[:, None] + np.sqrt(dt)[:, None] * gen.normal(size=Xa.shape)
        bad = (np.diff(prop, axis=1).min(axis=1) <= 0.0) if n >= 2 else np.zeros(idx.size, bool)
        for _ in range(_MAX_HALVINGS):
            if not bad.any():
                break
            rejections[idx[bad]] += 1
            dt[bad] *= 0.5
            prop[bad] = (Xa[bad] + dr[bad] * dt[bad, None]
                         + np.sqrt(dt[bad])[:, None] * gen.normal(size=(int(bad.sum()), n)))
            bad = np.diff(prop, axis=1).min(axis=1) <= 0.0
        if bad.any():
            # an active path's gap exceeds delta, so exhaustion is a failure
            rejections[idx[bad]] += 1
            failed[idx[bad]] = True
            prop[bad] = Xa[bad]
            dt[bad] = 0.0
        X[idx] = prop
        t[idx] = t[idx] + dt
        if n >= 2 and delta > 0:
            newly = np.diff(prop, axis=1).min(axis=1) <= delta
            hit[idx[newly]] = True
            hit_time[idx[newly]] = t[idx[newly]]
        if record:
            frames.append((t.copy(), X.copy()))
        active = ~hit & ~failed & (t < T)
    return EnsembleRun(hit, failed, hit_time, X, rejections, frames)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray            # (n_times, n)
    min_gap_series: np.ndarray
    hit_flag: bool
    hit_time: float | None
    n_rejections: int = 0

    @classmethod
    def from_run(cls, run: EnsembleRun) -> "Trajectory":
        """The recorded path of a one-path integrate_ensemble run."""
        if run.failed[0]:
            raise IntegrationFailureError(
                f"step size underflow with gap {np.min(np.diff(run.final[0])):.3e}")
        times = np.array([t[0] for t, _ in run.frames])
        states = np.array([X[0] for _, X in run.frames])
        gaps = (np.diff(states, axis=1).min(axis=1) if states.shape[1] >= 2
                else np.full(times.size, np.inf))
        hit = bool(run.hit[0])
        return cls(times, states, gaps, hit, float(run.hit_time[0]) if hit else None,
                   int(run.rejections[0]))


# ---------------------------------------------------------------------------
# hitting statistics
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass
class HittingStats:
    n_paths: int
    n_hit: int
    delta: float
    T: float
    ci_low: float
    ci_high: float
    n_failures: int = 0
    inconclusive: bool = False
    params: dict = field(default_factory=dict)

    @property
    def hit_fraction(self) -> float:
        return self.n_hit / self.n_paths if self.n_paths else 0.0


def _stats_from_flags(hit, failed, delta, T, params) -> HittingStats:
    n_paths = hit.size
    n_hit = int(hit.sum())
    n_fail = int(failed.sum())
    lo, hi = wilson_interval(n_hit, n_paths)
    return HittingStats(n_paths, n_hit, delta, T, lo, hi, n_fail,
                        inconclusive=(n_fail > 0.05 * n_paths), params=params)


def dyson_collision_probe(N: int, n_paths: int, T: float, delta: float,
                          rng: RngStream, rho_bar: float = 0.5,
                          dt_max: float = 1e-3, c_dt: float = 2e-3) -> HittingStats:
    """Hit frequency of the log-gas dynamics started in equilibrium."""
    lam = lambda_n(N, rho_bar)
    initials = sample_log_gas_batch(N, rho_bar, rng.seed, n_paths,
                                    base_stream=rng.stream_id)
    run = integrate_ensemble(initials, lambda X: dyson_drift(X, lam), T, delta,
                             rng.child(0), dt_max, c_dt)
    return _stats_from_flags(run.hit, run.failed, delta, T,
                             {"model": "dyson", "N": N, "rho_bar": rho_bar,
                              "c_dt": c_dt, "dt_max": dt_max})


class PairDriftTable:
    """Gradient drift of a two-particle windowed density on a
    (log gap) x (sum) grid with bilinear interpolation.

    The tabulated density is the series route truncated after k = 2, in
    closed form (palm_integrals) on a 48-node Gauss rule over the window;
    tabulating d log sigma / d log g keeps relative accuracy uniform down
    to tiny gaps, where the drift behaves like a/(2 g).
    """

    def __init__(self, decomp: SpectralDecomposition):
        a, b = decomp.window
        self.gs = np.geomspace(_TABLE_G_MIN, 2.2 * (b - a), _TABLE_N_G)
        self.ss = np.linspace(2 * a - 1.0, 2 * b + 1.0, _TABLE_N_S)
        z0, w0 = leggauss(_TABLE_N_QUAD)
        z = 0.5 * (b - a) * z0 + 0.5 * (b + a)
        w = 0.5 * (b - a) * w0
        kernel = decomp.kernel
        kzz = kernel.eval(z[:, None], z[None, :])
        u = np.empty((self.gs.size, self.ss.size))
        # one gap at a time keeps the (pairs, 2, nodes) blocks small
        for i, g in enumerate(self.gs):
            x = np.stack([(self.ss - g) / 2.0, (self.ss + g) / 2.0], axis=1)
            rho, int1, int2 = palm_integrals(kernel, x, z, w, kzz)
            u[i] = np.log(np.maximum(rho - int1 + 0.5 * int2, 1e-300))
        self.du_dlng = np.gradient(u, np.log(self.gs[1] / self.gs[0]), axis=0)
        self.du_ds = np.gradient(u, self.ss[1] - self.ss[0], axis=1)
        self._lng0 = np.log(self.gs[0])
        self._dlng = np.log(self.gs[1] / self.gs[0])
        self._ds = self.ss[1] - self.ss[0]

    def _interp(self, table, fi, fj):
        i = fi.astype(int)
        j = fj.astype(int)
        ti = fi - i
        tj = fj - j
        return (table[i, j] * (1 - ti) * (1 - tj) + table[i + 1, j] * ti * (1 - tj)
                + table[i, j + 1] * (1 - ti) * tj + table[i + 1, j + 1] * ti * tj)

    def drift(self, X: np.ndarray) -> np.ndarray:
        """Half the gradient of log sigma_2 at each row (x1 < x2) of X."""
        g = X[:, 1] - X[:, 0]
        if np.any(g <= 0.0):
            raise SingularConfigurationError("pairs must be strictly sorted")
        s = X[:, 0] + X[:, 1]
        fi = np.clip((np.log(np.maximum(g, 1e-12)) - self._lng0) / self._dlng,
                     0.0, self.gs.size - 1.001)
        fj = np.clip((s - self.ss[0]) / self._ds, 0.0, self.ss.size - 1.001)
        a = self._interp(self.du_ds, fi, fj)
        b = self._interp(self.du_dlng, fi, fj) / g
        return 0.5 * np.stack([a - b, a + b], axis=1)


def conditioned_pair_initials(sampler: DppSampler, n_paths: int,
                              rng: RngStream, max_tries: int = 400) -> np.ndarray:
    """Equilibrium samples conditioned on exactly two points; attempt i
    draws from stream rng.stream_id + i."""
    out = np.empty((n_paths, 2))
    got = 0
    for i in range(max_tries * n_paths):
        cfg = sampler.sample(RngStream(rng.seed, rng.stream_id + i))
        if cfg.count == 2:
            out[got] = cfg.points
            got += 1
            if got == n_paths:
                return out
    raise IntegrationFailureError("could not draw enough two-point configurations")


def distorted_pair_collision_probe(table: PairDriftTable, initials: np.ndarray,
                                   T: float, delta: float, rng: RngStream,
                                   dt_max: float = 1e-3, c_dt: float = 2e-3) -> HittingStats:
    """Hit frequency of the gradient dynamics on the two-point sector from
    the (n_paths, 2) initial pairs, e.g. conditioned_pair_initials."""
    run = integrate_ensemble(initials, table.drift, T, delta, rng.child(1), dt_max, c_dt)
    return _stats_from_flags(run.hit, run.failed, delta, T,
                             {"model": "distorted-pair", "c_dt": c_dt, "dt_max": dt_max})


# ---------------------------------------------------------------------------
# gap scaling exponent (effective radial dimension)
# ---------------------------------------------------------------------------

def gap_dimension_fit(drift_batch, g0: float, rng: RngStream, n_paths: int = 8000,
                      t_max: float = 8e-4, n_steps: int = 20,
                      center: float = 0.0) -> float:
    """Effective radial dimension of a two-particle gap process.

    Starting all pairs at gap g0, E[g_t^2] = g0^2 + 2 d t for small t when
    the gap diffuses like a dimension-d radial process with the pair's
    sqrt(2) volatility; the fitted slope over [0, t_max] divided by 2
    estimates d.  Per-step drift displacements are capped at a fraction of
    the current gap so the rare near-zero excursions cannot blow up the
    fixed-step mean (crossing proposals are reflected).
    """
    gen = rng.generator()
    X = np.tile([center - g0 / 2, center + g0 / 2], (n_paths, 1))
    dt = t_max / n_steps
    ts = [0.0]
    m2 = [g0 * g0]
    for s in range(n_steps):
        g = X[:, 1] - X[:, 0]
        cap = 0.3 * g[:, None]
        move = np.clip(drift_batch(X) * dt, -cap, cap)
        prop = X + move + np.sqrt(dt) * gen.normal(size=X.shape)
        swap = prop[:, 1] <= prop[:, 0]
        if swap.any():
            prop[swap] = prop[swap][:, ::-1]
        X = prop
        g = X[:, 1] - X[:, 0]
        ts.append((s + 1) * dt)
        m2.append(float(np.mean(g * g)))
    slope = np.polyfit(ts, m2, 1)[0]
    return float(slope / 2.0)


def dyson_pair_dimension(rng: RngStream, rho_bar: float = 0.5, g0: float = 0.1,
                         **kw) -> float:
    lam = lambda_n(2, rho_bar)
    return gap_dimension_fit(lambda X: dyson_drift(X, lam), g0, rng, **kw)


def distorted_pair_dimension(table: PairDriftTable, rng: RngStream,
                             g0: float = 0.1, **kw) -> float:
    return gap_dimension_fit(table.drift, g0, rng, **kw)


def bessel_gap_hit_fraction(dim: float, g0s: np.ndarray, delta: float, T: float,
                            rng: RngStream, dt_max: float = 1e-3,
                            c_dt: float = 2e-3) -> HittingStats:
    """Oracle: the gap-scale radial process dg = sqrt(2) dW + ((dim-1)/g) dt,
    integrated with the same step rule, absorbed at delta."""
    g0s = np.asarray(g0s, dtype=float)
    X = np.stack([-g0s / 2, g0s / 2], axis=1)

    def drift(Xa):
        g = Xa[:, 1] - Xa[:, 0]
        b = 0.5 * (dim - 1.0) / g
        return np.stack([-b, b], axis=1)

    run = integrate_ensemble(X, drift, T, delta, rng, dt_max, c_dt)
    return _stats_from_flags(run.hit, run.failed, delta, T, {"model": "bessel", "dim": dim})


def hitting_stats_json(stats: HittingStats) -> dict:
    return {
        "hit_fraction": stats.hit_fraction,
        "ci": [stats.ci_low, stats.ci_high],
        "n_paths": stats.n_paths,
        "n_hit": stats.n_hit,
        "n_failures": stats.n_failures,
        "inconclusive": stats.inconclusive,
        "delta": stats.delta,
        "T": stats.T,
        "params": stats.params,
    }
