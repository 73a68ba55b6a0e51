"""Monte Carlo energy of near-collision cutoff statistics.

For a configuration theta and a pair cutoff profile h, the test statistic
is g(theta) = sum over ordered pairs (i, j), both points in an inner
window, of h(x_i - x_j).  Two profiles are shipped:

  log variant     h(t) = 2 on |t| <= eps, 2 log|t| / log eps on eps <= |t| <= 1,
                  0 beyond (eps < 1; even and continuous);
  linear variant  h(t) = 2 on |t| <= eps, -(2/eps)|t| + 4 on eps <= |t| <= 2 eps,
                  0 beyond.

The energy density of a configuration is half the squared gradient of g,
with the almost-everywhere derivative h' and one term per unordered
partner in the sum: the gradient component of inner point i is the sum of
h'(x_i - x_j) over its inner partners j (times the unit vector of x_i - x_j
when d >= 2; a pair sitting exactly on a kink uses the inner-side
derivative), and the energy density is 1/2 sum_i |grad_i g|^2.  Both g and
the energy are 0 when fewer than two points are inner.  Averaging the
energy and g^2 over equilibrium samples gives the capacity upper-bound
functional energy + l2; it decays like C / |log eps| as eps -> 0 when the
two-point density vanishes linearly in the gap, which decay_fit certifies
by a through-the-origin fit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import gamma, pi

import numpy as np

from .sampler import Box, Configuration
from .rng import RngStream
from .statistics import standard_error

log = logging.getLogger(__name__)

# the Poisson pair-count oracle's Monte Carlo sample, pinned for reruns
_ORACLE_MC_POINTS, _ORACLE_SEED = 200_000, 7
# pair-difference entries scored at once: bounds memory whatever the batch
_BLOCK_ENTRIES = 1 << 20


def h_eps(t, eps: float):
    """Logarithmic cutoff profile; plateau 2 inside eps, support |t| < 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError("log variant needs 0 < eps < 1")
    t = np.abs(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore"):
        mid = 2.0 * np.log(np.where(t > 0, t, 1.0)) / np.log(eps)
    out = np.where(t <= eps, 2.0, np.where(t >= 1.0, 0.0, mid))
    return out if out.ndim else float(out)


def h_eps_prime(t, eps: float):
    """a.e. derivative of h_eps: 2/(t log eps) on eps < |t| < 1, else 0.
    Kink points use the inner-side value."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((a > eps) & (a <= 1.0), 2.0 / (t * np.log(eps)), 0.0)
    return out if out.ndim else float(out)


def h_lin(t, eps: float):
    """Piecewise-linear cutoff profile; plateau 2 inside eps, support |t| < 2 eps."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.where(t <= eps, 2.0, np.where(t >= 2.0 * eps, 0.0, -(2.0 / eps) * t + 4.0))
    return out if out.ndim else float(out)


def h_lin_prime(t, eps: float):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.where((a > eps) & (a <= 2.0 * eps), -(2.0 / eps) * np.sign(t), 0.0)
    return out if out.ndim else float(out)


_PROFILES = {"log": (h_eps, h_eps_prime), "linear": (h_lin, h_lin_prime)}


def _inner_mask(cfg: Configuration, inner) -> np.ndarray:
    """Points inside the inner window: a Box in any dimension, or an
    interval (lo, hi) of 1-d points."""
    if isinstance(inner, Box):
        return inner.contains(cfg.points.reshape(cfg.count, cfg.dim))
    return (cfg.points >= inner[0]) & (cfg.points <= inner[1])


@dataclass
class CapacityEstimate:
    eps: float
    energy: float
    energy_se: float
    l2_term: float
    l2_se: float
    n_samples: int
    n_active: int
    variant: str = "log"
    degenerate: bool = False


def estimate_I_eps_from_samples(samples: list[Configuration], eps: float,
                                variant: str, inner_window) -> CapacityEstimate:
    """Mean energy density and mean g^2 over the samples, with std/sqrt(n) errors.
    Rows with equal inner counts m >= 2 are scored together, each bit for bit as alone."""
    if not samples:
        raise ValueError("empty sample batch")
    if variant not in _PROFILES:
        raise ValueError(f"unknown variant {variant!r}")
    _PROFILES[variant][0](0.0, eps)   # each profile checks its eps range
    # every point at once: configuration i's are counts[i] from inner[first[i]]
    pooled = Configuration(np.concatenate([cfg.points for cfg in samples]))
    mask = _inner_mask(pooled, inner_window)
    inner = pooled.points[mask]
    owner = np.repeat(np.arange(len(samples)), [cfg.count for cfg in samples])
    counts = np.bincount(owner[mask], minlength=len(samples))
    first = np.cumsum(counts) - counts
    e, g = np.zeros((2, len(samples)))
    for m in np.unique(counts[counts >= 2]):
        group = np.flatnonzero(counts == m)
        step = max(1, _BLOCK_ENTRIES // (m * m * pooled.dim))   # m * m * d per row
        for rows in (group[s:s + step] for s in range(0, group.size, step)):
            e[rows], g[rows] = _energy_and_g(inner[first[rows, None] + np.arange(m)],
                                             eps, variant)
    g2 = g * g
    n_active = int(np.count_nonzero(e > 0.0))
    if not n_active:
        log.warning("no active samples at eps=%g; degenerate interval", eps)
    return CapacityEstimate(eps, float(e.mean()), float(standard_error(e)),
                            float(g2.mean()), float(standard_error(g2)),
                            len(samples), n_active, variant, n_active == 0)


def _energy_and_g(pts: np.ndarray, eps: float, variant: str):
    """Energy densities and g values of the rows of pts, (G, m) or (G, m, d)."""
    h, hp = _PROFILES[variant]
    diag = (slice(None), *np.diag_indices(pts.shape[1]))
    if pts.ndim == 2:
        diff = pts[:, :, None] - pts[:, None, :]
        diff[diag] = np.inf
        kinks = (eps, 1.0) if variant == "log" else (eps, 2.0 * eps)
        if np.isin(np.abs(diff), kinks).any():
            log.debug("pair exactly at a profile kink; inner-side derivative used")
        g_value = np.sum(h(diff, eps), axis=(1, 2))
        grad = np.sum(hp(diff, eps), axis=2)
    else:
        diff = pts[:, :, None, :] - pts[:, None, :, :]
        dist = np.linalg.norm(diff, axis=3)
        dist[diag] = np.inf
        g_value = np.sum(h(dist, eps), axis=(1, 2))
        radial = hp(dist, eps) / np.where(np.isfinite(dist), dist, np.inf)
        grad = np.einsum("gij,gijk->gik", radial, diff)
    return 0.5 * np.sum(grad * grad, axis=tuple(range(1, grad.ndim))), g_value


@dataclass
class DecayFit:
    C: float
    residual: float
    inconclusive: bool
    messages: list[str] = field(default_factory=list)


def _spans_two_decades(eps_series) -> bool:
    eps = np.asarray(list(eps_series), dtype=float)
    return eps.size >= 3 and eps.max() / eps.min() >= 100.0


def decay_fit(eps_series, estimates: list[CapacityEstimate]) -> DecayFit:
    """Least-squares fit of energy against 1/|log eps| through the origin.

    Returns the slope C and the relative residual ||y - C x|| / ||y||; the
    decay law is certified when the residual is below 0.2.  Energies that
    increase as eps shrinks beyond overlapping confidence intervals flag
    the fit as inconclusive.
    """
    eps_arr = np.asarray(list(eps_series), dtype=float)
    if not _spans_two_decades(eps_arr):
        raise ValueError("need at least 3 eps values spanning two decades")
    order = np.argsort(eps_arr)[::-1]
    eps_arr = eps_arr[order]
    y = np.array([estimates[i].energy for i in order])
    se = np.array([estimates[i].energy_se for i in order])
    x = 1.0 / np.abs(np.log(eps_arr))
    C = float(np.sum(x * y) / np.sum(x * x))
    resid = float(np.linalg.norm(y - C * x) / max(np.linalg.norm(y), 1e-300))
    # decreasing eps should not increase the energy beyond noise
    up = np.flatnonzero(np.diff(y) > 2.0 * np.hypot(se[:-1], se[1:]))
    msgs = [f"energy increased from eps={eps_arr[i]:g} to {eps_arr[i + 1]:g}" for i in up]
    inconclusive = bool(up.size)
    if resid >= 0.2:
        msgs.append(f"relative residual {resid:.3f} does not certify the decay law")
    return DecayFit(C, resid, inconclusive, msgs)


def poisson_pair_count_oracle(intensity: float, inner: Box, eps: float) -> float:
    """Expected energy of the linear variant under a Poisson field, from
    pair counting alone: E[# unordered active pairs] * (2/eps)^2 * 2 * 1/2.

    The shell volume integral over the inner box (with boundary clipping)
    is done by plain Monte Carlo geometry, independent of the gradient
    machinery it cross-checks, from _ORACLE_MC_POINTS draws of a pinned stream.
    """
    gen = RngStream(_ORACLE_SEED, 0).generator()
    n_mc, d = _ORACLE_MC_POINTS, inner.dim
    lo, hi = inner.bounds[:, 0], inner.bounds[:, 1]
    x = gen.uniform(lo, hi, size=(n_mc, d))
    # uniform direction and radius in the active annulus (eps, 2 eps)
    u = gen.normal(size=(n_mc, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    r = (eps ** d + (2 ** d - 1) * eps ** d * gen.random(n_mc)) ** (1.0 / d)
    y = x + u * r[:, None]
    p_in = np.mean(np.all((y >= lo) & (y <= hi), axis=1))
    shell_vol = pi ** (d / 2) / gamma(d / 2 + 1) * ((2 * eps) ** d - eps ** d)
    expected_pairs = 0.5 * intensity ** 2 * inner.volume * shell_vol * p_in
    # an isolated active pair contributes 1/2 * 2 * (2/eps)^2 to the energy
    return float(expected_pairs * 4.0 / eps ** 2)
