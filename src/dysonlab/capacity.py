"""Monte Carlo energy of near-collision cutoff statistics.

For a configuration theta and a pair cutoff profile h, the test statistic
is g(theta) = sum over ordered pairs (i, j), both points in an inner
window, of h(x_i - x_j).  Two profiles are shipped:

  log variant     h(t) = 2 on |t| <= eps, 2 log|t| / log eps on eps <= |t| <= 1,
                  0 beyond (eps < 1; even and continuous);
  linear variant  h(t) = 2 on |t| <= eps, -(2/eps)|t| + 4 on eps <= |t| <= 2 eps,
                  0 beyond.

The energy density of a configuration is half the squared gradient of g,
with the almost-everywhere derivative of h and one term per unordered
partner in the sum (a pair sitting exactly on a kink uses the inner-side
derivative).  Averaging the energy and g^2 over equilibrium samples gives
the capacity upper-bound functional energy + l2; it decays like
C / |log eps| as eps -> 0 when the two-point density vanishes linearly in
the gap, which decay_fit certifies by a through-the-origin fit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .sampler import Box, Configuration
from .rng import RngStream
from .statistics import _batch_se

log = logging.getLogger(__name__)

# the Poisson pair-count oracle's Monte Carlo sample, pinned for reruns
_ORACLE_MC_POINTS, _ORACLE_SEED = 200_000, 7


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
    on = (a > eps) & (a <= 1.0)   # at |t| = 1 keep the inner-side derivative
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 2.0 / (t * np.log(eps))
    out = np.where(on, val, 0.0)
    return out if out.ndim else float(out)


def h_lin(t, eps: float):
    """Piecewise-linear cutoff profile; plateau 2 inside eps, support |t| < 2 eps."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    t = np.abs(np.asarray(t, dtype=float))
    out = np.where(t <= eps, 2.0, np.where(t >= 2.0 * eps, 0.0, -(2.0 / eps) * t + 4.0))
    return out if out.ndim else float(out)


def h_lin_prime(t, eps: float):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    on = (a > eps) & (a <= 2.0 * eps)
    out = np.where(on, -(2.0 / eps) * np.sign(t), 0.0)
    return out if out.ndim else float(out)


_PROFILES = {"log": (h_eps, h_eps_prime), "linear": (h_lin, h_lin_prime)}


def _inner_mask(cfg: Configuration, inner) -> np.ndarray:
    """Points inside the inner window: a Box in any dimension, or an
    interval (lo, hi) of 1-d points."""
    if isinstance(inner, Box):
        return inner.contains(cfg.points.reshape(cfg.count, cfg.dim))
    return (cfg.points >= inner[0]) & (cfg.points <= inner[1])


def pair_energy(cfg: Configuration, eps: float, inner_window,
                variant: str = "log") -> tuple[float, float]:
    """(energy_density, g_value) for one configuration.

    g_value counts ordered pairs, one h term each; the gradient component
    of point i sums h'(x_i - x_j) over its partners (times the unit vector
    of the difference when d >= 2), and the energy density is
    half * sum_i |grad_i g|^2.  Both vanish when no pair is active.
    """
    if variant not in _PROFILES:
        raise ValueError(f"unknown variant {variant!r}")
    h, hp = _PROFILES[variant]
    mask = _inner_mask(cfg, inner_window)
    pts = cfg.points[mask]
    m = pts.shape[0]
    if m < 2:
        return 0.0, 0.0
    if cfg.dim == 1:
        diff = pts[:, None] - pts[None, :]
        np.fill_diagonal(diff, np.inf)
        kinks = (eps, 1.0) if variant == "log" else (eps, 2.0 * eps)
        if np.isin(np.abs(diff), kinks).any():
            log.debug("pair exactly at a profile kink; inner-side derivative used")
        g_value = float(np.sum(h(diff, eps)))
        grad = np.sum(hp(diff, eps), axis=1)
        energy = 0.5 * float(np.sum(grad * grad))
    else:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        g_value = float(np.sum(h(dist, eps)))
        radial = hp(dist, eps) / np.where(np.isfinite(dist), dist, np.inf)
        grad = np.einsum("ij,ijk->ik", radial, diff)
        energy = 0.5 * float(np.sum(grad * grad))
    return energy, g_value


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
    if not samples:
        raise ValueError("empty sample batch")
    e = np.empty(len(samples))
    g2 = np.empty(len(samples))
    for i, cfg in enumerate(samples):
        en, gv = pair_energy(cfg, eps, inner_window, variant)
        e[i] = en
        g2[i] = gv * gv
    n_active = int(np.count_nonzero(e > 0.0))
    degenerate = n_active == 0
    if degenerate:
        log.warning("no active samples at eps=%g; degenerate interval", eps)
    return CapacityEstimate(eps, float(e.mean()), float(_batch_se(e)),
                            float(g2.mean()), float(_batch_se(g2)),
                            len(samples), n_active, variant, degenerate)


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
    ests = [estimates[i] for i in order]
    y = np.array([c.energy for c in ests])
    se = np.array([c.energy_se for c in ests])
    x = 1.0 / np.abs(np.log(eps_arr))
    C = float(np.sum(x * y) / np.sum(x * x))
    resid = float(np.linalg.norm(y - C * x) / max(np.linalg.norm(y), 1e-300))
    msgs = []
    inconclusive = False
    for i in range(len(y) - 1):
        # decreasing eps should not increase the energy beyond noise
        if y[i + 1] - y[i] > 2.0 * np.hypot(se[i], se[i + 1]):
            inconclusive = True
            msgs.append(f"energy increased from eps={eps_arr[i]:g} to {eps_arr[i + 1]:g}")
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
    shell_vol = _ball_volume(d) * ((2 * eps) ** d - eps ** d)
    expected_pairs = 0.5 * intensity ** 2 * inner.volume * shell_vol * p_in
    # an isolated active pair contributes 1/2 * 2 * (2/eps)^2 to the energy
    return float(expected_pairs * 4.0 / eps ** 2)


def _ball_volume(d: int) -> float:
    from math import gamma, pi
    return pi ** (d / 2) / gamma(d / 2 + 1)
