"""Independent oracles used only by the tests.

The Metropolis pair sampler targets the two-particle confinement ensemble
directly through its energy, with no matrix machinery, and certifies the
eigenvalue-based sampler's variance convention.

The single-path integrator is the step-by-step form of the adaptive
Euler-Maruyama scheme that dysonlab.integrate_ensemble runs in lockstep;
a one-path ensemble must reproduce it exactly.

The pair-series oracle evaluates the truncated window-density series
pair by pair and node pair by node pair, through the Schur complement of
each 2x2 z-pair block, with no contraction across nodes.  The bordered-
determinant oracle sums the full kernel determinants det K(x, z_i) and
det K(x, z_i, z_j) node by node, with no algebra at all, and the Sobol
oracle averages det K(x u y) over the series route's Sobol points the same
way, with no Schur complement and no conditioning test.

The resolvent oracle solves the Nystrom system of L = K + K (Id - K)^-1 K
directly from the kernel and the quadrature rule, with no eigenvectors.

The log-gas energy and the Holder envelope constants are closed-form
references that only tests read.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from dysonlab import RngStream, Trajectory
from dysonlab.errors import (IntegrationFailureError, KernelParameterError,
                             KernelValidityError, SingularConfigurationError)
from dysonlab.statistics import _QMC_SEED


def loggas_energy(points, lam: float) -> float:
    """Ordered-pair interaction energy plus confinement,
    sum_{i != j} -2 log|x_i - x_j| + lam sum_i x_i^2; +inf on a tie."""
    x = np.asarray(points, dtype=float)
    conf = lam * float(np.sum(x * x))
    if x.size < 2:
        return conf
    d = np.abs(x[:, None] - x[None, :])
    iu = np.triu_indices(x.size, 1)
    gaps = d[iu]
    if np.any(gaps == 0.0):
        return np.inf
    return conf - 4.0 * float(np.sum(np.log(gaps)))


def holder_envelope_check(kernel, alpha: float,
                          t_min: float = 1e-6, n_grid: int = 200) -> tuple[float, float]:
    """Empirical two-sided envelope constants for the radial factor.

    Returns (c1, c2) = min and max of (k(0) - k(t)) / t**alpha over a
    log-spaced grid t in [t_min, 1].  A c1 collapsing toward 0 (or a c2
    blowing up) as the grid refines signals a probed exponent that does
    not match the kernel's.
    """
    if kernel.radial is None:
        raise KernelParameterError("envelope check needs a product-family kernel")
    t = np.geomspace(t_min, 1.0, n_grid)
    ratio = (kernel.radial(0.0) - kernel.radial(t)) / t ** alpha
    c1, c2 = float(ratio.min()), float(ratio.max())
    if not (np.isfinite(c1) and np.isfinite(c2)):
        raise KernelValidityError("envelope ratio is not finite; wrong exponent")
    return c1, c2


def pair_log_density(x1, x2, lam):
    """log of the unnormalized beta=2 pair density; vectorized."""
    gap = np.abs(x2 - x1)
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(gap) - lam * (x1 * x1 + x2 * x2)


def metropolis_pair_sample(lam, n_samples, seed, n_chains=100, burn=3000,
                           thin=60, step=0.6):
    """Random-walk Metropolis draws of the two-particle ensemble.

    Returns an (n_samples, 2) array of sorted pairs.
    """
    gen = RngStream(seed, 0).generator()
    x = gen.normal(0.0, 1.0 / np.sqrt(2 * lam), size=(n_chains, 2))
    logp = pair_log_density(x[:, 0], x[:, 1], lam)
    kept = []
    need = int(np.ceil(n_samples / n_chains))
    iters = burn + thin * need
    for it in range(iters):
        prop = x + step * gen.normal(size=x.shape)
        logq = pair_log_density(prop[:, 0], prop[:, 1], lam)
        accept = np.log(gen.random(n_chains)) < (logq - logp)
        x[accept] = prop[accept]
        logp[accept] = logq[accept]
        if it >= burn and (it - burn) % thin == thin - 1:
            kept.append(np.sort(x, axis=1).copy())
    return np.concatenate(kept, axis=0)[:n_samples]


def check_density_matches_energy(lam, rng_seed=5, n=25, tol=1e-10):
    """The oracle's log target must equal -1/2 loggas_energy(x, 2 lam)."""
    gen = RngStream(rng_seed, 0).generator()
    worst = 0.0
    for _ in range(n):
        x = np.sort(gen.normal(0, 1, 2))
        a = pair_log_density(x[0], x[1], lam)
        b = -0.5 * loggas_energy(x, 2 * lam)
        worst = max(worst, abs(a - b))
    return worst < tol


def series_sigma2_grid_oracle(kernel, window, x1, x2, n_quad=48):
    """rho_2 - int det3 + 1/2 int int det4 at each pair (x1[i], x2[i]).

    Every 4x4 determinant is det C * det(A - B C^-1 B^T) with A the pair
    block and C the z-pair block, summed over the n_quad^2 node pairs of
    a Gauss-Legendre rule on the window.
    """
    a, b = window
    z0, w0 = leggauss(n_quad)
    z = 0.5 * (b - a) * z0 + 0.5 * (b + a)
    w = 0.5 * (b - a) * w0

    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    m = x1.size
    k11 = kernel.eval(x1, x1)
    k22 = kernel.eval(x2, x2)
    k12 = kernel.eval(x1, x2)
    rho2 = k11 * k22 - k12 * k12

    k1z = kernel.eval(x1[:, None], z[None, :])
    k2z = kernel.eval(x2[:, None], z[None, :])
    kzz = kernel.eval(z, z)
    det3 = (k11[:, None] * (k22[:, None] * kzz[None, :] - k2z ** 2)
            - k12[:, None] * (k12[:, None] * kzz[None, :] - k2z * k1z)
            + k1z * (k12[:, None] * k2z - k22[:, None] * k1z))
    int3 = det3 @ w

    z1, z2 = np.meshgrid(z, z, indexing="ij")
    zp1, zp2 = z1.ravel(), z2.ravel()
    ww = (w[:, None] * w[None, :]).ravel()
    c11 = kernel.eval(zp1, zp1)
    c22 = kernel.eval(zp2, zp2)
    c12 = kernel.eval(zp1, zp2)
    det_c = c11 * c22 - c12 * c12
    safe = np.where(det_c > 1e-14, det_c, np.inf)
    i11, i22, i12 = c22 / safe, c11 / safe, -c12 / safe
    int4 = np.empty(m)
    chunk = max(1, (1 << 21) // max(zp1.size, 1))
    for s in range(0, m, chunk):
        e = min(s + chunk, m)
        b1 = kernel.eval(x1[s:e, None], zp1[None, :])
        b2 = kernel.eval(x1[s:e, None], zp2[None, :])
        d1 = kernel.eval(x2[s:e, None], zp1[None, :])
        d2 = kernel.eval(x2[s:e, None], zp2[None, :])
        q11 = b1 * (i11 * b1 + i12 * b2) + b2 * (i12 * b1 + i22 * b2)
        q22 = d1 * (i11 * d1 + i12 * d2) + d2 * (i12 * d1 + i22 * d2)
        q12 = b1 * (i11 * d1 + i12 * d2) + b2 * (i12 * d1 + i22 * d2)
        s11 = k11[s:e, None] - q11
        s22 = k22[s:e, None] - q22
        s12 = k12[s:e, None] - q12
        int4[s:e] = ((s11 * s22 - s12 * s12) * det_c) @ ww
    return rho2 - int3 + 0.5 * int4


def bordered_det_oracle(kernel, x, z, w):
    """(sum_i w_i det K(x, z_i), sum_ij w_i w_j det K(x, z_i, z_j)) for one
    tuple x, each determinant taken directly on the bordered point set."""
    x = np.asarray(x, dtype=float)

    def det(pts):
        pts = np.asarray(pts, dtype=float)
        return np.linalg.det(kernel.eval(pts[:, None], pts[None, :]))
    int1 = sum(wi * det(np.append(x, zi)) for zi, wi in zip(z, w))
    int2 = sum(wi * wj * det(np.append(x, [zi, zj]))
               for zi, wi in zip(z, w) for zj, wj in zip(z, w))
    return int1, int2


def sobol_points(k, window, n_points):
    """The scrambled Sobol points of the series route's order-k integral."""
    a, b = window
    return a + (b - a) * qmc.Sobol(d=k, scramble=True, seed=_QMC_SEED + k).random(n_points)


def sobol_det_oracle(kernel, x, y, volume):
    """volume times the mean over the rows y_j of y of det K(x u y_j), each
    determinant taken directly on the joined point set."""
    x = np.asarray(x, dtype=float)
    z = np.concatenate([np.broadcast_to(x, (y.shape[0], x.size)), y], axis=1)
    return volume * float(np.mean(np.linalg.det(kernel.eval(z[:, :, None], z[:, None, :]))))


def resolvent_l_oracle(kernel, z, w, x):
    """K(x, x') + k_x^T (I - G)^-1 k_x' on the rule (z, w), with
    G = W^1/2 K(z, z) W^1/2 and k_x = W^1/2 K(z, x), by one linear solve."""
    x = np.asarray(x, dtype=float)
    sw = np.sqrt(w)
    g = sw[:, None] * kernel.eval(z[:, None], z[None, :]) * sw[None, :]
    kx = sw[:, None] * kernel.eval(z[:, None], x[None, :])
    return kernel.eval(x[:, None], x[None, :]) + kx.T @ np.linalg.solve(np.eye(z.size) - g, kx)


def _min_gap(x):
    return float(np.min(np.diff(x))) if x.size >= 2 else np.inf


def integrate_sde_oracle(initial, drift_fn, T, delta, rng, dt_max=1e-3, c_dt=2e-3):
    """One adaptive Euler-Maruyama path of dX = drift(X) dt + dB from the
    sorted points ``initial``, stopped at T or at the first min gap <= delta.

    Each step draws dt = min(dt_max, c_dt g^2, T - t) and halves it, with a
    fresh normal draw, until the proposal keeps the ordering (at most 20
    halvings).  Returns a Trajectory of every accepted step.
    """
    x = np.asarray(initial, dtype=float).copy()
    if x.size >= 2 and np.min(np.diff(x)) <= 0.0:
        raise SingularConfigurationError("initial configuration must be strictly sorted")
    gen = rng.generator()
    t = 0.0
    times, states, gaps = [0.0], [x.copy()], [_min_gap(x)]
    hit = gaps[0] <= delta if delta > 0 else False
    hit_time = 0.0 if hit else None
    rejections = 0

    while t < T and not hit:
        g = _min_gap(x)
        dt = min(dt_max, T - t) if not np.isfinite(g) else min(dt_max, c_dt * g * g, T - t)
        drift = drift_fn(x)
        for _ in range(21):
            prop = x + drift * dt + np.sqrt(dt) * gen.normal(size=x.size)
            if x.size < 2 or np.min(np.diff(prop)) > 0.0:
                break
            dt *= 0.5
            rejections += 1
        else:
            raise IntegrationFailureError(
                f"step size underflow at t={t:.6g} with gap {_min_gap(x):.3e}")
        x = prop
        t += dt
        g_new = _min_gap(x)
        times.append(t)
        states.append(x.copy())
        gaps.append(g_new)
        if delta > 0 and g_new <= delta:
            hit, hit_time = True, t
    return Trajectory(np.array(times), np.array(states), np.array(gaps),
                      hit, hit_time, rejections)
