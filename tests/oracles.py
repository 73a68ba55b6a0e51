"""Independent oracles used only by the tests.

The Metropolis pair sampler targets the two-particle confinement ensemble
directly through its energy, with no matrix machinery, and certifies the
eigenvalue-based sampler's variance convention.

The single-path integrator is the step-by-step form of the adaptive
Euler-Maruyama scheme that dysonlab.integrate_ensemble runs in lockstep;
a one-path ensemble must reproduce it exactly.  The ensemble oracle is the
lockstep engine in its plain form for one job, which re-gathers the
active set from the full state and recomputes every gap on every
iteration.  One pair drift oracle interpolates the drift table's two
gradients one at a time; the other is the drift's stacked form, which
builds its coordinates and components row-major with np.stack and
halves the full gradients at the end.  dysonlab's engine and PairDriftTable.drift must
match them bit for bit.

The pair-series oracle evaluates the truncated window-density series
pair by pair and node pair by node pair, through the Schur complement of
each 2x2 z-pair block, with no contraction across nodes.  The bordered-
determinant oracle sums the full kernel determinants det K(x, z_i) and
det K(x, z_i, z_j) node by node, with no algebra at all, and the Sobol
oracle averages det K(x u y) over the series route's Sobol points the same
way, with no Schur complement and no conditioning test.

The whole-vector Sobol oracle is the series route's k >= 3 pass with
each tuple's full integrand vector stored and summed by numpy at the end;
_sobol_integrals, which keeps one sum per slice, must match it bit for bit.
The product-kernel oracle is the kernel's formula with a fresh array per
step; the evaluator, which works in one buffer, must match it bit for bit.

The Gauss-Legendre oracle refines each node of a float rule to the exact
root at 40 digits with mpmath, and gives the exact weight there.

The resolvent oracle solves the Nystrom system of L = K + K (Id - K)^-1 K
directly from the kernel and the quadrature rule, with no eigenvectors;
l_matrix and the log det L behind PairDriftTable are checked against it.

The DPP draw oracle is the two-stage spectral sampler one draw at a
time: each stream places its points alone, with scalar inverse-CDF steps,
one eigenfunction_values call per placed point and one projection at a
time.  DppSampler, which places a block of streams in lockstep, must
match it bit for bit, rare paths and errors included.
The conditioned-pair oracle selects each stream's pair of the two-point
sector with scalar prefix-sum loops and places it through the same lone
draw.

The bin-count oracle counts each sample's points in each bin with a
Python loop.

The log-gas energy and the Holder envelope constants are closed-form
references that only tests read.  The one-piece log-gas drift builds the
pair differences of a whole stack at once; dyson_drift, which builds them
a block of rows at a time, must match it bit for bit.

The gap oracles of criteria 4 and 5 check the collision probes from the
side:
- fit_gap_exponent fits the slope of log sigma_2(0, t) against log t on
  the series route truncated after k = 2 (palm_integrals);
- gap_dimension_fit is a fixed-step gap integrator that reads the
  effective radial dimension off the growth of E[g_t^2];
- bessel_gap_hit_fraction runs the gap-scale Bessel process through
  dysonlab.integrate_ensemble, absorbed at delta.
first_passage_probability is that process's exact hit probability in
dimensions 1 and 3, the reference the engine's hit fractions are checked
against.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from dysonlab import (Configuration, EnsembleRun, RngStream, integrate_ensemble, sampler)
from dysonlab.dynamics import _MAX_HALVINGS, _probe_row
from dysonlab.errors import (DegenerateProjectionError, IntegrationFailureError,
                             KernelParameterError, KernelValidityError, SamplingError,
                             SingularConfigurationError)
from dysonlab.spectral import _PROJECTION_EPS, RETAIN_CUTOFF, eigenfunction_values
from dysonlab.statistics import (_QMC_SEED, _det_small, _ldl_blocks, _schur_point_last,
                                 _sobol_slices, palm_integrals)


def bin_counts_oracle(samples, bins) -> np.ndarray:
    """counts[s, b] of points of sample s in [lo, hi), one sample and one
    bin at a time."""
    out = np.zeros((len(samples), len(bins)))
    for s, cfg in enumerate(samples):
        for b, (lo, hi) in enumerate(bins):
            out[s, b] = sum(1 for x in cfg.points if lo <= x < hi)
    return out


def dpp_place_oracle(table, density, gen):
    """One point from the 1-d density on the table's grid: the trapezoid
    CDF inverted by searchsorted, then the in-cell quadratic."""
    seg = 0.5 * (density[:-1] + density[1:]) * table.dx
    total = seg.sum()
    if total <= 0.0:
        raise SamplingError("projected density vanished on the whole window")
    cdf = np.cumsum(seg)
    u = gen.random() * total
    s = int(np.searchsorted(cdf, u))
    s = min(s, seg.size - 1)
    target = u - (cdf[s - 1] if s > 0 else 0.0)
    d0, d1 = density[s], density[s + 1]
    aq = 0.5 * (d1 - d0)
    c = target / table.dx
    if abs(aq) < 1e-14 * max(d0, 1e-300):
        xi = c / d0 if d0 > 0 else gen.random()
    else:
        disc = max(d0 * d0 + 4.0 * aq * c, 0.0)
        xi = (-d0 + np.sqrt(disc)) / (2.0 * aq)
    xi = min(max(xi, 0.0), 1.0)
    return table.grid[s] + xi * table.dx


def bernoulli_oracle(table, gen) -> np.ndarray:
    """The eigenfunctions one draw retains: one uniform per eigenvalue."""
    u = gen.random(table.lam.size)
    return np.flatnonzero((u < table.lam) & (table.lam > RETAIN_CUTOFF))


def dpp_sample_oracle(table, rng, select=bernoulli_oracle) -> Configuration:
    """One draw on stream rng from a DppSampler's tables, placed alone after
    ``select(table, gen)`` picks the retained eigenfunctions; the retry
    limit and zero-density threshold are read from dysonlab.sampler at each
    call, so a test that patches them patches both samplers."""
    gen = rng.generator()
    retained = select(table, gen)
    k = retained.size
    if k == 0:
        return Configuration(np.empty(0))

    cols = np.searchsorted(table.kept, retained)
    frame = table.ext[:, cols]                      # (m, k) retained eigenfunctions
    density = np.maximum(np.sum(frame * frame, axis=1), 0.0)
    basis: list[np.ndarray] = []
    pts = np.empty(k)
    for j in range(k):
        for attempt in range(sampler._MAX_POINT_RETRIES + 1):
            x = dpp_place_oracle(table, density, gen)
            v = eigenfunction_values(table.decomp, x)[0][0, cols]
            for e in basis:
                v = v - np.dot(e, v) * e
            norm2 = float(np.dot(v, v))
            if norm2 >= sampler._ZERO_DENSITY:
                break
        else:
            raise SamplingError("projection step kept producing zero density")
        e_new = v / np.sqrt(norm2)
        basis.append(e_new)
        pts[j] = x
        density = np.maximum(density - (frame @ e_new) ** 2, 0.0)

    pts.sort()
    if k >= 2 and np.min(np.diff(pts)) <= 0.0:
        # ties have probability zero; redraw the whole configuration
        sampler.log.warning("tie in sampled configuration, resampling")
        return dpp_sample_oracle(table, rng.child(1), select)
    return Configuration(pts)


def dpp_batch_oracle(table, seed, n_samples, base_stream=0) -> list[Configuration]:
    """n_samples lone draws on streams base_stream + i."""
    return [dpp_sample_oracle(table, RngStream(seed, base_stream + i))
            for i in range(n_samples)]


def pair_sector_oracle(table, gen) -> np.ndarray:
    """The pair i < j of the two-point sector that one draw retains: j with
    weight w_j (w_0 + ... + w_{j-1}), then i < j with weight w_i, over the
    kept eigenfunctions, w = lambda / (1 - lambda), by scalar loops."""
    lam = table.lam[table.kept]
    w = lam / (1.0 - lam)
    below, upper = [w[0]], []
    for j in range(1, w.size):
        upper.append((upper[-1] if upper else 0.0) + w[j] * below[-1])
        below.append(below[-1] + w[j])
    u_upper, u_below = gen.random(2)
    j = 1 + min(sum(c <= u_upper * upper[-1] for c in upper), w.size - 2)
    i = min(sum(c <= u_below * below[j - 1] for c in below), j - 1)
    return table.kept[[i, j]]


def conditioned_pair_initials_oracle(table, n_paths, rng) -> np.ndarray:
    """The two-point sector's draws on streams rng.stream_id + i, one lone
    draw at a time."""
    lam = table.lam[table.kept]
    if lam.size and lam.max() >= 1.0 - _PROJECTION_EPS:
        raise DegenerateProjectionError("an eigenvalue is numerically 1")
    if lam.size < 2:
        raise SamplingError("fewer than two kept eigenfunctions")
    return np.array([dpp_sample_oracle(table, RngStream(rng.seed, rng.stream_id + i),
                                       pair_sector_oracle).points
                     for i in range(n_paths)]).reshape(n_paths, 2)


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


def dyson_drift_one_piece(points, lam: float) -> np.ndarray:
    """The log-gas drift of a stack (..., n) from one (..., n, n) array of
    pair differences."""
    x = np.asarray(points, dtype=float)
    n = x.shape[-1]
    d = x[..., :, None] - x[..., None, :]
    d[..., np.arange(n), np.arange(n)] = np.inf
    return np.sum(1.0 / d, axis=-1) - lam * x


def holder_envelope_check(kernel, alpha: float,
                          t_min: float = 1e-6, n_grid: int = 200) -> tuple[float, float]:
    """Empirical two-sided envelope constants for the radial factor.

    Returns (c1, c2) = min and max of (k(0) - k(t)) / t**alpha over a
    log-spaced grid t in [t_min, 1], with k(t) = K(0, t) / (m(0) m(t)) read
    off the product kernel m(x) k(x - y) m(y), m(x) = exp(-(x/scale)^2).
    A c1 collapsing toward 0 (or a c2 blowing up) as the grid refines
    signals a probed exponent that does not match the kernel's.
    """
    if kernel.family != "product":
        raise KernelParameterError("envelope check needs a product-family kernel")

    def radial(t):
        return kernel.eval(0.0, t) * np.exp((t / kernel.params["scale"]) ** 2)
    t = np.geomspace(t_min, 1.0, n_grid)
    ratio = (radial(0.0) - radial(t)) / t ** alpha
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


def sobol_integrals_oracle(ev, tuples, k):
    """SeriesEvaluator._sobol_integrals with every tuple's whole integrand
    vector kept, weighted and summed at once, and its error from the sum of
    the vector's first half."""
    a, b = ev.window
    n_y = ev.qmc_points
    vals = [np.empty(n_y) for _ in tuples]
    start = 0
    for u in _sobol_slices(k, _QMC_SEED + k, n_y):
        y = a + (b - a) * u
        yt = np.ascontiguousarray(y.T)
        det_c, ill, f = _ldl_blocks(ev.kernel, yt)
        for x, v in zip(tuples, vals):
            out = v[start:start + y.shape[0]]
            if x.size == 0:
                out[:] = det_c
            else:
                r = ev.kernel.eval(yt[:, None, :], x[None, :, None])
                out[:] = det_c * _det_small(_schur_point_last(
                    ev.kernel.eval(x[:, None], x[None, :]), r, f))
            if ill.any():
                z = np.concatenate([np.broadcast_to(x, (int(ill.sum()), x.size)), y[ill]],
                                   axis=1)
                out[ill] = np.linalg.det(ev.kernel.eval(z[:, :, None], z[:, None, :]))
        start += y.shape[0]
    w = ev.length ** k / n_y
    integs = [v * w for v in vals]
    totals = np.array([integ.sum() for integ in integs])
    halves = np.array([integ[:n_y // 2].sum() for integ in integs])
    return totals, np.abs(totals - 2.0 * halves)


def product_kernel_oracle(alpha, scale, x, y):
    """The product kernel m(x) k(x - y) m(y) with a fresh array per step."""
    def envelope(x):
        return np.exp(-((np.asarray(x, dtype=float) / scale) ** 2))

    def radial(t):
        return np.exp(-np.abs(np.asarray(t, dtype=float)) ** alpha)
    return envelope(x) * radial(x - y) * envelope(y)


def gauss_legendre_mp_oracle(n: int, nodes) -> tuple[list, list]:
    """(roots, weights) of P_n at 40 digits, one for each float node: one
    Newton step from a node within 1e-16 of its root leaves it within
    about 1e-26, and P_n' is carried to the new point by P_n'' from
    Legendre's equation, (1 - x^2) P'' = 2 x P' - n (n + 1) P."""
    import mpmath
    roots, weights = [], []
    with mpmath.workdps(40):
        for node in nodes:
            x = mpmath.mpf(float(node))
            p0, p1 = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (p0 - x * p1) / (1 - x * x)
            d2p = (2 * x * dp - n * (n + 1) * p1) / (1 - x * x)
            root = x - p1 / dp
            dp += d2p * (root - x)
            roots.append(root)
            weights.append(2 / ((1 - root * root) * dp * dp))
    return roots, weights


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
    halvings); a step that no longer moves t raises too.  Returns the
    times, states and minimum gaps of the start and of every accepted step,
    the hit time (nan without a hit) and the rejected proposals.
    """
    x = np.asarray(initial, dtype=float).copy()
    if x.size >= 2 and np.min(np.diff(x)) <= 0.0:
        raise SingularConfigurationError("initial configuration must be strictly sorted")
    gen = rng.generator()
    t = 0.0
    times, states, gaps = [0.0], [x.copy()], [_min_gap(x)]
    hit = gaps[0] <= delta if delta > 0 else False
    hit_time = 0.0 if hit else np.nan
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
        if t + dt == t:
            raise IntegrationFailureError(f"step {dt:.3e} no longer moves t={t:.6g}")
        x = prop
        t += dt
        g_new = _min_gap(x)
        times.append(t)
        states.append(x.copy())
        gaps.append(g_new)
        if delta > 0 and g_new <= delta:
            hit, hit_time = True, t
    return np.array(times), np.array(states), np.array(gaps), hit_time, rejections


def integrate_ensemble_oracle(initials, drift, T, delta, rng, dt_max=1e-3, c_dt=2e-3,
                              record=False) -> EnsembleRun:
    """integrate_ensemble with the active set gathered from X and every
    gap recomputed by np.diff on each iteration; it also counts the
    iterations and each path's steps."""
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
    steps = np.zeros(n_paths, dtype=int)
    iterations = 0
    if n >= 2 and delta > 0:
        hit |= np.diff(X, axis=1).min(axis=1) <= delta
        hit_time[hit] = 0.0
    frames = [(t.copy(), X.copy())] if record else None
    active = ~hit & (t < T)

    while active.any():
        idx = np.flatnonzero(active)
        iterations += 1
        steps[idx] += 1
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
            rejections[idx[bad]] += 1
            failed[idx[bad]] = True
            prop[bad] = Xa[bad]
            dt[bad] = 0.0
        X[idx] = prop
        t_before = t[idx]
        t[idx] = t_before + dt
        if n >= 2 and delta > 0:
            newly = np.diff(prop, axis=1).min(axis=1) <= delta
            hit[idx[newly]] = True
            hit_time[idx[newly]] = t[idx[newly]]
        # a step that no longer moves the time is a failure, unless it hit
        failed[idx[(t[idx] == t_before) & ~hit[idx]]] = True
        if record:
            frames.append((t.copy(), X.copy()))
        active = ~hit & ~failed & (t < T)
    return EnsembleRun(hit, failed, hit_time, X, rejections, steps, iterations, frames)


def pair_table_drift_oracle(table, X):
    """PairDriftTable.drift with each gradient table interpolated on its
    own (gap, sum) grid, the bilinear weights recomputed for each."""
    shape = (table.gs.size, table.ss.size)
    du_ds, du_dlng = (2.0 * table.half_grad).reshape(2, *shape)
    lng0 = np.log(table.gs[0])
    dlng = np.log(table.gs[1] / table.gs[0])
    ds = table.ss[1] - table.ss[0]

    def interp(tab, fi, fj):
        i = fi.astype(int)
        j = fj.astype(int)
        ti = fi - i
        tj = fj - j
        return (tab[i, j] * (1 - ti) * (1 - tj) + tab[i + 1, j] * ti * (1 - tj)
                + tab[i, j + 1] * (1 - ti) * tj + tab[i + 1, j + 1] * ti * tj)

    g = X[:, 1] - X[:, 0]
    if np.any(g <= 0.0):
        raise SingularConfigurationError("pairs must be strictly sorted")
    s = X[:, 0] + X[:, 1]
    fi = np.clip((np.log(np.maximum(g, 1e-12)) - lng0) / dlng, 0.0, table.gs.size - 1.001)
    fj = np.clip((s - table.ss[0]) / ds, 0.0, table.ss.size - 1.001)
    a = interp(du_ds, fi, fj)
    b = interp(du_dlng, fi, fj) / g
    return 0.5 * np.stack([a - b, a + b], axis=1)


def pair_drift_stack_oracle(table, X):
    """PairDriftTable.drift in its row-major stacked form: (m, 2) grid
    coordinates and drift components built by np.stack, the full gradients
    gathered as (m, 4, 2) at the four corners and halved at the end."""
    gs, ss = table.gs, table.ss
    grad = 2.0 * table.half_grad.T
    corners = np.array([0, ss.size, 1, ss.size + 1])
    origin = np.array([np.log(gs[0]), ss[0]])
    step = np.array([np.log(gs[1] / gs[0]), ss[1] - ss[0]])
    top = np.array([gs.size - 1.001, ss.size - 1.001])
    x1, x2 = X[:, 0], X[:, 1]
    g = x2 - x1
    if np.count_nonzero(g <= 0.0):
        raise SingularConfigurationError("pairs must be strictly sorted")
    f = np.stack([np.log(np.maximum(g, 1e-12)), x1 + x2], axis=1)
    f = np.minimum(np.maximum((f - origin) / step, 0.0), top)
    k = f.astype(int)
    t = f - k
    u = 1 - t
    ti, tj, ui, uj = t[:, :1], t[:, 1:], u[:, :1], u[:, 1:]
    c = grad.take(k[:, :1] * ss.size + k[:, 1:] + corners, axis=0)
    v = c[:, 0] * ui * uj + c[:, 1] * ti * uj + c[:, 2] * ui * tj + c[:, 3] * ti * tj
    a = v[:, 0]
    b = v[:, 1] / g
    return 0.5 * np.stack([a - b, a + b], axis=1)


def fit_gap_exponent(decomp) -> float:
    """Slope of log sigma_2(0, t) against log t over t in [1e-3, 1e-1].

    Uses the series route truncated after k = 2, in closed form on the
    decomposition's nodes: the pair density at separations below the
    quadrature node spacing is invisible to the eigenfunction expansion,
    while kernel determinants resolve every scale.
    """
    ts = np.geomspace(1e-3, 1e-1, 10)
    kzz = decomp.kernel.eval(decomp.nodes[:, None], decomp.nodes[None, :])
    rho, int1, int2 = palm_integrals(decomp.kernel, np.stack([np.zeros_like(ts), ts], axis=1),
                                     decomp.nodes, decomp.weights, kzz)
    vals = rho - int1 + 0.5 * int2
    if np.any(vals <= 0):
        raise ValueError("pair density not positive over the fit range")
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


def gap_dimension_fit(drift_batch, g0: float, rng, n_paths: int = 8000,
                      t_max: float = 8e-4, n_steps: int = 20) -> float:
    """Effective radial dimension of a two-particle gap process.

    Starting all pairs at (-g0/2, g0/2), E[g_t^2] = g0^2 + 2 d t for small t
    when the gap diffuses like a dimension-d radial process with the pair's
    sqrt(2) volatility; the fitted slope over [0, t_max] divided by 2
    estimates d.  Per-step drift displacements are capped at a fraction of
    the current gap so the rare near-zero excursions cannot blow up the
    fixed-step mean (crossing proposals are reflected).
    """
    gen = rng.generator()
    X = np.tile([-g0 / 2, g0 / 2], (n_paths, 1))
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


def bessel_gap_hit_fraction(dim: float, g0s, delta: float, T: float, rng) -> dict:
    """The gap-scale radial process dg = sqrt(2) dW + ((dim-1)/g) dt from
    the gaps g0s, integrated with the probes' step rule, absorbed at delta."""
    g0s = np.asarray(g0s, dtype=float)
    X = np.stack([-g0s / 2, g0s / 2], axis=1)

    def drift(Xa):
        g = Xa[:, 1] - Xa[:, 0]
        b = 0.5 * (dim - 1.0) / g
        return np.stack([-b, b], axis=1)

    [run] = integrate_ensemble([(X, delta, rng)], drift, T)
    return _probe_row(run, delta, T, {"model": "bessel", "dim": dim})


def first_passage_probability(dim: int, g0: float, delta: float, T: float) -> float:
    """P(tau_delta <= T) for the gap process of bessel_gap_hit_fraction from
    g0 > delta: erfc((g0 - delta) / (2 sqrt T)) in dimension 1, Brownian
    motion of variance 2t by reflection, and (delta / g0) times that in
    dimension 3, Brownian motion h-transformed by h(g) = g (Borodin &
    Salminen 2002)."""
    brownian = math.erfc((g0 - delta) / (2.0 * math.sqrt(T)))
    return {1: brownian, 3: delta / g0 * brownian}[dim]
