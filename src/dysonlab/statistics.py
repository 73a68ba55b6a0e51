"""Correlation and density functions, exactly and from samples.

Two independent routes compute the same window densities:

* the spectral route, sigma_fredholm: det(Id - K) times the determinant of
  the resolvent kernel L = K + K (Id - K)^-1 K, taken from the stored
  eigenpairs with K(x, x') itself (spectral.l_matrix);
* the series route, SeriesEvaluator: the alternating expansion

      sigma_n(x) = sum_k (-1)^k / k! * int_{I^k} rho_{n+k}(x, y) dy,

  with rho computed as plain kernel determinants.  The k = 1, 2 integrals
  are closed forms over the decomposition's Gauss nodes (palm_integrals,
  also behind fit_gap_exponent and dynamics.PairDriftTable).  Each k >= 3
  integral is one streamed pass over scrambled Sobol points that serves
  every tuple at once, so no independent cubature is built and no Sobol
  block is stored.

The reported truncation_bound is a full error budget for the comparison:

  remainder   min of a Hadamard-type tail (|I|^k (n+k)^((n+k)/2) M^(n+k) / k!)
              and the symmetric-function tail rho_n(x) * sum_{k>k_max} e_k(lambda),
              valid since rho_{n+k}(x,y) <= rho_n(x) rho_k(y) for PSD kernels
              and (1/k!) int rho_k equals the elementary symmetric sum e_k;
  qmc         half-sample differences of the Sobol integrals;
  resolution  2 * |sigma_fred(n) - sigma_fred(n/4)|, its largest value over
              the tuples of the same order: a Richardson-style estimate of
              the spectral route's node-count error, which for kernels with
              a diagonal cusp of exponent a decays only like n_nodes^-a.

Cross-checks assert |series - fredholm| <= max(1e-6, 3 * truncation_bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lgamma

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from .sampler import Box, Configuration
from .spectral import (SpectralDecomposition, fredholm_det, l_matrix,
                       nystrom_decompose)

_QMC_SEED = 202406           # pinned: reruns must be byte-identical
_CHUNK = 1 << 17             # Sobol points per kernel-evaluation chunk
# Resolution error from the node-count-vs-quarter difference: for an
# O(n^-a) route the unknown error E satisfies diff = E (4^a - 1), so
# 2 * diff covers every a >= 1/2.  Against a rule with four times the
# nodes (product kernel, alpha = 1/2, 1,024 nodes, 99 tuples of orders 1
# and 2) the error is at most 0.34 of a tuple's own 2 * diff and 0.22 of
# the per-order envelope that crosscheck_density reports.
_RESOLUTION_FACTOR = 2.0


def rho_det(kernel, points) -> float:
    """n-point correlation: determinant of the kernel Gram matrix."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return 1.0
    mat = kernel.eval(pts[:, None], pts[None, :])
    return float(np.linalg.det(mat))


def rho_det_box_mean(kernel, box) -> float:
    """Mean of rho_n over a box, one (lo, hi) interval per coordinate, by a
    tensor Gauss-Legendre rule with 16 nodes per coordinate; this is what a
    binned correlation estimate converges to."""
    t, w = leggauss(16)
    axes = [0.5 * (hi - lo) * t + 0.5 * (hi + lo) for lo, hi in box]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    ww = np.prod([g.ravel() for g in np.meshgrid(*[0.5 * w] * len(box),
                                                 indexing="ij")], axis=0)
    return float(_det_small(kernel.eval(pts[:, :, None], pts[:, None, :])) @ ww)


def _det_small(m: np.ndarray) -> np.ndarray:
    """Batched determinants, closed forms through 3x3."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2])
    if k == 1:
        return m[..., 0, 0]
    if k == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if k == 3:
        return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
                - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
                + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))
    return np.linalg.det(m)


def _minors(a: np.ndarray, r: int, complement: bool = False) -> np.ndarray:
    """Batched matrix of the r x r minors det a[I, J] over r-subsets I, J in
    lexicographic order; with complement, of (-1)^(sum I + sum J) det a[I^c, J^c]
    instead: the cofactor matrix for r = 1, the transposed second adjugate
    for r = 2."""
    n = a.shape[-1]
    subsets = list(combinations(range(n), r))
    keep = (lambda s: [i for i in range(n) if i not in s]) if complement else list
    out = np.empty(a.shape[:-2] + (len(subsets), len(subsets)))
    for p, rows in enumerate(subsets):
        for q, cols in enumerate(subsets):
            sign = -1.0 if complement and (sum(rows) + sum(cols)) % 2 else 1.0
            out[..., p, q] = sign * _det_small(a[..., keep(rows), :][..., :, keep(cols)])
    return out


def palm_integrals(kernel, x, z, w, kzz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho_n(x), int rho_{n+1}(x, y) dy and int int rho_{n+2}(x, y, y') dy dy'
    for a batch x of shape (m, n), over the rule (z, w) with kzz = K(z, z).

    The integrands are A = K(x, x) bordered by the rule's points (the
    Palm-kernel identity rho_{n+k}(x, y) = rho_n(x) det K^x(y_i, y_j)).
    Expanding along the border and summing over the rule gives, with
    B = K(x, z), W = diag(w), t = sum w K(z, z), q = w^T (kzz o kzz) w,
    G = B W B^T and H = B W kzz W B^T,

        int rho_{n+1}     = det A t - tr(adj A G)
        int int rho_{n+2} = det A (t^2 - q) - 2 t tr(adj A G)
                            + 2 tr(adj A H) + 2 tr(adj_2 A C_2(G))

    with adj_2 the second adjugate and C_2 the 2x2 minors; the last term is
    det G for n = 2 and 0 for n <= 1.  Nothing is divided, so a tuple with
    a repeated point needs no special case.  The cost is O(m n len(z)^2).
    """
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    a = kernel.eval(x[:, :, None], x[:, None, :])
    b = kernel.eval(x[:, :, None], z[None, None, :])
    bw = b * w
    bwk = (bw.reshape(m * n, kzz.shape[0]) @ kzz).reshape(bw.shape)
    g = np.einsum("mik,mjk->mij", bw, b)
    h = np.einsum("mik,mjk->mij", bwk, bw)
    t = w @ np.diag(kzz)
    q = w @ (kzz * kzz) @ w

    det_a = _det_small(a)
    cof = _minors(a, 1, complement=True)
    tr_g = np.einsum("mij,mij->m", cof, g)
    tr_h = np.einsum("mij,mij->m", cof, h)
    tr_2 = np.einsum("mij,mij->m", _minors(a, 2, complement=True), _minors(g, 2))
    int1 = det_a * t - tr_g
    int2 = det_a * (t * t - q) - 2.0 * t * tr_g + 2.0 * tr_h + 2.0 * tr_2
    return det_a, int1, int2


# ---------------------------------------------------------------------------
# correlation estimation from sample batches
# ---------------------------------------------------------------------------

@dataclass
class CorrelationEstimate:
    order: int
    bins: list
    pairs: list | None
    values: np.ndarray
    std_errors: np.ndarray
    n_samples: int


def _bin_counts(samples: list[Configuration], bins) -> np.ndarray:
    """counts[s, b] of points of sample s inside bin b."""
    out = np.zeros((len(samples), len(bins)))
    boxes = [b if isinstance(b, Box) else None for b in bins]
    for s, cfg in enumerate(samples):
        if cfg.count == 0:
            continue
        for bidx, b in enumerate(bins):
            if boxes[bidx] is not None:
                out[s, bidx] = np.count_nonzero(boxes[bidx].contains(cfg.points))
            else:
                lo, hi = b
                out[s, bidx] = np.count_nonzero((cfg.points >= lo) & (cfg.points < hi))
    return out


def _bin_volume(b) -> float:
    return b.volume if isinstance(b, Box) else float(b[1] - b[0])


def _batch_se(per_sample: np.ndarray, n_batches: int = 10) -> np.ndarray:
    """Standard error of the mean from consecutive batch means."""
    n = per_sample.shape[0]
    n_batches = min(n_batches, n)
    edges = np.linspace(0, n, n_batches + 1).astype(int)
    means = np.stack([per_sample[a:b].mean(axis=0) for a, b in zip(edges[:-1], edges[1:])])
    return means.std(axis=0, ddof=1) / np.sqrt(n_batches)


def estimate_correlation(samples: list[Configuration], order: int, bins,
                         pairs: list[tuple[int, int]] | None = None) -> CorrelationEstimate:
    """Empirical correlation function over a bin grid.

    order 1: per-bin mean count / bin volume.
    order 2: per bin pair (i, j), the factorial-moment estimator
    E[N_i N_j] / (vol_i vol_j) for i != j and E[N_i (N_i - 1)] / vol_i^2 on
    the diagonal; ``pairs`` defaults to all ordered pairs including the
    diagonal.  Standard errors come from 10 consecutive sub-batches.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are estimable from counts")
    if not samples:
        raise ValueError("empty sample batch")
    counts = _bin_counts(samples, bins)
    vols = np.array([_bin_volume(b) for b in bins])
    if order == 1:
        per_sample = counts / vols
        return CorrelationEstimate(1, list(bins), None, per_sample.mean(axis=0),
                                   _batch_se(per_sample), len(samples))
    if pairs is None:
        pairs = [(i, j) for i in range(len(bins)) for j in range(len(bins))]
    cols = []
    for (i, j) in pairs:
        if i == j:
            cols.append(counts[:, i] * (counts[:, i] - 1) / vols[i] ** 2)
        else:
            cols.append(counts[:, i] * counts[:, j] / (vols[i] * vols[j]))
    per_sample = np.stack(cols, axis=1)
    return CorrelationEstimate(2, list(bins), list(pairs), per_sample.mean(axis=0),
                               _batch_se(per_sample), len(samples))


# ---------------------------------------------------------------------------
# spectral-route densities
# ---------------------------------------------------------------------------

def sigma_fredholm(decomp: SpectralDecomposition, points) -> float:
    """det(Id - K) * det L(x_i, x_j); the empty tuple gives the void probability."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    det = fredholm_det(decomp)
    if pts.size == 0:
        return det
    return det * float(np.linalg.det(l_matrix(decomp, pts)))


# ---------------------------------------------------------------------------
# series-route densities
# ---------------------------------------------------------------------------

def _elementary_symmetric_tail(lam: np.ndarray, k_max: int, extra: int = 48) -> float:
    """sum_{k > k_max} e_k(lam), truncated where terms stop mattering."""
    top = k_max + extra
    e = np.zeros(top + 1)
    e[0] = 1.0
    for l in lam[lam > 0]:
        e[1:] = e[1:] + l * e[:-1]
    return float(e[k_max + 1:].sum())


def _hadamard_tail(n: int, k_max: int, m_sup: float, length: float) -> float:
    if m_sup <= 0:
        return 0.0
    total = 0.0
    for k in range(k_max + 1, 400):
        logt = (k * np.log(length) + 0.5 * (n + k) * np.log(n + k)
                + (n + k) * np.log(m_sup) - lgamma(k + 1))
        term = np.exp(min(logt, 700.0))
        total += term
        if k > 3 * (k_max + np.e * length * m_sup) and term < 1e-18 * max(total, 1.0):
            break
    return float(total)


class SeriesEvaluator:
    """Alternating-series terms for batches of point tuples on one
    decomposition.

    Terms k <= 2 are closed forms over the decomposition's Gauss nodes
    (palm_integrals), one call per tuple.  A term k >= 3 is one pass over
    the order-k scrambled Sobol points, _CHUNK at a time, shared by every
    tuple of the batch: per slice the blocks C = K(y, y), their
    determinants and an ill-conditioning mask are evaluated once, the
    well-conditioned blocks are inverted, and each tuple's integrand is
    det C det(A - B C^-1 B^T) with A = K(x, x) and B = K(x, y), or the
    bordered determinant det K(x u y) taken directly on the ill blocks, so
    no inverse of an ill block is ever used and none is regularized.  No
    block outlives its slice, so memory grows with qmc_points only through
    one integrand vector per tuple.
    """

    def __init__(self, decomp: SpectralDecomposition, k_max: int = 6,
                 qmc_points: int = 1 << 20):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        self.qmc_points = int(qmc_points)
        if self.qmc_points < 2 or self.qmc_points & (self.qmc_points - 1):
            raise ValueError("qmc_points must be a power of two >= 2, so that the "
                             "half-sample error compares two balanced Sobol nets")
        self.decomp = decomp
        self.kernel = decomp.kernel
        self.k_max = k_max
        a, b = decomp.window
        self.window = (a, b)
        self.length = b - a
        # K at the decomposition's node pairs, the one table of k = 1, 2
        self._kzz = self.kernel.eval(decomp.nodes[:, None], decomp.nodes[None, :])
        self.m_sup = float(np.max(np.abs(self._kzz)))

    def _sobol_integrals(self, tuples: list[np.ndarray], k: int):
        """int rho_{n+k}(x, y) dy over the window for each tuple x, with its
        half-sample error, from one streamed pass over the Sobol points."""
        a, b = self.window
        n_y = self.qmc_points
        sob = qmc.Sobol(d=k, scramble=True, seed=_QMC_SEED + k)
        a_mats = [self.kernel.eval(x[:, None], x[None, :]) for x in tuples]
        vals = [np.empty(n_y) for _ in tuples]
        for s in range(0, n_y, _CHUNK):
            y = a + (b - a) * sob.random(min(_CHUNK, n_y - s))
            c = self.kernel.eval(y[:, :, None], y[:, None, :])
            det_c = _det_small(c)
            diag_prod = np.prod(np.einsum("mkk->mk", c), axis=1)
            ill = det_c < 1e-12 * np.maximum(diag_prod, 1e-300)
            # an ill block's values come from the fallback below, so the
            # identity stands in for it; freeing C lowers the peak by a slice
            c[ill] = np.eye(k)
            c_inv = np.linalg.inv(c)
            del c
            y_ill = y[ill]
            for x, a_mat, v in zip(tuples, a_mats, vals):
                out = v[s:s + y.shape[0]]
                if x.size == 0:
                    out[:] = det_c
                    continue
                b_mat = self.kernel.eval(x[None, :, None], y[:, None, :])
                bc = np.einsum("mik,mkl->mil", b_mat, c_inv)
                schur = a_mat[None, :, :] - np.einsum("mik,mjk->mij", bc, b_mat)
                out[:] = det_c * _det_small(schur)
                if y_ill.size:
                    z = np.concatenate([np.broadcast_to(x, (y_ill.shape[0], x.size)), y_ill],
                                       axis=1)
                    out[ill] = np.linalg.det(self.kernel.eval(z[:, :, None], z[:, None, :]))
        w = self.length ** k / n_y
        totals, errs = np.empty(len(tuples)), np.empty(len(tuples))
        for i, v in enumerate(vals):
            integ = v * w
            totals[i] = integ.sum()
            errs[i] = abs(totals[i] - 2.0 * integ[:n_y // 2].sum())
        return totals, errs

    def term(self, points, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Signed series terms (-1)^k/k! int rho_{n+k} for a batch of point
        tuples of any orders, and their QMC errors (0 for k <= 2)."""
        tuples = [np.atleast_1d(np.asarray(x, dtype=float)) for x in points]
        if k == 0:
            return np.array([rho_det(self.kernel, x) for x in tuples]), np.zeros(len(tuples))
        if k >= 3:
            integ, err = self._sobol_integrals(tuples, k)
        else:
            # one call per tuple: batching moves the values in their last digit
            integ = np.array([palm_integrals(self.kernel, x[None, :], self.decomp.nodes,
                                             self.decomp.weights, self._kzz)[k][0]
                              for x in tuples])
            err = np.zeros(len(tuples))
        fac = 1.0 / np.exp(lgamma(k + 1))
        sign = -1.0 if k % 2 else 1.0
        return sign * fac * integ, fac * err

    def remainder_bound(self, points) -> float:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        n = pts.size
        fischer = (max(rho_det(self.kernel, pts), 0.0)
                   * _elementary_symmetric_tail(self.decomp.eigenvalues, self.k_max))
        hadamard = _hadamard_tail(n, self.k_max, self.m_sup, self.length)
        return min(fischer, hadamard)


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------

@dataclass
class DensityValue:
    """Both routes' values at one tuple plus the comparison error budget."""

    order: int
    points: tuple
    value_series: float
    value_fredholm: float
    truncation_k: int
    truncation_bound: float
    components: dict = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        return max(1e-6, 3.0 * self.truncation_bound)

    @property
    def consistent(self) -> bool:
        floor = -1e-8
        return (self.value_series >= floor and self.value_fredholm >= floor
                and abs(self.value_series - self.value_fredholm) <= self.tolerance)


def crosscheck_density(decomp: SpectralDecomposition, tuples,
                       k_max: int = 6, qmc_points: int = 1 << 20) -> list[DensityValue]:
    """Evaluate both routes at each tuple with a full error budget.

    ``tuples`` is an iterable of point tuples (the empty tuple asks for the
    void probability).  Each series order is one batched term over them all.
    """
    ev = SeriesEvaluator(decomp, k_max=k_max, qmc_points=qmc_points)
    coarse = nystrom_decompose(decomp.kernel, decomp.window,
                               max(8, decomp.n_nodes // 4))
    pts_list = [np.atleast_1d(np.asarray(t, dtype=float)) for t in tuples]

    terms, qmc_errs = np.zeros(len(pts_list)), np.zeros(len(pts_list))
    for k in range(k_max + 1):
        t, e = ev.term(pts_list, k)
        terms += t
        qmc_errs += e

    fred = [sigma_fredholm(decomp, pts) for pts in pts_list]
    diffs = [abs(f - sigma_fredholm(coarse, pts))
             for f, pts in zip(fred, pts_list)]
    # a single tuple's two-level difference can be small by coincidence,
    # where the two rules' errors nearly agree; take the envelope over all
    # tuples of the same order
    order_env: dict[int, float] = {}
    for pts, d in zip(pts_list, diffs):
        order_env[pts.size] = max(order_env.get(pts.size, 0.0), d)

    out = []
    for i, pts in enumerate(pts_list):
        resolution = order_env[pts.size] * _RESOLUTION_FACTOR
        remainder = ev.remainder_bound(pts)
        qmc_err = float(qmc_errs[i])
        bound = remainder + qmc_err + resolution
        out.append(DensityValue(
            order=pts.size, points=tuple(pts.tolist()),
            value_series=float(terms[i]), value_fredholm=fred[i],
            truncation_k=k_max, truncation_bound=bound,
            components={"remainder": remainder, "qmc": qmc_err,
                        "resolution": resolution}))
    return out


# ---------------------------------------------------------------------------
# the gap exponent
# ---------------------------------------------------------------------------

def fit_gap_exponent(decomp: SpectralDecomposition) -> float:
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
