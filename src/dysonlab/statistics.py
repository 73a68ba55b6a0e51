"""Correlation and density functions, exactly and from samples.

Two independent routes compute the same window densities:

* the spectral route, sigma_fredholm: det(Id - K) times the determinant of
  the resolvent kernel L = K + K (Id - K)^-1 K, taken from the stored
  eigenpairs with K(x, x') itself (spectral.l_matrix);
* the series route, SeriesEvaluator: the alternating expansion

      sigma_n(x) = sum_k (-1)^k / k! * int_{I^k} rho_{n+k}(x, y) dy,

  with rho computed as plain kernel determinants.  The k = 1, 2 integrals
  are closed forms over the decomposition's Gauss nodes (palm_integrals).
  Each k >= 3 integral is one streamed pass over scrambled Sobol points
  that serves every tuple at once, so no independent cubature is built and
  no Sobol block or integrand vector is stored: memory does not grow with
  the point count.  Per slice each block K(y, y) is eliminated once, as
  L D L^T, and that one elimination serves every tuple.

The Sobol points are scipy's scrambled Sobol sequence,
scipy.stats.qmc.Sobol(d=k, scramble=True, seed=_QMC_SEED + k), bit for
bit, generated here in numpy (_sobol_slices) from the Joe-Kuo direction
numbers file that scipy ships, so scipy.stats is never imported.

The reported truncation_bound is a full error budget for the comparison:

  remainder   the symmetric-function tail rho_n(x) * sum_{k>k_max} e_k(lambda),
              valid since rho_{n+k}(x,y) <= rho_n(x) rho_k(y) for PSD kernels
              (Fischer's inequality) and (1/k!) int rho_k equals the
              elementary symmetric sum e_k of the window eigenvalues;
  qmc         half-sample differences of the Sobol integrals;
  resolution  2 * |sigma_fred(n) - sigma_fred(n/4)|, its largest value over
              the tuples of the same order: a Richardson-style estimate of
              the spectral route's node-count error, which for kernels with
              a diagonal cusp of exponent a decays only like n_nodes^-a.

Cross-checks assert |series - fredholm| <= max(1e-6, 3 * truncation_bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import lgamma
from pathlib import Path

import numpy as np

from .rules import Rule, is_int
from .sampler import Configuration
from .spectral import (SpectralDecomposition, _gauss_legendre, fredholm_det,
                       l_matrix, nystrom_decompose)

_QMC_SEED = 202406           # pinned: reruns must be byte-identical
_CHUNK = 1 << 14             # Sobol points per slice; 2^16 and 2^17 ran 30-50% slower
_SOBOL_BITS = 30             # scipy's default: a sequence of 2^30 points
_SOBOL_DIMS = 21201          # rows of the direction numbers, the largest k
# one Sobol dimension per order k; the half-sample error compares two
# balanced nets of one sequence, so the point count is a power of two
K_MAX_RULE = Rule(f"an integer from 0 to {_SOBOL_DIMS}",
                  lambda v: is_int(v) and 0 <= v <= _SOBOL_DIMS, int)
QMC_POINTS_RULE = Rule(f"a power of two from 2 to 2^{_SOBOL_BITS}", lambda v: is_int(v)
                       and 2 <= v <= 1 << _SOBOL_BITS and v & (v - 1) == 0, int)
# Resolution error from the node-count-vs-quarter difference: for an
# O(n^-a) route the unknown error E satisfies diff = E (4^a - 1), so
# 2 * diff covers every a >= 1/2.  Against a rule with four times the
# nodes (product kernel, alpha = 1/2, 1,024 nodes, 99 tuples of orders 1
# and 2) the error is at most 0.34 of a tuple's own 2 * diff and 0.22 of
# the per-order envelope that crosscheck_density reports.
_RESOLUTION_FACTOR = 2.0
_ESYM_EXTRA = 48             # orders summed past k_max in the symmetric tail


@cache
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """(poly, vinit) of the Joe-Kuo direction numbers (Joe & Kuo, SIAM J.
    Sci. Comput. 30, 2008), read once from the file that scipy ships."""
    import scipy
    with np.load(Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz") as z:
        return z["poly"], z["vinit"]


def _sobol_directions(d: int) -> np.ndarray:
    """(d, _SOBOL_BITS) direction numbers of the first d dimensions, column j
    scaled by 2^(bits - 1 - j): Bratley & Fox's recurrence on each row's
    primitive polynomial, as scipy's _initialize_v computes them."""
    poly, vinit = _sobol_table()
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for i in range(1, d):
        p = int(poly[i])
        m = p.bit_length() - 1
        row = [int(c) for c in vinit[i, :m]]
        for j in range(m, _SOBOL_BITS):
            new = row[j - m]
            for t in range(1, m + 1):
                if p >> (m - t) & 1:
                    new ^= row[j - t] << t
            row.append(new)
        v[i] = row
    return v << np.arange(_SOBOL_BITS - 1, -1, -1)


def _sobol_slices(d: int, seed: int, n: int):
    """The first n points of scipy's qmc.Sobol(d, scramble=True, seed=seed),
    bit for bit, as float64 slices of min(_CHUNK, n) points each; n is a
    power of two.  A slice is the (points, d) transpose of a C-ordered
    (d, points) array, so each coordinate's points are contiguous.

    The scramble draws what scipy draws, in its order: the digital shift,
    then a random lower unit-triangular bit matrix per dimension (Matousek,
    J. Complexity 14, 1998), which maps each direction number's bits.
    Points come in Gray-code order, so the slice that starts at s, a
    multiple of its length, is the first slice XORed with the direction
    numbers of the set bits of s ^ (s >> 1).
    """
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = (rng.integers(2, size=(d, bits), dtype=np.uint32)
             @ 2 ** np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    msb_first = np.arange(bits - 1, -1, -1)
    v_bits = _sobol_directions(d)[:, :, None] >> msb_first & 1
    parity = np.einsum("dpi,dji->djp", ltm, v_bits) & 1
    sv = (parity << msb_first).sum(axis=2).astype(np.uint32)
    length = min(_CHUNK, n)
    # the reflected Gray code: point 2^b + i is point 2^b - 1 - i XOR sv[:, b]
    first = np.empty((d, length), dtype=np.uint32)
    first[:, 0] = shift
    for b in range(length.bit_length() - 1):
        np.bitwise_xor(first[:, (1 << b) - 1::-1], sv[:, b, None], out=first[:, 1 << b:2 << b])
    for s in range(0, n, length):
        gray = s ^ (s >> 1)
        offset = np.bitwise_xor.reduce(sv[:, [b for b in range(bits) if gray >> b & 1]],
                                       axis=1, initial=0)
        yield ((first ^ offset[:, None]) * 2.0 ** -bits).T


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
    t, w = _gauss_legendre(16)
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


def _ldl_blocks(kernel, yt: np.ndarray):
    """LDL^T of a slice's blocks C = K(y, y), stored point-last.

    yt holds the m points y of the slice as (k, m).  Only the lower
    triangle of C is evaluated, one kernel call per row, and it is
    eliminated in place without pivoting, which is stable since C is SPD.
    Returns det C as the product of the pivots, the ill mask
    det C < 1e-12 * prod C_jj and the (k, k, m) factor: the pivots d_j on
    its diagonal, the multipliers below it, its upper triangle unset.  A
    pivot that is not positive, a NaN included, marks its block ill and is
    replaced by 1, so the elimination and the substitution stay finite and
    silent; an ill block's values come from the bordered fallback.
    """
    k, m = yt.shape
    f = np.empty((k, k, m))
    for i in range(k):
        f[i, :i + 1] = kernel.eval(yt[i], yt[:i + 1])
    diag_prod = np.prod(np.diagonal(f), axis=1)
    det_c = np.ones(m)
    broken = np.zeros(m, dtype=bool)
    for j in range(k):
        piv = f[j, j]
        bad = ~(piv > 0)
        if bad.any():
            broken |= bad
            piv[bad] = 1.0
        det_c *= piv
        col = f[j + 1:, j].copy()
        f[j + 1:, j] /= piv
        for i in range(j + 1, k):
            f[i, j + 1:i + 1] -= f[i, j] * col[:i - j]
    ill = broken | ~(det_c >= 1e-12 * np.maximum(diag_prod, 1e-300))
    return det_c, ill, f


def _schur_point_last(a: np.ndarray, r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Schur complements A - B C^-1 B^T over a slice, as an (m, n, n) view.

    r = B^T = K(y, x) has shape (k, n, m) and is forward-substituted in
    place with the multipliers of f, the factor from _ldl_blocks; each
    entry is then A_pq - sum_j r_jp r_jq / d_j, summed in j order.
    """
    k, n, m = r.shape
    for i in range(1, k):
        for j in range(i):
            r[i] -= f[i, j] * r[j]
    rd = r / np.diagonal(f).T[:, None, :]
    schur = np.empty((n, n, m))
    for p in range(n):
        for q in range(p, n):
            acc = r[0, p] * rd[0, q]
            for j in range(1, k):
                acc += r[j, p] * rd[j, q]
            schur[p, q] = a[p, q] - acc
            schur[q, p] = a[q, p] - acc
    return schur.transpose(2, 0, 1)


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
    """counts[s, b] of points of sample s inside the interval bin b = [lo, hi)."""
    points = np.concatenate([cfg.points.ravel() for cfg in samples])
    # owner[p] is the sample that point p came from
    owner = np.repeat(np.arange(len(samples)), [cfg.points.size for cfg in samples])
    out = np.empty((len(samples), len(bins)))
    for b, (lo, hi) in enumerate(bins):
        out[:, b] = np.bincount(owner[(points >= lo) & (points < hi)], minlength=len(samples))
    return out


def standard_error(per_sample: np.ndarray) -> np.ndarray:
    """Standard error of each column's mean over independent draws (rows):
    std / sqrt(n).  Every draw of the package has its own stream, so the
    rows are independent."""
    return per_sample.std(axis=0, ddof=1) / np.sqrt(per_sample.shape[0])


def estimate_correlation(samples: list[Configuration], order: int, bins,
                         pairs: list[tuple[int, int]] | None = None) -> CorrelationEstimate:
    """Empirical correlation function over a grid of interval bins (lo, hi).

    order 1: per-bin mean count / bin volume.
    order 2: per bin pair (i, j), the factorial-moment estimator
    E[N_i N_j] / (vol_i vol_j) for i != j and E[N_i (N_i - 1)] / vol_i^2 on
    the diagonal; ``pairs`` defaults to all ordered pairs including the
    diagonal.  Standard errors are std / sqrt(n) over the samples.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are estimable from counts")
    if not samples:
        raise ValueError("empty sample batch")
    counts = _bin_counts(samples, bins)
    vols = np.array([float(hi - lo) for lo, hi in bins])
    if order == 1:
        per_sample = counts / vols
        return CorrelationEstimate(1, list(bins), None, per_sample.mean(axis=0),
                                   standard_error(per_sample), len(samples))
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
                               standard_error(per_sample), len(samples))


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

def _elementary_symmetric_tail(lam: np.ndarray, k_max: int) -> float:
    """sum_{k > k_max} e_k(lam), truncated _ESYM_EXTRA orders on, where terms
    stop mattering."""
    top = k_max + _ESYM_EXTRA
    e = np.zeros(top + 1)
    e[0] = 1.0
    for l in lam[lam > 0]:
        e[1:] = e[1:] + l * e[:-1]
    return float(e[k_max + 1:].sum())


def _tree_sum(parts: list):
    """A power-of-two count of numbers added in a balanced binary tree."""
    while len(parts) > 1:
        parts = [p + q for p, q in zip(parts[::2], parts[1::2])]
    return parts[0]


class SeriesEvaluator:
    """Alternating-series terms for batches of point tuples on one
    decomposition.

    Terms k <= 2 are closed forms over the decomposition's Gauss nodes
    (palm_integrals), one call per tuple.  A term k >= 3 is one pass over
    the order-k scrambled Sobol points, _CHUNK at a time, shared by every
    tuple of the batch: per slice the blocks C = K(y, y) are factored once
    as L D L^T, point-last and in place (_ldl_blocks), which gives det C
    and the ill mask det C < 1e-12 prod C_jj.  Each tuple's integrand is
    det C det(A - B C^-1 B^T) with A = K(x, x) and B = K(x, y), the Schur
    block assembled from B forward-substituted with the shared multipliers
    (_schur_point_last), or the bordered determinant det K(x u y) taken
    directly on the ill blocks, so no factor of an ill block is ever used
    and none is regularized.  No block or integrand outlives its slice and
    a tuple keeps one sum per slice, so memory does not grow with qmc_points.
    ``ill_blocks`` counts the ill blocks met, per order k.
    """

    def __init__(self, decomp: SpectralDecomposition, k_max: int = 6,
                 qmc_points: int = 1 << 20):
        self.k_max = K_MAX_RULE("k_max", k_max, ValueError)
        self.qmc_points = QMC_POINTS_RULE("qmc_points", qmc_points, ValueError)
        self.decomp = decomp
        self.kernel = decomp.kernel
        a, b = decomp.window
        self.window = (a, b)
        self.length = b - a
        # K at the decomposition's node pairs, the one table of k = 1, 2
        self._kzz = self.kernel.eval(decomp.nodes[:, None], decomp.nodes[None, :])
        # ill blocks met by the Sobol passes, per order k
        self.ill_blocks: dict[int, int] = {}

    def _sobol_integrals(self, tuples: list[np.ndarray], k: int):
        """int rho_{n+k}(x, y) dy over the window for each tuple x, with its
        half-sample error, from one streamed pass over the Sobol points.

        numpy sums 2^j >= 256 values pairwise, as the sum of the first half
        plus the sum of the second, so the slices' sums added in a balanced
        tree are the whole integrand vector's sum bit for bit, and the
        tree's left half its first half's.  A single slice takes both sums
        from its own vector.
        """
        a, b = self.window
        n_y = self.qmc_points
        w = self.length ** k / n_y
        a_mats = [self.kernel.eval(x[:, None], x[None, :]) for x in tuples]
        sums = [[] for _ in tuples]
        for u in _sobol_slices(k, _QMC_SEED + k, n_y):
            y = a + (b - a) * u
            yt = np.ascontiguousarray(y.T)
            det_c, ill, f = _ldl_blocks(self.kernel, yt)
            self.ill_blocks[k] = self.ill_blocks.get(k, 0) + int(np.count_nonzero(ill))
            y_ill = y[ill]
            for x, a_mat, part in zip(tuples, a_mats, sums):
                if x.size == 0:
                    out = det_c.copy()
                else:
                    r = self.kernel.eval(yt[:, None, :], x[None, :, None])
                    out = det_c * _det_small(_schur_point_last(a_mat, r, f))
                if y_ill.size:
                    z = np.concatenate([np.broadcast_to(x, (y_ill.shape[0], x.size)), y_ill],
                                       axis=1)
                    out[ill] = np.linalg.det(self.kernel.eval(z[:, :, None], z[:, None, :]))
                out *= w
                part.append(out.sum())
                if n_y <= _CHUNK:
                    part.append(out[:n_y // 2].sum())
        totals, errs = np.empty(len(tuples)), np.empty(len(tuples))
        for i, part in enumerate(sums):
            if n_y <= _CHUNK:
                totals[i], half = part
            else:
                totals[i], half = _tree_sum(part), _tree_sum(part[:len(part) // 2])
            errs[i] = abs(totals[i] - 2.0 * half)
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
        """rho_n(x) * sum_{k > k_max} e_k(lambda), which bounds the dropped terms."""
        return (max(rho_det(self.kernel, points), 0.0)
                * _elementary_symmetric_tail(self.decomp.eigenvalues, self.k_max))


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
                       k_max: int = 6, qmc_points: int = 1 << 20,
                       ill_blocks: dict | None = None) -> list[DensityValue]:
    """Evaluate both routes at each tuple with a full error budget.

    ``tuples`` is an iterable of point tuples (the empty tuple asks for the
    void probability).  Each series order is one batched term over them all.
    A dict passed as ``ill_blocks`` receives the series route's count of
    ill Sobol blocks per order k >= 3 (SeriesEvaluator.ill_blocks).
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
    if ill_blocks is not None:
        ill_blocks.update(ev.ill_blocks)

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
            truncation_bound=bound,
            components={"remainder": remainder, "qmc": qmc_err,
                        "resolution": resolution}))
    return out
