"""Correlation and density functions, exactly and from samples.

Two independent routes compute the same window densities:

* the spectral route, sigma_fredholm: det(Id - K) times the determinant of
  the resolvent-type kernel L = sum_i lambda_i/(1-lambda_i) phi_i phi_i';
* the series route, SeriesEvaluator: the alternating expansion

      sigma_n(x) = sum_k (-1)^k / k! * int_{I^k} rho_{n+k}(x, y) dy,

  with rho computed as plain kernel determinants.  Inner integrals use the
  decomposition's Gauss nodes tensorized up to k = 2 and low-discrepancy
  (scrambled Sobol) points beyond, so no independent cubature is built.

The reported truncation_bound is a full error budget for the comparison:

  remainder   min of a Hadamard-type tail (|I|^k (n+k)^((n+k)/2) M^(n+k) / k!)
              and the symmetric-function tail rho_n(x) * sum_{k>k_max} e_k(lambda),
              valid since rho_{n+k}(x,y) <= rho_n(x) rho_k(y) for PSD kernels
              and (1/k!) int rho_k equals the elementary symmetric sum e_k;
  qmc         half-sample differences of the Sobol integrals;
  resolution  2 * |sigma_fred(n) - sigma_fred(n/4)|, a Richardson-style
              estimate of the spectral route's node-count error, which for
              kernels with a diagonal cusp of exponent a decays only like
              n_nodes^-a.

Cross-checks assert |series - fredholm| <= max(1e-6, 3 * truncation_bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from .sampler import Box, Configuration
from .spectral import (SpectralDecomposition, fredholm_det, l_matrix,
                       nystrom_decompose)

_QMC_SEED = 202406           # pinned: reruns must be byte-identical
# Resolution error from the node-count-vs-quarter difference: for an
# O(n^-a) route the unknown error E satisfies diff = E (4^a - 1), so
# 2 * diff covers every a >= 1/2 while staying a pointwise-robust
# estimator (a half-node comparison is small enough to drown in the
# between-node quadrature noise of cusped kernels).
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


def _r(x) -> str:
    # plain-float repr: numpy scalars stringify as np.float64(...) otherwise
    return repr(float(x))


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
    """Alternating-series densities with shared per-k integration tables.

    Building the Sobol blocks is the expensive part; one evaluator serves
    any number of point tuples on the same decomposition.
    """

    def __init__(self, decomp: SpectralDecomposition, k_max: int = 6,
                 qmc_points: int = 1 << 20, tensor_k: int = 2,
                 chunk: int = 1 << 17):
        if k_max < 0:
            raise ValueError("k_max must be nonnegative")
        self.decomp = decomp
        self.kernel = decomp.kernel
        self.k_max = k_max
        self.qmc_points = int(qmc_points)
        self.tensor_k = min(tensor_k, 2)
        self.chunk = chunk
        a, b = decomp.window
        self.window = (a, b)
        self.length = b - a
        kd = self.kernel.eval(decomp.nodes[:, None], decomp.nodes[None, :])
        self.m_sup = float(np.max(np.abs(kd)))
        self._blocks: dict[int, dict] = {}

    # -- integration tables -------------------------------------------------

    def _block(self, k: int) -> dict:
        blk = self._blocks.get(k)
        if blk is not None:
            return blk
        a, b = self.window
        if k <= self.tensor_k:
            nodes, weights = self.decomp.nodes, self.decomp.weights
            if k == 1:
                y = nodes[:, None]
                w = weights.copy()
            else:
                y1, y2 = np.meshgrid(nodes, nodes, indexing="ij")
                y = np.stack([y1.ravel(), y2.ravel()], axis=1)
                w = (weights[:, None] * weights[None, :]).ravel()
            halves = None
        else:
            sob = qmc.Sobol(d=k, scramble=True, seed=_QMC_SEED + k)
            y = a + (b - a) * sob.random(self.qmc_points)
            w = np.full(self.qmc_points, self.length ** k / self.qmc_points)
            halves = self.qmc_points // 2
        c = np.empty((y.shape[0], k, k))
        for s in range(0, y.shape[0], self.chunk):
            yc = y[s:s + self.chunk]
            c[s:s + self.chunk] = self.kernel.eval(yc[:, :, None], yc[:, None, :])
        det_c = _det_small(c)
        diag_prod = np.prod(np.einsum("mkk->mk", c), axis=1)
        ill = det_c < 1e-12 * np.maximum(diag_prod, 1e-300)
        if k == 1:
            c_inv = 1.0 / np.where(det_c == 0.0, np.inf, det_c)[:, None, None]
        elif k == 2:
            c_inv = np.empty_like(c)
            safe = np.where(ill, 1.0, det_c)
            c_inv[:, 0, 0] = c[:, 1, 1] / safe
            c_inv[:, 1, 1] = c[:, 0, 0] / safe
            c_inv[:, 0, 1] = -c[:, 0, 1] / safe
            c_inv[:, 1, 0] = -c[:, 1, 0] / safe
        else:
            c_reg = c.copy()
            if ill.any():
                ridge = 1e-10 * np.maximum(diag_prod[ill], 1.0) ** (1.0 / k)
                c_reg[ill] += ridge[:, None, None] * np.eye(k)
            c_inv = np.linalg.inv(c_reg)
        blk = {"y": y, "w": w, "det_c": det_c, "c_inv": c_inv, "ill": ill,
               "halves": halves}
        self._blocks[k] = blk
        return blk

    def drop_block(self, k: int) -> None:
        self._blocks.pop(k, None)

    # -- one series term ----------------------------------------------------

    def _integral(self, pts: np.ndarray, k: int, blk: dict) -> tuple[float, float]:
        """(integral of rho_{n+k}(pts, y) over y, half-sample error)."""
        y, w, det_c, c_inv, ill = blk["y"], blk["w"], blk["det_c"], blk["c_inv"], blk["ill"]
        n = pts.size
        if n == 0:
            integ = det_c * w
        else:
            a_mat = self.kernel.eval(pts[:, None], pts[None, :])
            vals = np.empty(y.shape[0])
            for s in range(0, y.shape[0], self.chunk):
                yc = y[s:s + self.chunk]
                b_mat = self.kernel.eval(pts[None, :, None], yc[:, None, :])
                bc = np.einsum("mik,mkl->mil", b_mat, c_inv[s:s + self.chunk])
                schur = a_mat[None, :, :] - np.einsum("mik,mjk->mij", bc, b_mat)
                vals[s:s + self.chunk] = det_c[s:s + self.chunk] * _det_small(schur)
            if ill.any():
                yb = y[ill]
                z = np.concatenate([np.broadcast_to(pts, (yb.shape[0], n)), yb], axis=1)
                full = self.kernel.eval(z[:, :, None], z[:, None, :])
                vals[ill] = np.linalg.det(full)
            integ = vals * w
        total = float(integ.sum())
        if blk["halves"] is None:
            return total, 0.0
        half = 2.0 * float(integ[:blk["halves"]].sum())
        return total, abs(total - half)

    def term(self, points, k: int) -> tuple[float, float]:
        """Signed series term (-1)^k/k! int rho_{n+k} and its QMC error."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if k == 0:
            return rho_det(self.kernel, pts), 0.0
        integ, err = self._integral(pts, k, self._block(k))
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

    def value_and_bound(self, points) -> tuple[float, float]:
        """Series value and the truncation + QMC part of the error budget."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        total, qmc_err = 0.0, 0.0
        for k in range(self.k_max + 1):
            t, e = self.term(pts, k)
            total += t
            qmc_err += e
        return total, self.remainder_bound(pts) + qmc_err


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
    void probability).  Sobol blocks are built once per k and shared.
    """
    ev = SeriesEvaluator(decomp, k_max=k_max, qmc_points=qmc_points)
    coarse = nystrom_decompose(decomp.kernel, decomp.window,
                               max(8, decomp.n_nodes // 4))
    pts_list = [np.atleast_1d(np.asarray(t, dtype=float)) for t in tuples]

    terms = {i: 0.0 for i in range(len(pts_list))}
    qmc_errs = {i: 0.0 for i in range(len(pts_list))}
    for k in range(k_max + 1):
        for i, pts in enumerate(pts_list):
            t, e = ev.term(pts, k)
            terms[i] += t
            qmc_errs[i] += e
        ev.drop_block(k)

    fred = [sigma_fredholm(decomp, pts) for pts in pts_list]
    diffs = [abs(f - sigma_fredholm(coarse, pts))
             for f, pts in zip(fred, pts_list)]
    # the node-count error oscillates between nodes, so a single tuple's
    # two-level difference can understate it; take the envelope over all
    # tuples of the same order
    order_env: dict[int, float] = {}
    for pts, d in zip(pts_list, diffs):
        order_env[pts.size] = max(order_env.get(pts.size, 0.0), d)

    out = []
    for i, pts in enumerate(pts_list):
        resolution = order_env[pts.size] * _RESOLUTION_FACTOR
        remainder = ev.remainder_bound(pts)
        bound = remainder + qmc_errs[i] + resolution
        out.append(DensityValue(
            order=pts.size, points=tuple(pts.tolist()),
            value_series=terms[i], value_fredholm=fred[i],
            truncation_k=k_max, truncation_bound=bound,
            components={"remainder": remainder, "qmc": qmc_errs[i],
                        "resolution": resolution}))
    return out


def density_crosscheck_csv(values: list[DensityValue], path) -> None:
    with open(path, "w") as fh:
        fh.write("order,points,value_series,value_fredholm,truncation_bound,consistent\n")
        for dv in values:
            pts = ";".join(_r(p) for p in dv.points)
            fh.write(f"{dv.order},{pts},{_r(dv.value_series)},{_r(dv.value_fredholm)},"
                     f"{_r(dv.truncation_bound)},{int(dv.consistent)}\n")


# ---------------------------------------------------------------------------
# bound verification and the gap exponent
# ---------------------------------------------------------------------------

@dataclass
class SigmaBoundsReport:
    ok: bool
    max_violation: float
    slope: float | None = None
    messages: list[str] = field(default_factory=list)


def fit_gap_exponent(decomp: SpectralDecomposition, x0: float = 0.0,
                     t_range: tuple[float, float] = (1e-3, 1e-1), n_t: int = 10,
                     k_max: int = 2) -> float:
    """Slope of log sigma_2(x0, x0 + t) against log t.

    Uses the series route with tensor-grid terms only: the pair density at
    separations below the quadrature node spacing is invisible to the
    eigenfunction expansion, while kernel determinants resolve every scale.
    """
    ev = SeriesEvaluator(decomp, k_max=min(k_max, 2))
    ts = np.geomspace(t_range[0], t_range[1], n_t)
    vals = np.array([ev.value_and_bound(np.array([x0, x0 + t]))[0] for t in ts])
    if np.any(vals <= 0):
        raise ValueError("pair density not positive over the fit range")
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


def verify_sigma_bounds(decomp: SpectralDecomposition, tuples,
                        fit_exponent: bool = False) -> SigmaBoundsReport:
    """Check 0 <= sigma_n <= rho_n at each tuple; optionally fit the
    two-point gap exponent for product-family kernels."""
    worst = 0.0
    msgs = []
    for t in tuples:
        pts = np.atleast_1d(np.asarray(t, dtype=float))
        sig = sigma_fredholm(decomp, pts)
        rho = rho_det(decomp.kernel, pts) if pts.size else 1.0
        low = -sig if sig < 0 else 0.0
        high = sig - rho if sig > rho else 0.0
        viol = max(low, high)
        if viol > worst:
            worst = viol
        if viol > 1e-8:
            msgs.append(f"bound violated by {viol:.3e} at {pts.tolist()}")
    slope = None
    if fit_exponent:
        slope = fit_gap_exponent(decomp)
    return SigmaBoundsReport(worst <= 1e-8, worst, slope, msgs)
