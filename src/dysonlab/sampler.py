"""Exact samplers: determinantal fields on a window, the finite-N log-gas,
and Poisson configurations.

Determinantal sampling follows the spectral two-stage scheme: keep each
eigenfunction independently with probability lambda_i, then place as many
points as survived by sequentially sampling the retained frame's diagonal
and projecting the frame orthogonally to the evaluation at each placed
point.  Point counts are therefore an exact Bernoulli(lambda_i) sum by
construction.  DppSampler places a block of up to _DPP_BLOCK streams in
lockstep, one step per point for all streams that kept the same number of
eigenfunctions, and each draw is bit-identical to the draw of its stream
alone (the one-at-a-time form is the oracle in tests/oracles.py).

The log-gas sampler realizes the quadratic-confinement ensemble

    mu_N ~ prod_{i<j} |x_i - x_j|^2 * exp(-lam_N sum_i x_i^2)

as the eigenvalues of the Dumitriu-Edelman beta = 2 tridiagonal model: a
real symmetric tridiagonal matrix with diagonal N(0, 1/(2 lam_N)) and
off-diagonals chi_{2(N-k)} * sqrt(1/(4 lam_N)), k = 1..N-1.  It has the
eigenvalue law of the Hermitian Gaussian matrix with entry density
proportional to exp(-lam_N tr H^2), from N + (N-1) draws per sample.
Counts of eigenvalues in a window (-h, h) need no eigensolve: a Sturm
sequence (the LDL^T pivots of T - s I) counts the eigenvalues below s in
O(N) steps.  The default confinement lam_N = (pi rho_bar)^2 / (2 N) puts
the bulk density at the origin at rho_bar for every N, so the finite-N
1-point function converges to the sine field's constant density as N
grows.

All samplers are pure functions of (inputs, RngStream): replicas with
distinct stream ids can run on any number of workers and reproduce
bit-identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .rng import RngStream, stream_generators
from .rules import POSITIVE, UNIT
from .spectral import SpectralDecomposition, _extension, eigenfunction_values

log = logging.getLogger(__name__)

_ZERO_DENSITY = 1e-12
_MAX_POINT_RETRIES = 100
# log-gas draws per block: bounds memory whatever n_samples is
_LOG_GAS_BLOCK = 4096
# DPP draws placed in lockstep per block: each holds an (m, k) frame, about
# 50 KB on the sine field at 256 nodes, so this bounds memory
_DPP_BLOCK = 64
# DPP placement grid: this many points per quadrature node, and at least _MIN_FINE
_FINE_PER_NODE, _MIN_FINE = 4, 1024


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in R^d, rows of (lo, hi)."""

    bounds: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if b.shape[1] != 2 or np.any(b[:, 1] < b[:, 0]):
            raise ValueError("box bounds must be rows of (lo, hi)")
        object.__setattr__(self, "bounds", b)

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.bounds[:, 1] - self.bounds[:, 0]))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.bounds[:, 0]) & (pts <= self.bounds[:, 1]), axis=1)


@dataclass
class Configuration:
    """Finite point set together with the region it was sampled on.

    One-dimensional points are stored sorted ascending in a flat array;
    d >= 2 uses an (n, d) array and a :class:`Box` window.
    """

    points: np.ndarray
    window: object

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    def to_json(self) -> list:
        return self.points.tolist()


class DppSampler:
    """Reusable sampling tables for one spectral decomposition.

    Densities are tracked on a uniform refinement grid over the window
    (Nystrom-extended eigenfunctions), and points are placed by inverse
    CDF of the trapezoid mass with a linear correction inside the selected
    cell.  Projection updates use exact eigenfunction values at the chosen
    point, so only the placement density is interpolated.

    Draws are made in lockstep blocks of up to _DPP_BLOCK streams.  Each
    stream keeps its own generator and draws its uniforms in the order a
    lone draw would: the Bernoulli stage, then one per placement attempt.
    Streams that kept the same number k of eigenfunctions are then placed
    together, in k steps whose density, CDF, extension and projection work
    runs on stacked arrays, item by item with the products a lone draw
    makes.  So every draw is bit-identical to a lone draw of its stream,
    whatever block it shares.  The rare paths (an extra uniform in a flat
    cell, a retry after a zero projected density, the redraw of a tie on
    the stream's child(1)) stay with the stream that takes them.
    """

    def __init__(self, decomp: SpectralDecomposition):
        self.decomp = decomp
        a, b = decomp.window
        self.grid = np.linspace(a, b, max(_MIN_FINE, _FINE_PER_NODE * decomp.n_nodes))
        self.dx = self.grid[1] - self.grid[0]
        self.ext, self.kept = eigenfunction_values(decomp, self.grid)
        self._extend = _extension(decomp)[0]  # for each placed point
        self.lam = decomp.eigenvalues

    def sample(self, rng: RngStream) -> Configuration:
        """One draw on stream ``rng``: a block of one."""
        return self._draw([rng])[0]

    def sample_batch(self, seed: int, n_samples: int,
                     base_stream: int = 0) -> list[Configuration]:
        """n_samples draws on streams base_stream + i, in lockstep blocks of
        _DPP_BLOCK, so memory is bounded whatever n_samples is."""
        out: list[Configuration] = []
        for s in range(0, n_samples, _DPP_BLOCK):
            e = min(s + _DPP_BLOCK, n_samples)
            out += self._draw([RngStream(seed, base_stream + i) for i in range(s, e)])
        return out

    def _draw(self, rngs: list[RngStream]) -> list[Configuration]:
        gens = [rng.generator() for rng in rngs]
        u = np.array([gen.random(self.lam.size) for gen in gens])
        keep = u[:, self.kept] < self.lam[self.kept]      # (n, n_kept): the Bernoulli stage
        counts = np.count_nonzero(keep, axis=1)
        out: list = [None] * len(rngs)
        for k in np.unique(counts):
            group = np.flatnonzero(counts == k)
            cols = np.nonzero(keep[group])[1].reshape(group.size, k)
            pts = np.sort(self._place_group(cols, [gens[i] for i in group]), axis=1)
            # ties have probability zero; a draw with one is redrawn whole
            tied = np.any(np.diff(pts, axis=1) <= 0.0, axis=1)
            for i, p, tie in zip(group, pts, tied):
                if tie:
                    log.warning("tie in sampled configuration, resampling")
                    out[i] = self._draw([rngs[i].child(1)])[0]
                else:
                    out[i] = Configuration(p, self.decomp.window)
        return out

    def _place_group(self, cols: np.ndarray, gens: list) -> np.ndarray:
        """(G, k) points of G draws that each retained k eigenfunctions,
        columns cols (G, k) of ext, placed in k lockstep steps."""
        g, k = cols.shape
        # each item laid out as ext[:, cols] lays it out, m contiguous: the
        # density update's gemv sums in the order of that layout
        frame = self.ext.T[cols].transpose(0, 2, 1)           # (G, m, k)
        density = np.zeros((g, frame.shape[1]))
        # column by column, the order np.sum takes over this layout, and no
        # (G, m, k) temporary
        for j in range(k):
            density += frame[:, :, j] * frame[:, :, j]
        basis = np.empty((g, k, k))
        pts = np.empty((g, k))
        for j in range(k):
            x, v, norm2 = self._attempt(density, cols, basis[:, :j], gens)
            retry = np.flatnonzero(norm2 < _ZERO_DENSITY)
            for _ in range(_MAX_POINT_RETRIES):
                if retry.size == 0:
                    break
                x[retry], v[retry], norm2[retry] = self._attempt(
                    density[retry], cols[retry], basis[retry, :j], [gens[i] for i in retry])
                retry = retry[norm2[retry] < _ZERO_DENSITY]
            if retry.size:
                raise SamplingError("projection step kept producing zero density")
            pts[:, j] = x
            e_new = v / np.sqrt(norm2)[:, None]
            basis[:, j] = e_new
            drop = (frame @ e_new[:, :, None])[:, :, 0]
            density -= drop * drop
            np.maximum(density, 0.0, out=density)
        return pts

    def _attempt(self, density, cols, basis, gens):
        """One placement per row: the points x (G,), their retained
        eigenfunction values projected off the rows of basis (G, j, k), and
        the squared norms of those projections."""
        x = self._place(density, gens)
        v = self._extend(x[:, None])[:, 0][np.arange(x.size)[:, None], cols]
        for i in range(basis.shape[1]):
            e = basis[:, i]
            v = v - (e[:, None] @ v[:, :, None])[:, 0] * e
        return x, v, (v[:, None] @ v[:, :, None])[:, 0, 0]

    def _place(self, density: np.ndarray, gens: list) -> np.ndarray:
        """One point per row of density (G, m), drawn by gens[i] for row i."""
        seg = density[:, :-1] + density[:, 1:]
        seg *= 0.5
        seg *= self.dx
        total = seg.sum(axis=1)
        if np.any(total <= 0.0):
            raise SamplingError("projected density vanished on the whole window")
        cdf = np.cumsum(seg, axis=1)
        u = np.array([gen.random() for gen in gens]) * total
        rows = np.arange(len(gens))
        # the first cell whose cumulative mass reaches u, as searchsorted finds it
        s = np.minimum(np.count_nonzero(cdf < u[:, None], axis=1), seg.shape[1] - 1)
        target = u - np.where(s > 0, cdf[rows, s - 1], 0.0)
        d0, d1 = density[rows, s], density[rows, s + 1]
        aq = 0.5 * (d1 - d0)
        c = target / self.dx
        flat = np.abs(aq) < 1e-14 * np.maximum(d0, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.maximum(d0 * d0 + 4.0 * aq * c, 0.0)
            xi = np.where(flat, c / d0, (-d0 + np.sqrt(disc)) / (2.0 * aq))
        for i in np.flatnonzero(flat & ~(d0 > 0)):
            xi[i] = gens[i].random()
        xi = np.minimum(np.maximum(xi, 0.0), 1.0)
        return self.grid[s] + xi * self.dx


def sample_dpp_batch(decomp: SpectralDecomposition, seed: int, n_samples: int,
                     base_stream: int = 0) -> list[Configuration]:
    """n_samples independent draws on streams base_stream + i, placed in
    lockstep blocks (DppSampler.sample_batch); each draw is bit-identical to
    DppSampler.sample on its stream."""
    return DppSampler(decomp).sample_batch(seed, n_samples, base_stream)


def lambda_n(n: int, rho_bar: float) -> float:
    """Confinement strength for which the bulk density at 0 equals rho_bar."""
    return (np.pi * rho_bar) ** 2 / (2.0 * n)


def _check_log_gas(n: int, rho_bar: float) -> float:
    if n < 1:
        raise ValueError("n must be at least 1")
    UNIT("rho_bar", rho_bar, ValueError)
    return lambda_n(n, rho_bar)


def _tridiagonal_batch(n: int, lam: float, seed: int, m: int,
                       base_stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (m, n) and off-diagonals (m, n - 1) of m tridiagonal
    log-gas matrices, row i drawn from stream base_stream + i: first the n
    diagonal normals, then the n - 1 chi-square variates in order k = 1..n-1.
    """
    sd_diag = np.sqrt(1.0 / (2.0 * lam))
    dof = 2.0 * np.arange(n - 1, 0, -1)
    diag = np.empty((m, n))
    off = np.empty((m, n - 1))
    for i, gen in enumerate(stream_generators(seed, base_stream, m)):
        diag[i] = gen.normal(0.0, sd_diag, n)
        off[i] = gen.chisquare(dof)
    np.sqrt(off, out=off)
    off *= np.sqrt(1.0 / (4.0 * lam))
    return diag, off


def _blocks(n_samples: int):
    for s in range(0, n_samples, _LOG_GAS_BLOCK):
        yield s, min(s + _LOG_GAS_BLOCK, n_samples)


def sample_log_gas(n: int, rho_bar: float, rng: RngStream) -> Configuration:
    """n points of the quadratic-confinement log-gas, sorted ascending: row 0
    of the batch on stream ``rng``.  A tie (probability zero) raises
    :class:`SamplingError`."""
    ev = sample_log_gas_batch(n, rho_bar, rng.seed, 1, base_stream=rng.stream_id)[0]
    if n >= 2 and np.min(np.diff(ev)) <= 0.0:
        raise SamplingError("tied eigenvalues in log-gas draw")
    return Configuration(ev, (-np.inf, np.inf))


def sample_log_gas_batch(n: int, rho_bar: float, seed: int, n_samples: int,
                         base_stream: int = 0) -> np.ndarray:
    """(n_samples, n) array of sorted draws, one stream per sample.

    Each stream's draws are fixed, so the result is identical however the
    batch is chunked; matrices are eigensolved in stacked blocks.
    """
    lam = _check_log_gas(n, rho_bar)
    out = np.empty((n_samples, n))
    idx = np.arange(n)
    for s, e in _blocks(n_samples):
        diag, off = _tridiagonal_batch(n, lam, seed, e - s, base_stream + s)
        mats = np.zeros((e - s, n, n))
        mats[:, idx, idx] = diag
        mats[:, idx[1:], idx[:-1]] = off   # eigvalsh reads the lower triangle
        out[s:e] = np.linalg.eigvalsh(mats)
    return out


def _count_below(diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues below each shift, per row: the negative pivots of the
    LDL^T factorization of T - shift I (Sylvester's law of inertia).

    ``shifts`` has shape (k, 1); the result has shape (k, rows).  As in
    LAPACK's bisection, a pivot with |q| <= pivmin is replaced by -pivmin
    before it is counted: it counts as negative, and every quotient stays
    below max(off_sq) / pivmin, so nothing divides by zero or overflows.
    """
    pivmin = np.finfo(float).tiny * max(1.0, float(off_sq.max(initial=0.0)))
    q = diag[:, 0] - shifts
    below = np.zeros(q.shape, dtype=np.int64)
    for k in range(diag.shape[1]):
        if k:
            q = (diag[:, k] - shifts) - off_sq[:, k - 1] / q
        q[np.abs(q) <= pivmin] = -pivmin
        below += q < 0.0
    return below


def log_gas_window_counts(n: int, rho_bar: float, seed: int, n_samples: int,
                          half: float, base_stream: int = 0) -> np.ndarray:
    """Number of points in (-half, half) for each of n_samples log-gas draws.

    The draws are those of :func:`sample_log_gas_batch` on the same streams;
    counts come from Sturm sequences at +-half in O(n) per draw, with no
    eigensolve.
    """
    lam = _check_log_gas(n, rho_bar)
    shifts = np.array([[half], [-half]])
    counts = np.empty(n_samples, dtype=np.int64)
    for s, e in _blocks(n_samples):
        diag, off = _tridiagonal_batch(n, lam, seed, e - s, base_stream + s)
        below = _count_below(diag, off * off, shifts)
        counts[s:e] = below[0] - below[1]
    return counts


def sample_poisson(intensity: float, region: Box, rng: RngStream) -> Configuration:
    """Homogeneous Poisson configuration on a box: Poisson(intensity * volume)
    many i.i.d. uniform points."""
    POSITIVE("intensity", intensity, ValueError)
    region = region if isinstance(region, Box) else Box(region)
    gen = rng.generator()
    count = int(gen.poisson(intensity * region.volume))
    lo, hi = region.bounds[:, 0], region.bounds[:, 1]
    pts = gen.uniform(lo, hi, size=(count, region.dim))
    if region.dim == 1:
        return Configuration(np.sort(pts[:, 0]), (float(lo[0]), float(hi[0])))
    return Configuration(pts, region)


def sample_poisson_batch(intensity: float, region: Box, seed: int, n_samples: int,
                         base_stream: int = 0) -> list[Configuration]:
    """n_samples independent Poisson configurations on streams base_stream + i."""
    return [sample_poisson(intensity, region, RngStream(seed, base_stream + i))
            for i in range(n_samples)]
