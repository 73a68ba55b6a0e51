"""Windowed integral-operator spectra by Nystrom quadrature.

The windowed operator (restrict, apply kernel, restrict) is discretized on
Gauss-Legendre nodes through the symmetrized scheme

    G[q, q'] = sqrt(w_q) K(x_q, x_q') sqrt(w_q'),

whose eigenpairs converge to the operator's as the node count grows.  The
stored eigenvectors are node values of weight-normalized eigenfunctions,
i.e. sum_q w_q phi_i(x_q) phi_j(x_q) = delta_ij, and eigenfunctions extend
off the node set by

    phi_i(x) = (1/lambda_i) sum_q w_q K(x, x_q) phi_i(x_q),

which reproduces the node values exactly (eigenfunction_values, for the
DPP sampler).  The Janossy kernel L = K (Id - K)^-1 = K + K (Id - K)^-1 K
is, on the same rule and with r_i(x) = lambda_i phi_i(x),

    L(x, x') = K(x, x') + sum_i r_i(x) r_i(x') / (1 - lambda_i),

so K(x, x') is used exactly and no eigenpair is dropped.

Eigenvalues are validated against the [0, 1] operator band and then
clamped into it so that downstream Bernoulli sampling never sees
discretization noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DegenerateProjectionError, KernelValidityError

# eigenvalues within a whisker of 1 make 1/(1-lambda) meaningless
_PROJECTION_EPS = 1e-12
# eigenfunctions below this weight are never extended nor sampled
RETAIN_CUTOFF = 1e-12


@dataclass
class SpectralDecomposition:
    """Quadrature rule plus eigenpairs of one windowed operator."""

    kernel: object
    window: tuple
    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray      # descending, clamped to [0, 1]
    eigenvectors: np.ndarray     # column i = phi_i at nodes
    raw_eigenvalues: np.ndarray  # descending, before clamping
    clamp_tol: float = 1e-8

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def trace(self) -> float:
        return float(self.eigenvalues.sum())


def nystrom_decompose(kernel, window, n_nodes: int, validate: bool = True,
                      clamp_tol: float = 1e-8) -> SpectralDecomposition:
    """Discretize the windowed operator and eigendecompose it.

    With ``validate`` set, an eigenvalue below -10*clamp_tol or above
    1 + 10*clamp_tol raises :class:`KernelValidityError` (the kernel does
    not define a determinantal field).  ``validate=False`` skips the check
    and is what the report-producing validator uses.
    """
    if n_nodes < 8:
        raise ValueError("n_nodes must be at least 8")
    a, b = float(window[0]), float(window[1])
    x0, w0 = leggauss(n_nodes)
    nodes = 0.5 * (b - a) * x0 + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w0

    kmat = kernel.eval(nodes[:, None], nodes[None, :])
    if not np.all(np.isfinite(kmat)):
        raise KernelValidityError("kernel is not finite on the quadrature grid")
    sw = np.sqrt(weights)
    gram = sw[:, None] * kmat * sw[None, :]
    gram = 0.5 * (gram + gram.T)
    lam, vecs = np.linalg.eigh(gram)
    lam = lam[::-1].copy()
    vecs = vecs[:, ::-1]

    if validate and (lam.min() < -10 * clamp_tol or lam.max() > 1.0 + 10 * clamp_tol):
        raise KernelValidityError(
            f"eigenvalues outside [0, 1] band: min {lam.min():.3e}, max {lam.max():.6g}")

    clamped = np.clip(lam, 0.0, 1.0)
    phi = vecs / sw[:, None]
    return SpectralDecomposition(kernel, (a, b), nodes, weights,
                                 clamped, phi, lam, clamp_tol)


def _extension(decomp: SpectralDecomposition):
    """(extend, kept): extend(x) is the Nystrom extension at the 1-d array x
    of the eigenfunctions with lambda > RETAIN_CUTOFF, whose index array into
    decomp.eigenvalues is kept.  Their eigenvector block is copied here, once,
    as the fancy index lays it out; a different layout changes the sums."""
    kept = np.flatnonzero(decomp.eigenvalues > RETAIN_CUTOFF)
    block, lam = decomp.eigenvectors[:, kept], decomp.eigenvalues[kept]

    def extend(x):
        rows = decomp.kernel.eval(x[:, None], decomp.nodes[None, :]) * decomp.weights
        return rows @ block / lam
    return extend, kept


def eigenfunction_values(decomp: SpectralDecomposition, x):
    """Nystrom extension of all eigenfunctions with lambda > RETAIN_CUTOFF.

    Returns (values, kept) where values has shape (len(x), n_kept) and
    kept is the index array into decomp.eigenvalues.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    extend, kept = _extension(decomp)
    return extend(x), kept


def _non_projection_eigenvalues(decomp: SpectralDecomposition) -> np.ndarray:
    """The eigenvalues, once none of them is numerically 1, where 1 - lambda
    vanishes in both fredholm_det and L."""
    lam = decomp.eigenvalues
    if lam.size and lam.max() >= 1.0 - _PROJECTION_EPS:
        raise DegenerateProjectionError(
            f"top eigenvalue {lam.max():.15f} is numerically a projection direction")
    return lam


def fredholm_det(decomp: SpectralDecomposition) -> float:
    """prod_i (1 - lambda_i), the probability of an empty window,
    accumulated in log space."""
    return float(np.exp(np.sum(np.log1p(-_non_projection_eigenvalues(decomp)))))


def l_matrix(decomp: SpectralDecomposition, points) -> np.ndarray:
    """L evaluated on the n x n grid of a point tuple, by the resolvent
    identity L = K + K (Id - K)^-1 K on the decomposition's rule."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    lam = _non_projection_eigenvalues(decomp)
    k = decomp.kernel
    r = (k.eval(pts[:, None], decomp.nodes[None, :]) * decomp.weights) @ decomp.eigenvectors
    return k.eval(pts[:, None], pts[None, :]) + (r / (1.0 - lam)) @ r.T
