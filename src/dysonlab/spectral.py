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

so K(x, x') is used exactly and no eigenpair is dropped.  Both are one
product, K(x, z) W times a block of node values (_project): the retained
eigenvectors for the extension, which the sampler also makes at each
placed point, and all of them for r.

Eigenvalues are validated against the [0, 1] operator band and then
clamped into it so that downstream Bernoulli sampling never sees
discretization noise.

The rule is Newton's method on the three-term recurrence (Hale & Townsend
2013), mirrored bit for bit; an even-order Gram equal to its own flip is
eigensolved as its even and odd halves (Cantoni & Butler 1976).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProjectionError, KernelValidityError

# eigenvalues within a whisker of 1 make 1/(1-lambda) meaningless
_PROJECTION_EPS = 1e-12
# eigenfunctions below this weight are never extended nor sampled
RETAIN_CUTOFF = 1e-12
# discretization noise allowed outside [0, 1] is ten times this, before clamping
_CLAMP_TOL = 1e-8


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

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


def nystrom_decompose(kernel, window, n_nodes: int,
                      validate: bool = True) -> SpectralDecomposition:
    """Discretize the windowed operator and eigendecompose it.

    With ``validate`` set, an eigenvalue below -10*_CLAMP_TOL or above
    1 + 10*_CLAMP_TOL raises :class:`KernelValidityError` (the kernel does
    not define a determinantal field).  ``validate=False`` skips the check
    and is what the report-producing validator uses.
    """
    if n_nodes < 8:
        raise ValueError("n_nodes must be at least 8")
    a, b = float(window[0]), float(window[1])
    x0, w0 = _gauss_legendre(n_nodes)
    nodes = 0.5 * (b - a) * x0 + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w0

    kmat = kernel.eval(nodes[:, None], nodes[None, :])
    if not np.all(np.isfinite(kmat)):
        raise KernelValidityError("kernel is not finite on the quadrature grid")
    sw = np.sqrt(weights)
    gram = sw[:, None] * kmat * sw[None, :]
    gram = 0.5 * (gram + gram.T)
    lam, vecs = _eigh_descending(gram)

    if validate and (lam.min() < -10 * _CLAMP_TOL or lam.max() > 1.0 + 10 * _CLAMP_TOL):
        raise KernelValidityError(
            f"eigenvalues outside [0, 1] band: min {lam.min():.3e}, max {lam.max():.6g}")

    clamped = np.clip(lam, 0.0, 1.0)
    phi = vecs / sw[:, None]
    return SpectralDecomposition(kernel, (a, b), nodes, weights,
                                 clamped, phi, lam)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending: four
    Newton steps on the three-term recurrence from Tricomi's guesses, for
    the nonnegative nodes only, which the rest mirror bit for bit."""
    q = np.arange(n // 2, n)
    x = (1 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * (n - q) - 1) / (4 * n + 2))
    x[: n % 2] = 0.0                     # the centre node of an odd rule
    for step in range(5):                # four Newton steps; the fifth pass gives P_n'
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / ((1 - x) * (1 + x))
        x = x - p1 / dp if step < 4 else x
    w = 2 / ((1 - x) * (1 + x) * dp * dp)
    return np.concatenate([-x[n % 2:][::-1], x]), np.concatenate([w[n % 2:][::-1], w])


def _eigh_descending(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric gram, eigenvalues descending.  One of even
    order equal to its own flip splits into blocks A +- B, eigenvectors
    [u; +-u[::-1]] / sqrt(2); any other gets one full eigh."""
    n, h = gram.shape[0], gram.shape[0] // 2
    if n % 2 or not np.array_equal(gram, gram[::-1, ::-1]):
        lam, vecs = np.linalg.eigh(gram)
        return lam[::-1].copy(), vecs[:, ::-1]
    a, b = gram[:h, :h], gram[:h, h:][:, ::-1]
    (lam_e, u_e), (lam_o, u_o) = np.linalg.eigh(a + b), np.linalg.eigh(a - b)
    lam = np.concatenate([lam_e, lam_o])
    order = np.argsort(-lam, kind="stable")
    vecs = np.block([[u_e, u_o], [u_e[::-1], -u_o[::-1]]])
    return lam[order], np.sqrt(0.5) * vecs.take(order, axis=1)   # C order, as the full route gives


def _project(decomp: SpectralDecomposition, x: np.ndarray, block: np.ndarray) -> np.ndarray:
    """K(x, z) W block: the rule's row at each point of the array x times a
    block of node values (n_nodes, c), with shape x.shape + (c,).  Leading
    axes of x are a stack, each item multiplied by the block on its own: an
    (r, 1) x gives each point the product a lone point gets.  The block's
    layout is part of the sums, so a caller that needs the same bits passes
    the same copy."""
    return (decomp.kernel.eval(x[..., None], decomp.nodes) * decomp.weights) @ block


def eigenfunction_values(decomp: SpectralDecomposition, x):
    """Nystrom extension of all eigenfunctions with lambda > RETAIN_CUTOFF.

    Returns (values, kept) where values has shape x.shape + (n_kept,) (a
    scalar x counts as shape (1,)) and kept is the index array into
    decomp.eigenvalues.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    kept = np.flatnonzero(decomp.eigenvalues > RETAIN_CUTOFF)
    return _project(decomp, x, decomp.eigenvectors[:, kept]) / decomp.eigenvalues[kept], kept


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
    """L evaluated on the n x n grid of a point tuple (n,), or of each tuple
    of a stack (..., n) as (..., n, n), by the resolvent identity
    L = K + K (Id - K)^-1 K on the decomposition's rule."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    lam = _non_projection_eigenvalues(decomp)
    r = _project(decomp, pts, decomp.eigenvectors)
    return (decomp.kernel.eval(pts[..., :, None], pts[..., None, :])
            + (r / (1.0 - lam)) @ np.swapaxes(r, -1, -2))
