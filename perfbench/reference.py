"""Reference values the workloads are checked against.

Everything here is computed from the model definitions alone, with numpy
and Gauss-Legendre quadrature; nothing imports dysonlab.  A change that
corrects the program's numerics is therefore judged against the
mathematics, not against the program's earlier output.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


# ---------------------------------------------------------------------------
# finite-N log-gas
# ---------------------------------------------------------------------------

def hermite_functions(n: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0 .. h_{n-1} at x, one per row,
    by the three-term recurrence h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2}."""
    x = np.asarray(x, dtype=float)
    h = np.empty((n,) + x.shape)
    h[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for k in range(2, n):
        h[k] = math.sqrt(2.0 / k) * x * h[k - 1] - math.sqrt((k - 1) / k) * h[k - 2]
    return h


def loggas_bin_density(n: int, rho_bar: float, half: float) -> float:
    """Exact 1-point density of the N-point ensemble
    prod |x_i - x_j|^2 exp(-lam sum x_i^2), lam = (pi rho_bar)^2 / (2N),
    averaged over (-half, half): sqrt(lam) sum_{k<N} h_k(sqrt(lam) x)^2."""
    lam = (math.pi * rho_bar) ** 2 / (2.0 * n)
    x, w = gauss_legendre(-half, half, 64)
    s = math.sqrt(lam)
    density = s * np.sum(hermite_functions(n, s * x) ** 2, axis=0)
    return float(density @ w) / (2.0 * half)


# ---------------------------------------------------------------------------
# determinantal moments by tensor quadrature
# ---------------------------------------------------------------------------

def sine_kernel(rho_bar: float):
    def k(x, y):
        # np.sinc(z) = sin(pi z) / (pi z)
        return rho_bar * np.sinc(np.asarray(x) - np.asarray(y))
    return k


def product_kernel(alpha: float, scale: float):
    def k(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (np.exp(-(x / scale) ** 2) * np.exp(-np.abs(x - y) ** alpha)
                * np.exp(-(y / scale) ** 2))
    return k


def correlation(kernel, points) -> float:
    """rho_n(x_1..x_n) = det[K(x_i, x_j)]; rho_0 = 1."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 1.0
    return float(np.linalg.det(kernel(pts[:, None], pts[None, :])))


def factorial_moment(kernel, boxes, nodes: int) -> float:
    """int over boxes[0] x ... x boxes[m-1] of rho_m, by a tensor
    Gauss-Legendre rule with ``nodes`` points per coordinate.  With a box
    repeated r times this is the r-th factorial moment of its count."""
    rules = [gauss_legendre(lo, hi, nodes) for lo, hi in boxes]
    grids = np.array(list(product(*[r[0] for r in rules])))
    weights = np.prod(np.array(list(product(*[r[1] for r in rules]))), axis=1)
    mats = kernel(grids[:, :, None], grids[:, None, :])
    return float(np.linalg.det(mats) @ weights)


def rho1_bin_reference(kernel, box, n_samples: int) -> tuple[float, float]:
    """Mean and exact standard error of (count in box) / |box| averaged
    over n_samples independent draws."""
    width = box[1] - box[0]
    mean_count = factorial_moment(kernel, [box], 24)
    # 16 nodes per unit length resolve sinc^2, whose period in x - y is 1
    second = factorial_moment(kernel, [box, box], max(24, int(16 * width)))
    var = second + mean_count - mean_count ** 2
    return mean_count / width, math.sqrt(var / n_samples) / width


def rho2_pair_reference(kernel, box_i, box_j, n_samples: int) -> tuple[float, float]:
    """Mean and exact standard error of N_i N_j / (|B_i| |B_j|) over
    n_samples draws, for disjoint boxes.  E[(N_i N_j)^2] expands into
    factorial moments: rho_4 over B_i^2 x B_j^2, rho_3 over B_i^2 x B_j and
    B_i x B_j^2, and rho_2 over B_i x B_j."""
    nodes = 10
    m11 = factorial_moment(kernel, [box_i, box_j], nodes)
    m21 = factorial_moment(kernel, [box_i, box_i, box_j], nodes)
    m12 = factorial_moment(kernel, [box_i, box_j, box_j], nodes)
    m22 = factorial_moment(kernel, [box_i, box_i, box_j, box_j], nodes)
    var = m22 + m21 + m12 + m11 - m11 ** 2
    vol = (box_i[1] - box_i[0]) * (box_j[1] - box_j[0])
    return m11 / vol, math.sqrt(var / n_samples) / vol


def void_probability(kernel, window, nodes: int) -> float:
    """det(I - W^1/2 K W^1/2) on a Gauss-Legendre rule, by LU (Bornemann,
    Math. Comp. 79, 2010)."""
    x, w = gauss_legendre(window[0], window[1], nodes)
    sw = np.sqrt(w)
    sign, logdet = np.linalg.slogdet(
        np.eye(nodes) - sw[:, None] * kernel(x[:, None], x[None, :]) * sw[None, :])
    return float(sign * math.exp(logdet))


# ---------------------------------------------------------------------------
# binomial intervals
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
