"""Shared fixtures. Expensive decompositions and sample batches are
session-scoped so module tests and the acceptance suite reuse them."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import dysonlab as dl

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CallableKernel:
    """Minimal kernel wrapper for synthetic test operators."""

    def __init__(self, fn):
        self._fn = fn

    def eval(self, x, y):
        return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def synthetic_rank1_decomposition(window=(-3.0, 3.0), n_nodes=64, eigenvalue=1.0):
    """Rank-one decomposition with a discretely unit-normalized bump
    eigenfunction, so the top eigenvalue is exactly ``eigenvalue``."""
    a, b = window
    x0, w0 = leggauss(n_nodes)
    nodes = 0.5 * (b - a) * x0 + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w0
    bump = np.exp(-nodes ** 2)
    norm = np.sqrt(np.sum(weights * bump * bump))
    phi_nodes = bump / norm

    def fn(x, y):
        bx = np.exp(-x ** 2) / norm
        by = np.exp(-y ** 2) / norm
        return eigenvalue * bx * by

    lam = np.zeros(n_nodes)
    lam[0] = eigenvalue
    vecs = np.zeros((n_nodes, n_nodes))
    vecs[:, 0] = phi_nodes
    # remaining columns: any discretely orthonormal completion (unused weight)
    basis = np.eye(n_nodes)
    q, _ = np.linalg.qr(np.column_stack([phi_nodes * np.sqrt(weights), basis[:, 1:]]))
    vecs[:, 1:] = (q[:, 1:] / np.sqrt(weights)[:, None])
    return dl.SpectralDecomposition(CallableKernel(fn), (a, b), nodes, weights,
                                    lam, vecs, lam.copy())


def phi_of(decomp):
    """The bump eigenfunction of the synthetic rank-one decomposition."""
    def phi(x):
        row, _ = dl.eigenfunction_values(decomp, x)
        return row[:, 0]
    return phi


@pytest.fixture(scope="session")
def sine_kernel():
    return dl.construct_kernel("sine", rho_bar=1.0)


@pytest.fixture(scope="session")
def sine_decomp(sine_kernel):
    return dl.nystrom_decompose(sine_kernel, (-3.0, 3.0), 256)


@pytest.fixture(scope="session")
def sine_samples(sine_decomp):
    """10^4 exact draws of the sine field on [-3, 3] (seed 20240601)."""
    return dl.sample_dpp_batch(sine_decomp, 20240601, 10_000)


@pytest.fixture(scope="session")
def product_half_kernel():
    return dl.construct_kernel("product", alpha=0.5)


@pytest.fixture(scope="session")
def product_lip_kernel():
    return dl.construct_kernel("product", alpha=1.0)


@pytest.fixture(scope="session")
def product_half_decomp(product_half_kernel):
    return dl.nystrom_decompose(product_half_kernel, (-1.0, 1.0), 1024)


@pytest.fixture(scope="session")
def product_lip_decomp(product_lip_kernel):
    return dl.nystrom_decompose(product_lip_kernel, (-1.0, 1.0), 1024)


@pytest.fixture(scope="session")
def product_half_dyn_decomp(product_half_kernel):
    """Coarser decomposition for the dynamics probes."""
    return dl.nystrom_decompose(product_half_kernel, (-1.0, 1.0), 400)


@pytest.fixture(scope="session")
def product_lip_dyn_decomp(product_lip_kernel):
    return dl.nystrom_decompose(product_lip_kernel, (-1.0, 1.0), 400)


@pytest.fixture(scope="session")
def product_half_drift_table(product_half_dyn_decomp):
    return dl.PairDriftTable(product_half_dyn_decomp)


@pytest.fixture(scope="session")
def product_lip_drift_table(product_lip_dyn_decomp):
    return dl.PairDriftTable(product_lip_dyn_decomp)


@pytest.fixture(scope="session")
def gap_slope_half(product_half_decomp):
    return dl.fit_gap_exponent(product_half_decomp)


@pytest.fixture(scope="session")
def gap_slope_lip(product_lip_decomp):
    return dl.fit_gap_exponent(product_lip_decomp)


@pytest.fixture(scope="session")
def zero_kernel():
    grid = np.linspace(-1.0, 1.0, 9)
    return dl.construct_kernel("custom", grid=grid, values=np.zeros((9, 9)))


@pytest.fixture(scope="session")
def zero_decomp(zero_kernel):
    return dl.nystrom_decompose(zero_kernel, (-1.0, 1.0), 32)
