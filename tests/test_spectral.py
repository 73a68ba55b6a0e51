import numpy as np
import pytest

import dysonlab as dl
from dysonlab.errors import DegenerateProjectionError, KernelValidityError

from conftest import synthetic_rank1_decomposition, phi_of
from oracles import resolvent_l_oracle


def test_sine_trace(sine_decomp):
    # trace of the windowed operator equals rho_bar * window length
    assert sine_decomp.eigenvalues.sum() == pytest.approx(6.0, abs=1e-6)


def test_trace_identity(sine_decomp, sine_kernel):
    quad = np.sum(sine_decomp.weights * sine_kernel.eval(sine_decomp.nodes,
                                                         sine_decomp.nodes))
    assert sine_decomp.raw_eigenvalues.sum() == pytest.approx(quad, abs=1e-8)


def test_weights_sum_to_window_length(sine_decomp):
    assert sine_decomp.weights.sum() == pytest.approx(6.0, rel=1e-14)


def test_eigenvalues_descending_and_clamped(sine_decomp, product_half_decomp):
    for d in (sine_decomp, product_half_decomp):
        lam = d.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert lam.min() >= 0.0 and lam.max() <= 1.0


def test_quadrature_refinement_stability(sine_kernel):
    d128 = dl.nystrom_decompose(sine_kernel, (-3, 3), 128)
    d256 = dl.nystrom_decompose(sine_kernel, (-3, 3), 256)
    assert np.max(np.abs(d128.eigenvalues[:10] - d256.eigenvalues[:10])) < 1e-8


def test_discrete_orthonormality(sine_decomp):
    phi = sine_decomp.eigenvectors
    gram = phi.T @ (sine_decomp.weights[:, None] * phi)
    assert np.max(np.abs(gram - np.eye(phi.shape[1]))) < 1e-8


def test_mercer_reconstruction_on_nodes(product_half_decomp, product_half_kernel):
    d = product_half_decomp
    recon = (d.eigenvectors * d.raw_eigenvalues) @ d.eigenvectors.T
    target = product_half_kernel.eval(d.nodes[:, None], d.nodes[None, :])
    assert np.max(np.abs(recon - target)) < 1e-10


def test_mercer_error_decreases_with_nodes(sine_kernel):
    grid = np.linspace(-2.5, 2.5, 101)
    target = sine_kernel.eval(grid[:, None], grid[None, :])
    errs = []
    # below n = 18 the error still falls by > 100x per step; beyond it the
    # comparison would only rank roundoff
    for n in (12, 14, 16):
        d = dl.nystrom_decompose(sine_kernel, (-3, 3), n)
        p, kept = dl.eigenfunction_values(d, grid)
        errs.append(np.max(np.abs((p * d.eigenvalues[kept]) @ p.T - target)))
    assert errs[0] > errs[1] > errs[2]


def test_zero_kernel_spectrum(zero_decomp):
    assert np.all(zero_decomp.eigenvalues == 0.0)
    assert dl.fredholm_det(zero_decomp) == 1.0
    assert np.array_equal(dl.l_matrix(zero_decomp, [0.1, -0.2]), np.zeros((2, 2)))


def test_rank1_bump_kernel_spectrum():
    d = synthetic_rank1_decomposition(eigenvalue=1.0)
    # rebuild from the kernel itself: lambda_1 ~ 1, the rest ~ 0
    nd = dl.nystrom_decompose(d.kernel, (-3, 3), 96)
    assert nd.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(nd.eigenvalues[1]) < 1e-10


def test_fredholm_det_single_eigenvalue():
    d = synthetic_rank1_decomposition(eigenvalue=0.5)
    assert dl.fredholm_det(d) == pytest.approx(0.5, rel=1e-12)


def test_fredholm_det_in_unit_interval(product_half_decomp, product_lip_decomp):
    for d in (product_half_decomp, product_lip_decomp):
        v = dl.fredholm_det(d)
        assert 0.0 < v <= 1.0


def test_degenerate_projection_raises():
    d = synthetic_rank1_decomposition(eigenvalue=1.0)
    with pytest.raises(DegenerateProjectionError):
        dl.fredholm_det(d)
    with pytest.raises(DegenerateProjectionError):
        dl.l_matrix(d, [0.0])


def test_l_kernel_single_eigenpair():
    d = synthetic_rank1_decomposition(eigenvalue=0.5)
    phi = phi_of(d)
    pts = np.array([-1.2, 0.0, 0.7, 0.3, 0.3, -2.0])
    # lambda/(1-lambda) = 1, so L(x, y) = phi(x) phi(y)
    got = dl.l_matrix(d, pts)
    assert np.allclose(got, np.outer(phi(pts), phi(pts)), atol=1e-12)


def test_l_matrix_matches_series(product_lip_decomp, product_half_decomp):
    # the resolvent series K + K^2 + ... summed by one linear solve
    pts = np.array([-0.4, 0.3, -0.18921550843201085])
    for d in (product_lip_decomp, product_half_decomp):
        L = dl.l_matrix(d, pts)
        ref = resolvent_l_oracle(d.kernel, d.nodes, d.weights, pts)
        assert np.max(np.abs(L - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert L[0, 1] == pytest.approx(L[1, 0], abs=1e-12)


def test_stacked_l_matrix_matches_each_tuple(product_half_dyn_decomp):
    # a stack of tuples (..., n) gives each tuple's own n x n matrix, bit for bit
    gen = np.random.default_rng(8)
    for shape in ((161, 2), (4, 5, 3), (1, 1)):
        pts = gen.uniform(-1.5, 1.5, shape)
        got = dl.l_matrix(product_half_dyn_decomp, pts)
        assert got.shape == (*shape, shape[-1])
        for idx in np.ndindex(shape[:-1]):
            assert np.array_equal(got[idx], dl.l_matrix(product_half_dyn_decomp, pts[idx]))


def test_invalid_kernel_raises_on_decompose():
    grid = np.linspace(-1, 1, 9)
    k = dl.construct_kernel("custom", grid=grid, values=2.0 * np.ones((9, 9)))
    with pytest.raises(KernelValidityError):
        dl.nystrom_decompose(k, (-1, 1), 64)


def test_nystrom_extension_matches_nodes(sine_decomp):
    # exact in exact arithmetic; rounding is amplified by 1/lambda, so
    # assert on the columns whose eigenvalue is not at the noise floor
    vals, kept = dl.eigenfunction_values(sine_decomp, sine_decomp.nodes[:8])
    strong = sine_decomp.eigenvalues[kept] > 1e-6
    assert np.allclose(vals[:, strong],
                       sine_decomp.eigenvectors[:8, kept[strong]], atol=1e-9)
