import time

import numpy as np
import pytest

import dysonlab as dl
from dysonlab.errors import DegenerateProjectionError, KernelValidityError
from dysonlab.spectral import _gauss_legendre

from conftest import synthetic_rank1_decomposition, phi_of
from oracles import gauss_legendre_mp_oracle, resolvent_l_oracle


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


RULE_SIZES = (8, 9, 48, 256, 1024)
EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_matches_40_digit_rule_at_every_node(n):
    # the nonnegative half; the mirror test covers the rest bit for bit
    x, w = _gauss_legendre(n)
    roots, weights = gauss_legendre_mp_oracle(n, x[n // 2:])
    node_err = [abs(float(r - v)) for r, v in zip(roots, x[n // 2:])]
    weight_err = [abs(float((m - v) / m)) for m, v in zip(weights, w[n // 2:])]
    # measured: 6.2e-17 and 6.7 n eps at most over these sizes
    assert max(node_err) <= EPS
    assert max(weight_err) <= 16 * n * EPS


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_integrates_even_powers_exactly(n):
    x, w = _gauss_legendre(n)
    for k in range(n):                  # degrees 0, 2, ..., 2n - 2
        assert np.sum(w * x ** (2 * k)) == pytest.approx(2 / (2 * k + 1), rel=16 * n * EPS)


@pytest.mark.parametrize("n", (1, 2, 3) + RULE_SIZES + (255, 4096))
def test_rule_is_mirrored_bit_for_bit(n):
    x, w = _gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


def test_rule_of_4096_nodes_takes_under_a_second():
    t0 = time.perf_counter()
    _gauss_legendre(4096)
    assert time.perf_counter() - t0 < 1.0


def _gram_and_eigh_calls(monkeypatch, kernel, window, n):
    """The decomposition, its symmetrized Gram on the same rule, and the
    orders of the eigh calls the decomposition made."""
    calls, eigh = [], np.linalg.eigh

    def counting_eigh(a):
        calls.append(a.shape[0])
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    d = dl.nystrom_decompose(kernel, window, n)
    sw = np.sqrt(d.weights)
    gram = sw[:, None] * kernel.eval(d.nodes[:, None], d.nodes[None, :]) * sw[None, :]
    return d, 0.5 * (gram + gram.T), calls


@pytest.mark.parametrize("family, params, window", [
    ("product", {"alpha": 0.5, "scale": 1.0}, (-1.0, 1.0)),
    ("sine", {"rho_bar": 1.0}, (-3.0, 3.0)),
])
@pytest.mark.parametrize("n", (48, 400, 1024))
def test_flip_symmetric_gram_splits_into_half_size_eigensolves(monkeypatch, family,
                                                               params, window, n):
    kernel = dl.construct_kernel(family, **params)
    d, gram, calls = _gram_and_eigh_calls(monkeypatch, kernel, window, n)
    assert np.array_equal(gram, gram[::-1, ::-1]) and calls == [n // 2, n // 2]
    assert np.all(np.diff(d.raw_eigenvalues) <= 0)
    assert np.max(np.abs(d.raw_eigenvalues - np.linalg.eigh(gram)[0][::-1])) <= 1e-14
    v = d.eigenvectors * np.sqrt(d.weights)[:, None]
    assert np.max(np.linalg.norm(gram @ v - v * d.raw_eigenvalues, axis=0)) <= 1e-14
    orth = d.eigenvectors.T @ (d.weights[:, None] * d.eigenvectors)
    assert np.max(np.abs(orth - np.eye(n))) <= 1e-13


@pytest.mark.parametrize("family, params, window, n", [
    ("sine", {"rho_bar": 1.0}, (0.0, 6.0), 256),        # off-centre window
    ("bessel", {"order": 0.5}, (0.0, 10.0), 64),        # half-line kernel
    ("product", {"alpha": 0.5, "scale": 1.0}, (-1.0, 1.0), 49),   # odd n
])
def test_other_grams_take_one_full_eigh_bit_for_bit(monkeypatch, family, params,
                                                   window, n):
    kernel = dl.construct_kernel(family, **params)
    d, gram, calls = _gram_and_eigh_calls(monkeypatch, kernel, window, n)
    assert calls == [n]
    lam, vecs = np.linalg.eigh(gram)
    assert np.array_equal(d.raw_eigenvalues, lam[::-1])
    assert np.array_equal(d.eigenvectors, vecs[:, ::-1] / np.sqrt(d.weights)[:, None])
