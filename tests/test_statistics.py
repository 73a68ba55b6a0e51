import tracemalloc
from math import factorial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import dysonlab as dl
from dysonlab import RngStream
from dysonlab.statistics import palm_integrals
from oracles import bordered_det_oracle, sobol_det_oracle, sobol_points


def test_rho_det_values(sine_kernel):
    assert dl.rho_det(sine_kernel, [0.37]) == pytest.approx(1.0)
    k07 = dl.construct_kernel("sine", rho_bar=0.7)
    assert dl.rho_det(k07, [-1.3]) == pytest.approx(0.7)
    assert dl.rho_det(sine_kernel, [0.2, 0.2]) == pytest.approx(0.0, abs=1e-14)
    assert dl.rho_det(sine_kernel, [0.0, 0.5]) == pytest.approx(1 - (2 / np.pi) ** 2,
                                                               abs=1e-12)
    assert dl.rho_det(sine_kernel, []) == 1.0


def test_negative_correlation_inequality(product_half_kernel):
    gen = np.random.default_rng(3)
    x = gen.uniform(-2, 2, 40)
    for kernel in (product_half_kernel, dl.construct_kernel("sine", rho_bar=0.9)):
        d1 = kernel.eval(x, x)
        for i in range(0, 40, 5):
            for j in range(1, 40, 7):
                assert (dl.rho_det(kernel, [x[i], x[j]])
                        <= d1[i] * d1[j] + 1e-12)


def test_estimate_correlation_order1(sine_samples):
    edges = np.linspace(-3, 3, 9)
    bins = list(zip(edges[:-1], edges[1:]))
    est = dl.estimate_correlation(sine_samples, 1, bins)
    assert np.all(np.abs(est.values - 1.0) <= 3 * est.std_errors)


def test_order1_integrates_to_mean_count(sine_samples):
    edges = np.linspace(-3, 3, 13)
    bins = list(zip(edges[:-1], edges[1:]))
    est = dl.estimate_correlation(sine_samples, 1, bins)
    total = np.sum(est.values * np.diff(edges))
    counts = np.array([c.count for c in sine_samples])
    # half-open bins can only drop points sitting exactly on the right edge
    assert total == pytest.approx(counts.mean(), abs=1e-9)


def test_estimate_correlation_order2_oracle(sine_samples, sine_kernel):
    bins = [(-0.1, 0.1), (0.4, 0.6)]
    est = dl.estimate_correlation(sine_samples, 2, bins, pairs=[(0, 1)])
    oracle = dl.rho_det(sine_kernel, [0.0, 0.5])
    assert abs(est.values[0] - oracle) <= 3 * est.std_errors[0]


def test_estimate_correlation_order2_same_bin(sine_samples, sine_kernel):
    bins = [(-0.5, 0.5)]
    est = dl.estimate_correlation(sine_samples, 2, bins, pairs=[(0, 0)])
    # factorial-moment average of rho2 over the bin
    xs = np.linspace(-0.5, 0.5, 41)
    grid = np.array([[dl.rho_det(sine_kernel, [a, b]) for b in xs] for a in xs])
    oracle = np.trapezoid(np.trapezoid(grid, xs, axis=1), xs)  # volume already 1
    assert abs(est.values[0] - oracle) <= 3 * est.std_errors[0]


def test_poisson_pair_correlation_factorizes():
    box = dl.Box([[0, 1]] * 3)
    samples = [dl.sample_poisson(1.0, box, RngStream(8, i)) for i in range(8000)]
    b1 = dl.Box([[0.0, 0.5], [0, 1], [0, 1]])
    b2 = dl.Box([[0.5, 1.0], [0, 1], [0, 1]])
    est = dl.estimate_correlation(samples, 2, [b1, b2], pairs=[(0, 1)])
    assert abs(est.values[0] - 1.0) <= 3 * est.std_errors[0]


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        dl.estimate_correlation([], 1, [(-1, 1)])


def test_sigma_zero_kernel(zero_decomp):
    assert dl.sigma_fredholm(zero_decomp, []) == 1.0
    assert dl.sigma_fredholm(zero_decomp, [0.3]) == 0.0
    dv, = dl.crosscheck_density(zero_decomp, [()], k_max=3, qmc_points=256)
    assert dv.value_series == pytest.approx(1.0, abs=1e-14)
    assert dv.truncation_bound == pytest.approx(0.0, abs=1e-14)


def test_series_kmax0_is_rho(product_lip_decomp, product_lip_kernel):
    dv, = dl.crosscheck_density(product_lip_decomp, [[0.2]], k_max=0)
    assert dv.value_series == pytest.approx(dl.rho_det(product_lip_kernel, [0.2]),
                                            rel=1e-12)


def test_series_term_symmetry(product_lip_decomp):
    # the k = 1 and k = 2 closed forms must not depend on tuple ordering
    ev = dl.SeriesEvaluator(product_lip_decomp, k_max=2)
    for k in (1, 2):
        a, _ = ev.term([[-0.3, 0.4]], k)
        b, _ = ev.term([[0.4, -0.3]], k)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("family, params, n_ill", [
    ("sine", {"rho_bar": 1.0}, [2, 132, 1728, 9689]),
    ("product", {"alpha": 0.5}, [0, 0, 0, 0]),
])
def test_sobol_terms_match_direct_determinants(family, params, n_ill):
    # k = 3..6 against det K(x u y) taken directly at every Sobol point; on
    # [-1, 1] the sine kernel sends many blocks C = K(y, y) to the bordered
    # determinant fallback, the product kernel none.  An ill block's whole
    # contribution is below 1e-12 of the Hadamard scale L^k / k!, so the
    # bound is 1e-15 of that scale (at most 1.4e-15): dropping the fallback
    # moves the sine terms by up to 4e-15
    kernel = dl.construct_kernel(family, **params)
    decomp = dl.nystrom_decompose(kernel, (-1.0, 1.0), 64)
    ev = dl.SeriesEvaluator(decomp, k_max=6, qmc_points=1 << 14)
    tuples = [(), (0.3,), (-0.75, 0.45), (0.1, 0.1 + 1e-9)]
    for k, ill in zip(range(3, 7), n_ill):
        y = sobol_points(k, (-1.0, 1.0), 1 << 14)
        c = kernel.eval(y[:, :, None], y[:, None, :])
        diag_prod = np.prod(np.einsum("mkk->mk", c), axis=1)
        assert np.count_nonzero(np.linalg.det(c) < 1e-12 * diag_prod) == ill
        terms, _ = ev.term(tuples, k)
        for x, t in zip(tuples, terms):
            direct = (-1) ** k / factorial(k) * sobol_det_oracle(kernel, x, y, 2.0 ** k)
            assert abs(t - direct) < 1e-15 * 2.0 ** k / factorial(k), (k, x, t, direct)
            assert ev.term([x], k)[0][0] == t


@pytest.mark.parametrize("qmc_points", [0, 1, 1000, 3 << 17])
def test_series_needs_a_power_of_two_of_sobol_points(zero_decomp, qmc_points):
    # the half-sample error compares the two halves as balanced nets
    with pytest.raises(ValueError, match="power of two"):
        dl.SeriesEvaluator(zero_decomp, qmc_points=qmc_points)


def test_sobol_term_memory_does_not_grow_by_blocks(product_lip_decomp):
    # a stored (qmc_points, k, k) block would add 36 MiB per 2^19 points at k = 3
    def peak(n_points):
        ev = dl.SeriesEvaluator(product_lip_decomp, k_max=3, qmc_points=n_points)
        tracemalloc.start()
        try:
            ev.term([(0.1, 0.3)], 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(1 << 20) - peak(1 << 19) < (1 << 19) * 3 * 3 * 8


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_palm_integrals_match_bordered_determinants(alpha):
    # closed forms against a direct determinant per node and node pair, for
    # tuple orders 0-3 with points inside and outside the rule's interval
    kernel = dl.construct_kernel("product", alpha=alpha)
    z, w = leggauss(12)
    kzz = kernel.eval(z[:, None], z[None, :])
    gen = np.random.default_rng(8)
    for n in range(4):
        x = np.sort(gen.uniform(-1.3, 1.3, (3, n)), axis=1)
        rho, int1, int2 = palm_integrals(kernel, x, z, w, kzz)
        for i in range(3):
            one, two = bordered_det_oracle(kernel, x[i], z, w)
            assert rho[i] == pytest.approx(dl.rho_det(kernel, x[i]), rel=1e-12)
            assert int1[i] == pytest.approx(one, rel=1e-12)
            assert int2[i] == pytest.approx(two, rel=1e-12)


@pytest.mark.parametrize("x", [[0.3, 0.3], [-0.5, 0.3, 0.3], [0.2, 0.2, 0.2]])
def test_palm_integrals_vanish_at_a_repeated_point(product_half_kernel, x):
    z, w = leggauss(12)
    kzz = product_half_kernel.eval(z[:, None], z[None, :])
    out = palm_integrals(product_half_kernel, np.array([x]), z, w, kzz)
    assert [float(v[0]) for v in out] == [0.0, 0.0, 0.0]
    one, two = bordered_det_oracle(product_half_kernel, x, z, w)
    assert abs(one) < 1e-15 and abs(two) < 1e-15


def test_crosscheck_product_lip(product_lip_decomp):
    gen = RngStream(99, 0).generator()
    tuples = [(), gen.uniform(-1, 1, 1), np.sort(gen.uniform(-1, 1, 2))]
    values = dl.crosscheck_density(product_lip_decomp, tuples, k_max=6,
                                   qmc_points=1 << 16)
    for dv in values:
        assert dv.consistent, (dv.points, dv.value_series, dv.value_fredholm,
                               dv.truncation_bound)
        # the budget must stay meaningfully small for the Lipschitz kernel
        assert dv.truncation_bound < 5e-3


def test_void_probability_matches_sampling(product_lip_decomp):
    det = dl.fredholm_det(product_lip_decomp)
    n = 3000
    sampler = dl.DppSampler(product_lip_decomp)
    empty = sum(sampler.sample(RngStream(55, i)).count == 0 for i in range(n))
    frac = empty / n
    se = np.sqrt(det * (1 - det) / n)
    assert abs(frac - det) <= 3 * se


def test_count_sum_identity(product_lip_decomp):
    lam = product_lip_decomp.eigenvalues
    sampler = dl.DppSampler(product_lip_decomp)
    counts = np.array([sampler.sample(RngStream(56, i)).count for i in range(3000)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - lam.sum()) <= 3 * se


def test_sigma_bounds_report(product_lip_decomp):
    gen = RngStream(12, 0).generator()
    tuples = [gen.uniform(-1, 1, 2) for _ in range(10)] + [np.array([0.3, 0.3])]
    rep = dl.verify_sigma_bounds(product_lip_decomp, tuples)
    assert rep.ok, rep.messages
    assert rep.max_violation <= 1e-8


def test_gap_exponent_half(gap_slope_half):
    assert 0.35 <= gap_slope_half <= 0.65


def test_gap_exponent_lipschitz(gap_slope_lip):
    assert 0.85 <= gap_slope_lip <= 1.3


def test_wrong_exponent_is_distinguishable(gap_slope_half, gap_slope_lip):
    assert gap_slope_lip - gap_slope_half > 0.3
