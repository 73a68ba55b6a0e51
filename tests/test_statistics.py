import numpy as np
import pytest

import dysonlab as dl
from dysonlab import RngStream


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
    ev = dl.SeriesEvaluator(zero_decomp, k_max=3, qmc_points=256)
    val, bound = ev.value_and_bound([])
    assert val == pytest.approx(1.0, abs=1e-14)
    assert bound == pytest.approx(0.0, abs=1e-14)


def test_series_kmax0_is_rho(product_lip_decomp, product_lip_kernel):
    val, _ = dl.SeriesEvaluator(product_lip_decomp, k_max=0).value_and_bound([0.2])
    assert val == pytest.approx(dl.rho_det(product_lip_kernel, [0.2]), rel=1e-12)


def test_series_term_symmetry(product_lip_decomp):
    # the k = 1 and k = 2 tensor terms must not depend on tuple ordering
    ev = dl.SeriesEvaluator(product_lip_decomp, k_max=2)
    for k in (1, 2):
        a, _ = ev.term(np.array([-0.3, 0.4]), k)
        b, _ = ev.term(np.array([0.4, -0.3]), k)
        assert a == pytest.approx(b, rel=1e-12)


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
