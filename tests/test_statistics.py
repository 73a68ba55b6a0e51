import tracemalloc
import warnings
from math import factorial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

import dysonlab as dl
from dysonlab import RngStream
from dysonlab.statistics import palm_integrals
from dysonlab.statistics import (_CHUNK, _QMC_SEED, _SOBOL_DIMS, _bin_counts,
                                 _elementary_symmetric_tail, _sobol_slices, _sobol_table)
from dysonlab import statistics
from oracles import (bin_counts_oracle, bordered_det_oracle, sobol_det_oracle,
                     sobol_integrals_oracle, sobol_points)


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


def test_bin_counts_match_per_sample_loop():
    # points on a 1/8 lattice land exactly on the 1/4 bin edges; a third of
    # the configurations are empty, and the pair bins overlap and nest
    gen = np.random.default_rng(11)
    samples = []
    for i in range(60):
        n = 0 if i % 3 == 0 else int(gen.integers(1, 9))
        pts = np.unique(gen.integers(-16, 17, n) / 8.0)
        samples.append(dl.Configuration(pts))
    edges = np.linspace(-2.0, 2.0, 17)
    bins1 = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    bins2 = [(-0.5, 0.5), (0.0, 1.0), (0.25, 0.5), (-2.0, 2.0)]
    for bins in (bins1, bins2):
        ref = bin_counts_oracle(samples, bins)
        assert np.array_equal(_bin_counts(samples, bins), ref)
        assert ref[::3].sum() == 0
    ref = bin_counts_oracle(samples, bins1)
    est = dl.estimate_correlation(samples, 1, bins1)
    assert np.array_equal(est.values, (ref / 0.25).mean(axis=0))
    ref = bin_counts_oracle(samples, bins2)
    vols = np.array([hi - lo for lo, hi in bins2])
    pairs = [(0, 1), (1, 2), (2, 2), (0, 3), (3, 3)]
    est = dl.estimate_correlation(samples, 2, bins2, pairs=pairs)
    for (i, j), v in zip(pairs, est.values):
        nj = ref[:, j] - (i == j)
        assert v == pytest.approx(np.mean(ref[:, i] * nj) / (vols[i] * vols[j]),
                                  rel=1e-12, abs=1e-15)
    # every point sits in exactly one of the 16 lattice bins but x = 2.0
    total = sum(int(np.count_nonzero(c.points < 2.0)) for c in samples)
    assert _bin_counts(samples, bins1).sum() == total


def test_correlation_errors_are_std_over_root_n(sine_samples):
    # every draw has its own stream: std / sqrt(n) of the per-sample values
    samples = sine_samples[:3000]
    edges = np.linspace(-3, 3, 7)
    bins = list(zip(edges[:-1], edges[1:]))
    counts, vols = _bin_counts(samples, bins), np.diff(edges)
    root_n = np.sqrt(len(samples))
    est1 = dl.estimate_correlation(samples, 1, bins)
    np.testing.assert_allclose(est1.std_errors,
                               (counts / vols).std(axis=0, ddof=1) / root_n, rtol=1e-12)
    est2 = dl.estimate_correlation(samples, 2, bins, pairs=[(0, 1), (2, 2)])
    per_sample = np.stack([counts[:, 0] * counts[:, 1] / (vols[0] * vols[1]),
                           counts[:, 2] * (counts[:, 2] - 1) / vols[2] ** 2], axis=1)
    np.testing.assert_allclose(est2.std_errors,
                               per_sample.std(axis=0, ddof=1) / root_n, rtol=1e-12)


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


ORDERS_3_AND_4 = [(-0.6, 0.1, 0.7), (-0.5, -0.2, 0.2, 0.2), (0.3,), (), (-0.9, -0.3, 0.4, 0.8)]


@pytest.mark.parametrize("family, params, tuples, n_points", [
    # rank one: every block of two or more points is singular, so every
    # Sobol block meets a pivot that is not positive and takes the fallback
    ("custom", {"grid": [-2.0, 2.0], "values": [[0.3, 0.3], [0.3, 0.3]]},
     [(), (0.3,), (-0.75, 0.45)], 1 << 10),
    # Schur blocks of 3 x 3 (closed form) and 4 x 4 (LU), one with a
    # repeated point, batched with lower orders
    ("sine", {"rho_bar": 1.0}, ORDERS_3_AND_4, 1 << 12),
    ("product", {"alpha": 0.5}, ORDERS_3_AND_4, 1 << 12),
])
def test_sobol_terms_are_silent_and_batch_independent(family, params, tuples, n_points):
    kernel = dl.construct_kernel(family, **params)
    decomp = dl.nystrom_decompose(kernel, (-1.0, 1.0), 16)
    ev = dl.SeriesEvaluator(decomp, k_max=6, qmc_points=n_points)
    lone = dl.SeriesEvaluator(decomp, k_max=6, qmc_points=n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(3, 7):
            y = sobol_points(k, (-1.0, 1.0), n_points)
            c = kernel.eval(y[:, :, None], y[:, None, :])
            diag_prod = np.prod(np.einsum("mkk->mk", c), axis=1)
            terms, _ = ev.term(tuples, k)
            assert ev.ill_blocks[k] == np.count_nonzero(np.linalg.det(c) < 1e-12 * diag_prod)
            for x, t in zip(tuples, terms):
                direct = (-1) ** k / factorial(k) * sobol_det_oracle(kernel, x, y, 2.0 ** k)
                assert abs(t - direct) < 1e-15 * 2.0 ** k / factorial(k), (k, x, t, direct)
                assert lone.term([x], k)[0][0] == t
    if family == "custom":
        assert ev.ill_blocks == {k: n_points for k in range(3, 7)}


def test_series_counts_ill_blocks_per_order():
    # the counts the np.linalg.det rule gives in
    # test_sobol_terms_match_direct_determinants
    kernel = dl.construct_kernel("sine", rho_bar=1.0)
    ev = dl.SeriesEvaluator(dl.nystrom_decompose(kernel, (-1.0, 1.0), 64), k_max=6,
                            qmc_points=1 << 14)
    assert ev.ill_blocks == {}
    for k in range(7):
        ev.term([(0.3,)], k)
    assert ev.ill_blocks == {3: 2, 4: 132, 5: 1728, 6: 9689}


def test_elementary_symmetric_tail_sums_the_polynomial_coefficients():
    # prod_i (z + lam_i) = sum_k e_k(lam) z^(12 - k)
    lam = np.random.default_rng(11).uniform(0.0, 1.0, 12)
    e = np.poly(-lam)
    for k_max in range(14):
        assert _elementary_symmetric_tail(lam, k_max) == pytest.approx(e[k_max + 1:].sum(),
                                                                      rel=1e-12, abs=0)


def test_remainder_is_the_symmetric_function_tail(product_lip_decomp, product_lip_kernel):
    ev = dl.SeriesEvaluator(product_lip_decomp, k_max=4)
    tail = _elementary_symmetric_tail(product_lip_decomp.eigenvalues, 4)
    assert tail > 0
    for x in [(), (0.3,), (-0.5, 0.2), (0.1, 0.1)]:
        assert ev.remainder_bound(x) == max(dl.rho_det(product_lip_kernel, x), 0.0) * tail


@pytest.mark.parametrize("qmc_points, k_max, match", [
    (0, 6, "power of two"), (1, 6, "power of two"), (1000, 6, "power of two"),
    (3 << 17, 6, "power of two"),
    # the Sobol sequence has 2^30 points and one dimension per direction-number row
    (1 << 31, 6, "to 2\\^30"), (1 << 10, _SOBOL_DIMS + 1, "k_max")],
    ids=["0", "1", "1000", "393216", "2147483648", "k_max-21202"])
def test_series_needs_a_power_of_two_of_sobol_points(zero_decomp, qmc_points, k_max, match):
    # the half-sample error compares the two halves as balanced nets
    with pytest.raises(ValueError, match=match):
        dl.SeriesEvaluator(zero_decomp, k_max=k_max, qmc_points=qmc_points)


@pytest.mark.parametrize("seed", [None, 0, 12345])
@pytest.mark.parametrize("d", [1, 2, 3, 6, 9, 40])
def test_sobol_slices_match_scipy(d, seed):
    # scipy's scrambled Sobol engine is the oracle, drawn in the same slices;
    # seed None is the series route's own seed for dimension d
    assert len(_sobol_table()[0]) == _SOBOL_DIMS == qmc.Sobol.MAXDIM
    seed = _QMC_SEED + d if seed is None else seed
    for n in [2, 64, 1 << 17, 1 << 19]:
        sob = qmc.Sobol(d=d, scramble=True, seed=seed)
        for got in _sobol_slices(d, seed, n):
            assert got.dtype == np.float64 and got.shape == (min(n, _CHUNK), d)
            assert np.array_equal(got, sob.random(got.shape[0])), (d, seed, n)
        assert sob.num_generated == n


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


def test_sobol_term_memory_does_not_grow_with_qmc_points(product_lip_decomp):
    # a stored integrand vector per tuple would add 6 MiB from 2^18 to 2^20 points
    def peak(n_points):
        ev = dl.SeriesEvaluator(product_lip_decomp, k_max=3, qmc_points=n_points)
        tracemalloc.start()
        try:
            ev.term([(0.1, 0.3)], 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(1 << 20) - peak(1 << 18) < 1 << 20


@pytest.mark.parametrize("chunk", [None, 256], ids=["chunk-default", "chunk-256"])
def test_sobol_integrals_match_whole_vector_sums(product_half_decomp, monkeypatch, chunk):
    # numpy's pairwise sum of a power-of-two vector of 256 or more values is
    # the sum of its halves' sums, so the slices' sums add up bit for bit
    if chunk is not None:
        monkeypatch.setattr(statistics, "_CHUNK", chunk)
    size = statistics._CHUNK
    tuples = [np.array([]), np.array([0.3]), np.array([-0.4, 0.5]), np.array([0.2, 0.2]),
              np.array([-0.9, 0.1, 0.7])]
    for k in (3, 4):
        for n in (2, 4, 128, size // 2, size, 2 * size, 8 * size):
            ev = dl.SeriesEvaluator(product_half_decomp, k_max=k, qmc_points=n)
            got, want = ev._sobol_integrals(tuples, k), sobol_integrals_oracle(ev, tuples, k)
            for g, o in zip(got, want):
                assert g.tobytes() == o.tobytes(), (k, n)


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


SEED7_POINT = -0.18921550843201085


def density_workload_tuples(seed):
    """The tuples of a density-crosscheck run at its defaults but n_tuples 6:
    orders 0, 1, 2 in turn on [-1, 1]."""
    gen = RngStream(seed, 0).generator()
    return [np.sort(gen.uniform(-1, 1, (0, 1, 2)[i % 3])) for i in range(6)]


def test_crosscheck_seed7_workload(product_half_decomp):
    # the spectral route's L once replaced K(x, x') by its node interpolant,
    # which put the routes 0.0087 apart at SEED7_POINT, beyond the tolerance
    tuples = density_workload_tuples(7)
    assert [SEED7_POINT] in [t.tolist() for t in tuples]
    for dv in dl.crosscheck_density(product_half_decomp, tuples, k_max=6,
                                    qmc_points=1 << 18):
        assert dv.consistent, (dv.points, dv.value_series, dv.value_fredholm,
                               dv.truncation_bound)


def test_resolution_term_covers_node_count_error(product_half_decomp,
                                                 product_half_fine_decomp):
    # criterion 3's tuples at alpha = 0.5, and the seed-7 workload's; the
    # resolution component does not depend on k_max, so k_max = 2 suffices
    gen = RngStream(314_000, 0).generator()
    crit3 = ([()] + [gen.uniform(-1, 1, 1) for _ in range(10)]
             + [np.sort(gen.uniform(-1, 1, 2)) for _ in range(9)])
    for tuples in (crit3, density_workload_tuples(7)):
        for dv in dl.crosscheck_density(product_half_decomp, tuples, k_max=2,
                                        qmc_points=2):
            err = abs(dv.value_fredholm
                      - dl.sigma_fredholm(product_half_fine_decomp, dv.points))
            assert err <= dv.components["resolution"], (dv.points, err)


def test_void_probability_matches_sampling(product_lip_decomp):
    det = dl.fredholm_det(product_lip_decomp)
    n = 3000
    empty = sum(c.count == 0 for c in dl.DppSampler(product_lip_decomp).sample_batch(55, n))
    frac = empty / n
    se = np.sqrt(det * (1 - det) / n)
    assert abs(frac - det) <= 3 * se


def test_count_sum_identity(product_lip_decomp):
    lam = product_lip_decomp.eigenvalues
    counts = np.array([c.count for c in dl.DppSampler(product_lip_decomp).sample_batch(56, 3000)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - lam.sum()) <= 3 * se


def test_sigma_bounds_report(product_lip_decomp):
    # 0 <= sigma_n <= rho_n
    gen = RngStream(12, 0).generator()
    tuples = [gen.uniform(-1, 1, 2) for _ in range(10)] + [np.array([0.3, 0.3])]
    for pts in tuples:
        sig = dl.sigma_fredholm(product_lip_decomp, pts)
        assert -1e-8 <= sig <= dl.rho_det(product_lip_decomp.kernel, pts) + 1e-8, pts


def test_gap_exponent_half(gap_slope_half):
    assert 0.35 <= gap_slope_half <= 0.65


def test_gap_exponent_lipschitz(gap_slope_lip):
    assert 0.85 <= gap_slope_lip <= 1.3


def test_wrong_exponent_is_distinguishable(gap_slope_half, gap_slope_lip):
    assert gap_slope_lip - gap_slope_half > 0.3
