import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import stats

import dysonlab as dl
from dysonlab import RngStream
from dysonlab.errors import IntegrationFailureError, SingularConfigurationError
from dysonlab.statistics import palm_integrals
from oracles import integrate_sde_oracle, loggas_energy, series_sigma2_grid_oracle


def one_path(points, drift, T, delta, rng, **kw):
    """Trajectory of a one-path ensemble started at ``points``."""
    run = dl.integrate_ensemble(np.array([points], dtype=float), drift, T, delta,
                                rng, record=True, **kw)
    return dl.Trajectory.from_run(run)


def test_dyson_drift_single_particle():
    assert dl.dyson_drift([1.7], 0.3) == pytest.approx([-0.51])


def test_dyson_drift_pair_antisymmetric():
    a, lam = 0.8, 0.25
    d = dl.dyson_drift([-a, a], lam)
    assert d[0] == pytest.approx(-1 / (2 * a) + lam * a, rel=1e-12)
    assert d[1] == pytest.approx(1 / (2 * a) - lam * a, rel=1e-12)


def test_dyson_drift_interaction_cancels_in_sum():
    gen = np.random.default_rng(2)
    for _ in range(20):
        x = np.sort(gen.normal(0, 2, 7))
        lam = gen.uniform(0.1, 1.0)
        assert np.sum(dl.dyson_drift(x, lam)) == pytest.approx(-lam * np.sum(x),
                                                               abs=1e-9)


def test_dyson_drift_rejects_ties():
    with pytest.raises(SingularConfigurationError):
        dl.dyson_drift([0.0, 0.0, 1.0], 0.1)
    with pytest.raises(SingularConfigurationError):
        dl.dyson_drift([[0.0, 1.0], [0.5, 0.5]], 0.1)


def test_dyson_drift_stack_matches_rows():
    # the stacked form is the per-configuration drift row by row, and for a
    # pair it is the closed form -+1/g - lam x, bit for bit
    gen = np.random.default_rng(3)
    for n in (2, 5, 8):
        X = np.sort(gen.normal(0, 2, (6, n)), axis=1)
        stacked = dl.dyson_drift(X, 0.4)
        assert np.array_equal(stacked, np.stack([dl.dyson_drift(x, 0.4) for x in X]))
    X = np.sort(gen.normal(0, 2, (6, 2)), axis=1)
    g = X[:, 1] - X[:, 0]
    pair = np.stack([-1.0 / g, 1.0 / g], axis=1) - 0.4 * X
    assert np.array_equal(dl.dyson_drift(X, 0.4), pair)


def test_loggas_energy_values():
    assert loggas_energy([1.3], 0.5) == pytest.approx(0.5 * 1.69)
    assert loggas_energy([0.0, 1.0], 0.0) == 0.0
    assert loggas_energy([0.0, np.e], 0.0) == pytest.approx(-4.0, rel=1e-12)
    assert loggas_energy([0.2, 0.2], 0.0) == np.inf


def test_drift_is_half_gradient_of_log_density():
    # dyson_drift = 1/2 grad log mu-density = -1/4 grad loggas_energy(., 2 lam)
    gen = np.random.default_rng(6)
    h = 1e-6
    for _ in range(100):
        n = gen.integers(2, 6)
        x = np.sort(gen.normal(0, 1.5, n))
        if np.min(np.diff(x)) < 1e-2:
            continue
        lam = gen.uniform(0.05, 1.0)
        drift = dl.dyson_drift(x, lam)
        for i in range(n):
            up, dn = x.copy(), x.copy()
            up[i] += h
            dn[i] -= h
            grad = -0.25 * (loggas_energy(up, 2 * lam)
                            - loggas_energy(dn, 2 * lam)) / (2 * h)
            assert drift[i] == pytest.approx(grad, abs=1e-6)


def test_table_drift_centre_of_mass_zero_at_symmetric_point(product_lip_drift_table,
                                                            product_half_drift_table):
    # the product kernels are even, so at s = 0 the density is stationary
    # in the sum and the two components cancel
    for table in (product_lip_drift_table, product_half_drift_table):
        for g in (1e-3, 0.06, 0.5):
            d = table.drift(np.array([[-g / 2, g / 2]]))[0]
            assert abs(d.sum()) < 1e-6 * abs(d[1])


def test_table_drift_gap_repulsion(product_half_drift_table):
    g = 0.06
    d = product_half_drift_table.drift(np.array([[-g / 2, g / 2]]))[0]
    assert d[1] > 0 and d[0] < 0
    assert d[1] == pytest.approx(-d[0], rel=1e-6)


def test_table_drift_rejects_coincident_and_crossed_pairs(product_half_drift_table):
    for pair in ([0.1, 0.1], [0.2, 0.1]):
        with pytest.raises(SingularConfigurationError):
            product_half_drift_table.drift(np.array([[-0.5, 0.5], pair]))


def test_series_table_drift_asymptote(product_half_drift_table):
    # series-route density resolves every scale: per-particle gap drift
    # approaches alpha/(2 g) at small gaps
    table = product_half_drift_table
    for g in (0.01, 0.005, 0.001):
        dr = table.drift(np.array([[-g / 2, g / 2]]))[0]
        assert dr[1] == pytest.approx(0.5 * 0.5 / g, rel=0.15)
        assert dr[0] == pytest.approx(-dr[1], rel=1e-9)


def test_series_sigma2_grid_matches_schur_oracle(product_half_kernel):
    # the closed-form contraction against the per-node-pair Schur
    # complement, from the table's smallest gap to beyond 2 (b - a) and
    # with sums that put one or both points outside the window
    window = (-1.0, 1.0)
    gs = np.array([1e-5, 3e-4, 1e-2, 0.3, 1.0, 3.9, 4.4])
    ss = np.array([-3.0, -2.1, -0.7, 0.0, 0.35, 1.9, 3.0])
    G, S = np.meshgrid(gs, ss, indexing="ij")
    x1, x2 = ((S - G) / 2).ravel(), ((S + G) / 2).ravel()
    z0, w0 = leggauss(48)
    z = 0.5 * (window[1] - window[0]) * z0 + 0.5 * (window[1] + window[0])
    w = 0.5 * (window[1] - window[0]) * w0
    rho, int1, int2 = palm_integrals(product_half_kernel, np.stack([x1, x2], axis=1),
                                     z, w, product_half_kernel.eval(z[:, None], z[None, :]))
    fast = rho - int1 + 0.5 * int2
    slow = series_sigma2_grid_oracle(product_half_kernel, window, x1, x2)
    assert np.all(slow > 0)
    assert np.max(np.abs(fast - slow) / slow) < 1e-11


def test_pair_drift_table_matches_direct_series(product_half_dyn_decomp,
                                                product_half_drift_table):
    # table interpolation against direct finite differences of the same
    # series-route density evaluated on the decomposition's full grid
    table = product_half_drift_table
    ev = dl.SeriesEvaluator(product_half_dyn_decomp, k_max=2)
    gen = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        g = 10 ** gen.uniform(-2.5, -0.4)
        s = gen.uniform(-1.0, 1.0)
        x = np.array([(s - g) / 2, (s + g) / 2])
        h = min(1e-3, 0.2 * g)
        up, dn = sum(ev.term([[x[0], x[1] + h], [x[0], x[1] - h]], k)[0] for k in range(3))
        direct = 0.5 * (np.log(up) - np.log(dn)) / (2 * h)
        tab = table.drift(x[None, :])[0][1]
        worst = max(worst, abs(tab - direct) / max(2.0, abs(direct)))
    assert worst < 0.1


@pytest.mark.parametrize("points, lam, T, delta, rng, kw", [
    ([0.0], 0.0, 1.0, 0.0, RngStream(21, 0), {}),
    ([-1.0, 0.2, 1.4], 0.5, 0.2, 1e-4, RngStream(22, 5), {}),
    ([-0.5, 0.5], 1.0, 0.3, 0.0, RngStream(7, 7), {}),
    ([0.0, 0.05], 0.0, 0.1, 0.1, RngStream(1, 1), {}),
    ([-1.1, 0.1, 0.9], 0.3, 0.1, 0.0, RngStream(30, 1), {}),
    # zero drift with steps far above the gap scale: four halvings
    ([-0.025, 0.025], None, 0.2, 0.0, RngStream(40, 7), {"dt_max": 0.05, "c_dt": 50.0}),
])
def test_one_path_ensemble_matches_single_path_oracle(points, lam, T, delta, rng, kw):
    if lam is None:
        drift = np.zeros_like
    else:
        drift = lambda x: dl.dyson_drift(x, lam)  # noqa: E731
    ref = integrate_sde_oracle(np.array(points), drift, T, delta, rng, **kw)
    traj = one_path(points, drift, T, delta, rng, **kw)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.min_gap_series, ref.min_gap_series)
    assert (traj.hit_flag, traj.hit_time) == (ref.hit_flag, ref.hit_time)
    assert traj.n_rejections == ref.n_rejections
    if lam is None:
        assert traj.n_rejections >= 3


def test_brownian_increments_normal():
    traj = one_path([0.0], lambda x: dl.dyson_drift(x, 0.0), T=1.0,
                    delta=0.0, rng=RngStream(21, 0))
    incr = np.diff(traj.states[:, 0])
    dts = np.diff(traj.times)
    keep = dts > 1e-12
    z = incr[keep] / np.sqrt(dts[keep])
    res = stats.kstest(z, "norm")
    assert res.pvalue > 0.01
    assert traj.times[-1] == pytest.approx(1.0)


def test_trajectory_invariants():
    traj = one_path([-1.0, 0.2, 1.4], lambda x: dl.dyson_drift(x, 0.5), T=0.2,
                    delta=1e-4, rng=RngStream(22, 5))
    assert np.all(np.diff(traj.times) > 0)
    for row in traj.states:
        assert np.all(np.diff(row) > 0)
    gaps = np.array([np.min(np.diff(row)) for row in traj.states])
    assert np.allclose(gaps, traj.min_gap_series)
    assert traj.hit_flag == (traj.hit_time is not None)


def test_trajectory_deterministic_replay():
    t1 = one_path([-0.5, 0.5], lambda x: dl.dyson_drift(x, 1.0), T=0.3,
                  delta=0.0, rng=RngStream(7, 7))
    t2 = one_path([-0.5, 0.5], lambda x: dl.dyson_drift(x, 1.0), T=0.3,
                  delta=0.0, rng=RngStream(7, 7))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.times, t2.times)


def test_immediate_hit_when_delta_exceeds_gap():
    traj = one_path([0.0, 0.05], lambda x: dl.dyson_drift(x, 0.0), T=0.1,
                    delta=0.1, rng=RngStream(1, 1))
    assert traj.hit_flag and traj.hit_time == 0.0
    assert traj.times.size == 1
    stats_ = dl.bessel_gap_hit_fraction(3.0, np.full(50, 0.05), delta=0.1, T=0.1,
                                        rng=RngStream(1, 2))
    assert stats_.n_hit == 50


def test_engine_rejects_unsorted_initials():
    with pytest.raises(SingularConfigurationError):
        dl.integrate_ensemble(np.array([[0.0, 1.0], [0.3, 0.3]]), np.zeros_like,
                              0.1, 0.0, RngStream(1, 3))


def test_failed_path_has_no_trajectory():
    # a drift that pushes the pair through each other at every step size
    def crush(X):
        return np.stack([np.full(len(X), 1e9), np.full(len(X), -1e9)], axis=1)

    run = dl.integrate_ensemble(np.array([[-0.5, 0.5]]), crush, 0.1, 0.0,
                                RngStream(1, 4), record=True)
    assert run.failed[0] and not run.hit[0]
    assert run.rejections[0] == 21
    with pytest.raises(IntegrationFailureError):
        dl.Trajectory.from_run(run)


def test_dyson_pair_no_hits():
    # a lone pair is the dimension-3 radial case: delta-approaches are rare
    stats_ = dl.dyson_collision_probe(2, 1000, T=1.0, delta=1e-3,
                                      rng=RngStream(60, 0), rho_bar=0.5)
    assert stats_.n_hit <= 3
    assert stats_.n_failures == 0


def test_distorted_half_hits_from_small_gap(product_half_drift_table):
    stats_ = dl.distorted_pair_collision_probe(product_half_drift_table,
                                               np.tile([-0.05, 0.05], (400, 1)),
                                               T=1.0, delta=1e-3,
                                               rng=RngStream(61, 0))
    assert stats_.hit_fraction > 0.5
    oracle = dl.bessel_gap_hit_fraction(1.5, np.full(400, 0.1), delta=1e-3,
                                        T=1.0, rng=RngStream(61, 9))
    assert oracle.hit_fraction > 0.5
    assert abs(stats_.hit_fraction - oracle.hit_fraction) < 0.2


def test_gap_dimension_dyson_pair():
    dim = dl.dyson_pair_dimension(RngStream(72, 0))
    assert dim == pytest.approx(3.0, abs=0.2)


def test_gap_dimension_distorted(product_half_drift_table, product_lip_drift_table):
    d_half = dl.distorted_pair_dimension(product_half_drift_table, RngStream(71, 1))
    d_lip = dl.distorted_pair_dimension(product_lip_drift_table, RngStream(71, 2))
    assert d_half == pytest.approx(1.5, abs=0.2)
    assert d_lip == pytest.approx(2.0, abs=0.2)


def test_wilson_interval_brackets():
    lo, hi = dl.wilson_interval(3, 100)
    assert lo < 0.03 < hi
    assert dl.wilson_interval(0, 50)[0] == 0.0


def test_exchangeability_sorted_state():
    pts = np.array([0.9, -1.1, 0.1])
    t1 = one_path(np.sort(pts), lambda x: dl.dyson_drift(x, 0.3), T=0.1,
                  delta=0.0, rng=RngStream(30, 1))
    t2 = one_path(np.sort(pts[::-1]), lambda x: dl.dyson_drift(x, 0.3), T=0.1,
                  delta=0.0, rng=RngStream(30, 1))
    assert np.array_equal(t1.states, t2.states)


def test_equilibrium_preserved_under_dynamics():
    # the time-T one-point histogram must match fresh equilibrium samples
    N, T, n_paths = 4, 2.0, 1200
    lam = dl.lambda_n(N, 1.0)
    initials = dl.sample_log_gas_batch(N, 1.0, 81, n_paths)
    run = dl.integrate_ensemble(initials, lambda X: dl.dyson_drift(X, lam), T, 0.0,
                                RngStream(81, 1 << 40), dt_max=1e-3, c_dt=2e-3)
    assert not run.failed.any()
    final = run.final
    fresh = dl.sample_log_gas_batch(N, 1.0, 82, n_paths)
    edges = np.linspace(-3.0, 3.0, 7)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = np.sum((final >= lo) & (final < hi), axis=1)
        b = np.sum((fresh >= lo) & (fresh < hi), axis=1)
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n_paths)
        assert abs(a.mean() - b.mean()) <= 3 * max(se, 1e-3)
