import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import stats

import dysonlab as dl
from dysonlab import RngStream
from dysonlab.errors import SingularConfigurationError
from dysonlab.statistics import palm_integrals
from oracles import (bessel_gap_hit_fraction, dyson_drift_one_piece, first_passage_probability,
                     gap_dimension_fit, integrate_ensemble_oracle, integrate_sde_oracle,
                     loggas_energy, pair_drift_stack_oracle, pair_table_drift_oracle,
                     resolvent_l_oracle, series_sigma2_grid_oracle)


def one_path(points, drift, T, delta, rng, **kw):
    """Times, states and minimum gaps of the frames of a one-path ensemble
    started at ``points``, whose path must not fail, and its run."""
    [run] = dl.integrate_ensemble([(np.array([points], dtype=float), delta, rng)], drift, T,
                                  record=True, **kw)
    assert not run.failed[0]
    times = np.array([t[0] for t, _ in run.frames])
    states = np.array([X[0] for _, X in run.frames])
    return times, states, np.diff(states, axis=1).min(axis=1, initial=np.inf), run


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


@pytest.mark.parametrize("entries, shape", [
    (None, (300, 128)),        # 256 rows a block at N = 128
    (64, (3, 7, 5)),           # 2 rows a block: 21 rows, the last block short
    (16, (4, 4)),              # 1 row a block
])
def test_dyson_drift_blocks_match_one_piece(monkeypatch, entries, shape):
    if entries is not None:
        monkeypatch.setattr(dl.dynamics, "_DENSE_ENTRIES", entries)
    X = np.sort(np.random.default_rng(8).normal(0, 3, shape), axis=-1)
    assert np.array_equal(dl.dyson_drift(X, 0.7), dyson_drift_one_piece(X, 0.7))


def test_dyson_drift_memory_is_bounded_by_blocks():
    # 1,000 paths at N = 128 in one piece had a traced peak of 263 MB; the
    # blocks hold at most two _DENSE_ENTRIES arrays at once
    X = np.sort(np.random.default_rng(9).normal(0, 3, (1000, 128)), axis=1)
    tracemalloc.start()
    try:
        dl.dyson_drift(X, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * dl.sampler._DENSE_ENTRIES


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


def test_pair_drift_table_gradients_match_resolvent_oracle(
        product_half_kernel, product_half_drift_table,
        product_lip_kernel, product_lip_drift_table):
    # log det L by one linear solve on the table's own 48-node Gauss rule
    # (the window is [-1, 1], so the rule needs no map), one gap row at a
    # time, differenced as the table does; a density a few percent off,
    # such as the series truncated after k = 2, misses by up to 0.12 here
    z, w = leggauss(48)
    for kernel, table in ((product_half_kernel, product_half_drift_table),
                          (product_lip_kernel, product_lip_drift_table)):
        n = table.ss.size
        u = np.empty((table.gs.size, n))
        for i, g in enumerate(table.gs):
            x = np.stack([(table.ss - g) / 2, (table.ss + g) / 2], axis=1).ravel()
            L = resolvent_l_oracle(kernel, z, w, x).reshape(n, 2, n, 2)
            u[i] = np.log(np.linalg.det(L[np.arange(n), :, np.arange(n), :]))
        ref = np.stack([np.gradient(u, table.ss[1] - table.ss[0], axis=1).ravel(),
                        np.gradient(u, np.log(table.gs[1] / table.gs[0]), axis=0).ravel()],
                       axis=1)
        grad = 2.0 * table.half_grad.T
        assert np.max(np.abs(grad - ref) / np.maximum(1.0, np.abs(ref))) < 1e-7


def test_pair_drift_table_matches_fredholm_differences(product_half_dyn_decomp,
                                                       product_half_drift_table):
    # table interpolation, on its 48-node rule, against direct finite
    # differences of log sigma_2 on the 400-node decomposition of the run
    table = product_half_drift_table
    gen = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        g = 10 ** gen.uniform(-2.5, -0.4)
        s = gen.uniform(-1.0, 1.0)
        x = np.array([(s - g) / 2, (s + g) / 2])
        h = min(1e-3, 0.2 * g)
        up, dn = (dl.sigma_fredholm(product_half_dyn_decomp, [x[0], x[1] + d])
                  for d in (h, -h))
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
    ref_times, ref_states, ref_gaps, ref_hit_time, ref_rejections = integrate_sde_oracle(
        np.array(points), drift, T, delta, rng, **kw)
    times, states, gaps, run = one_path(points, drift, T, delta, rng, **kw)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(gaps, ref_gaps)
    assert run.hit[0] == (not np.isnan(ref_hit_time))
    assert np.array_equal(run.hit_time[0], ref_hit_time, equal_nan=True)
    assert run.rejections[0] == ref_rejections
    if lam is None:
        assert run.rejections[0] >= 3


def assert_same_run(run, ref):
    """Every field of two EnsembleRuns equal, bit for bit, frames included."""
    assert np.array_equal(run.hit, ref.hit)
    assert np.array_equal(run.failed, ref.failed)
    assert np.array_equal(run.hit_time, ref.hit_time, equal_nan=True)
    assert np.array_equal(run.final, ref.final)
    assert np.array_equal(run.rejections, ref.rejections)
    assert np.array_equal(run.steps, ref.steps)
    assert run.iterations == ref.iterations
    assert (run.frames is None) == (ref.frames is None)
    if run.frames is not None:
        assert len(run.frames) == len(ref.frames)
        for (t, X), (t_ref, X_ref) in zip(run.frames, ref.frames):
            assert np.array_equal(t, t_ref) and np.array_equal(X, X_ref)


@pytest.mark.parametrize("T, kw", [
    (0.1, {}),
    # steps far above the gap scale: crossed proposals and their halvings
    (0.3, {"dt_max": 1e-2, "c_dt": 0.2}),
])
def test_engine_matches_oracle_on_conditioned_pairs(product_half_dyn_decomp,
                                                    product_half_drift_table, T, kw):
    initials = dl.conditioned_pair_initials(dl.DppSampler(product_half_dyn_decomp), 200,
                                            RngStream(14, 0))
    table = product_half_drift_table
    [run] = dl.integrate_ensemble([(initials, 1e-3, RngStream(14, 1))], table.drift, T, **kw)
    ref = integrate_ensemble_oracle(initials, table.drift, T, 1e-3, RngStream(14, 1), **kw)
    assert_same_run(run, ref)
    assert run.hit.any() and not run.hit.all()
    assert (run.rejections.sum() > 100) == bool(kw)


def test_engine_matches_oracle_on_dyson_stack():
    lam = dl.lambda_n(8, 0.5)
    initials = dl.sample_log_gas_batch(8, 0.5, 15, 100)
    drift = lambda X: dl.dyson_drift(X, lam)  # noqa: E731
    # the second run takes steps near the gap scale: hits, crossings, halvings
    for T, delta, kw in ((0.1, 1e-3, {}), (1.0, 0.1, {"dt_max": 0.5, "c_dt": 0.3})):
        [run] = dl.integrate_ensemble([(initials, delta, RngStream(15, 1))], drift, T, **kw)
        assert_same_run(run, integrate_ensemble_oracle(initials, drift, T, delta,
                                                       RngStream(15, 1), **kw))
    assert run.hit.any() and run.rejections.any()


def test_engine_matches_oracle_frame_by_frame():
    # paths stop at different iterations: hits, and T reached
    initials = np.array([[-1.0, 0.2, 1.4], [-0.3, -0.28, 0.9], [0.0, 0.5, 0.52]])
    drift = lambda X: dl.dyson_drift(X, 0.5)  # noqa: E731
    [run] = dl.integrate_ensemble([(initials, 1.5e-2, RngStream(16, 2))], drift, 0.05,
                                  record=True)
    assert_same_run(run, integrate_ensemble_oracle(initials, drift, 0.05, 1.5e-2,
                                                   RngStream(16, 2), record=True))
    assert 0 < run.hit.sum() < 3 and len(set(run.steps)) > 1


def test_pair_drift_matches_oracle_off_the_grid(product_half_drift_table):
    # gaps below the grid's first, beyond 2.2 window lengths and in between,
    # sums inside the table's range and outside it on both sides
    table = product_half_drift_table
    gen = np.random.default_rng(17)
    g = np.concatenate([10 ** gen.uniform(-15, -5, 40), gen.uniform(4.4, 9.0, 40),
                        10 ** gen.uniform(-5, 0.6, 120), [1e-5, 4.4, 1e-12]])
    s = np.concatenate([gen.uniform(-3.0, 3.0, 100), gen.uniform(-8.0, -3.0, 50),
                        gen.uniform(3.0, 8.0, 50), [-3.0, 3.0, 0.0]])
    gen.shuffle(s)
    X = np.stack([(s - g) / 2, (s + g) / 2], axis=1)
    X = X[X[:, 1] > X[:, 0]]
    assert X.shape[0] > 190
    assert np.array_equal(table.drift(X), pair_table_drift_oracle(table, X))
    assert np.array_equal(table.drift(X[:1]), pair_table_drift_oracle(table, X[:1]))


def test_pair_drift_matches_stacked_form_bit_for_bit(product_half_drift_table):
    # the out= form against np.stack with a final halving, per region of
    # the grid: inside it, below its first gap, with sums off both ends,
    # and clipped to its last cell in the gap
    table = product_half_drift_table
    gen = np.random.default_rng(18)
    g_top, s_lo, s_hi = table.gs[-1], table.ss[0], table.ss[-1]
    regions = {
        "interior": (10 ** gen.uniform(-4.9, 0.5, 60), gen.uniform(-2.9, 2.9, 60)),
        "below g_min": (10 ** gen.uniform(-15, -5.01, 30), gen.uniform(-2.9, 2.9, 30)),
        "sums outside ss": (10 ** gen.uniform(-4, 0, 30),
                            np.concatenate([gen.uniform(s_lo - 5, s_lo, 15),
                                            gen.uniform(s_hi, s_hi + 5, 15)])),
        "top cell": (np.concatenate([gen.uniform(g_top, 3 * g_top, 28), [g_top, g_top]]),
                     gen.uniform(-2.9, 2.9, 30)),
    }
    for name, (g, s) in regions.items():
        X = np.stack([(s - g) / 2, (s + g) / 2], axis=1)
        assert np.all(X[:, 1] > X[:, 0]), name
        assert np.array_equal(table.drift(X), pair_drift_stack_oracle(table, X)), name
        assert np.array_equal(table.drift(X[:1]), pair_drift_stack_oracle(table, X[:1])), name
    for crossed in ([0.1, 0.1], [0.2, 0.1]):
        X = np.array([[-0.5, 0.5], crossed])
        for drift in (table.drift, lambda X: pair_drift_stack_oracle(table, X)):
            with pytest.raises(SingularConfigurationError):
                drift(X)


class _NoDraws:
    """A stream whose generator fails on any draw."""

    def generator(self):
        return self

    def normal(self, *args, **kwargs):
        raise AssertionError("a job with no active path drew noise")


def test_sweep_matches_lone_runs_of_each_job():
    gen = np.random.default_rng(19)

    def pairs(gaps, at=0.0):
        c = at + gen.uniform(-0.5, 0.5, len(gaps))
        return np.stack([c - gaps / 2, c + gaps / 2], axis=1)

    def crush_far_right(X):
        # pairs beyond x = 50 are pushed through each other at every step
        # size; the others diffuse with no drift
        push = np.where(X[:, :1] > 50.0, 1e9, 0.0)
        return np.concatenate([push, -push], axis=1)

    lam = dl.lambda_n(8, 0.5)
    sweeps = [
        # steps far above the gap scale: halvings, hits, failures
        (crush_far_right, 0.3, {"dt_max": 0.05, "c_dt": 50.0}, [
            (pairs(gen.uniform(0.02, 0.1, 30)), 1e-2, RngStream(19, 1)),
            (pairs(np.full(3, 1.0), at=100.0), 0.0, RngStream(19, 2)),
            (pairs(gen.uniform(0.005, 0.05, 5)), 0.1, _NoDraws()),
            (pairs(gen.uniform(0.5, 1.0, 12)), 0.0, RngStream(19, 3)),
        ]),
        (lambda X: dl.dyson_drift(X, lam), 0.5, {"dt_max": 0.5, "c_dt": 0.3}, [
            (dl.sample_log_gas_batch(8, 0.5, 20, 50), 1e-2, RngStream(20, 1)),
            (dl.sample_log_gas_batch(8, 0.5, 21, 17), 0.0, RngStream(20, 2)),
            (dl.sample_log_gas_batch(8, 0.5, 22, 1), 5e-2, RngStream(20, 3)),
        ]),
    ]
    for drift, T, kw, jobs in sweeps:
        for record in (False, True):
            runs = dl.integrate_ensemble(jobs, drift, T, record=record, **kw)
            assert len(runs) == len(jobs)
            for run, job in zip(runs, jobs):
                [lone] = dl.integrate_ensemble([job], drift, T, record=record, **kw)
                assert_same_run(run, lone)
        assert len({run.iterations for run in runs}) == len(jobs)
        assert any(run.rejections.any() for run in runs)
    halving, failing, within, _ = dl.integrate_ensemble(sweeps[0][3], *sweeps[0][:2],
                                                        **sweeps[0][2])
    assert halving.hit.any() and halving.rejections.any() and not halving.failed.any()
    assert failing.failed.all() and failing.iterations == 1
    assert within.hit.all() and within.iterations == 0 and not within.steps.any()


def test_brownian_increments_normal():
    times, states, _, _ = one_path([0.0], lambda x: dl.dyson_drift(x, 0.0), T=1.0,
                                   delta=0.0, rng=RngStream(21, 0))
    incr = np.diff(states[:, 0])
    dts = np.diff(times)
    keep = dts > 1e-12
    z = incr[keep] / np.sqrt(dts[keep])
    res = stats.kstest(z, "norm")
    assert res.pvalue > 0.01
    assert times[-1] == pytest.approx(1.0)


def test_trajectory_invariants():
    times, states, min_gaps, run = one_path([-1.0, 0.2, 1.4], lambda x: dl.dyson_drift(x, 0.5),
                                            T=0.2, delta=1e-4, rng=RngStream(22, 5))
    assert np.all(np.diff(times) > 0)
    for row in states:
        assert np.all(np.diff(row) > 0)
    gaps = np.array([np.min(np.diff(row)) for row in states])
    assert np.allclose(gaps, min_gaps)
    assert run.hit[0] == (not np.isnan(run.hit_time[0]))


def test_trajectory_deterministic_replay():
    times1, states1, _, _ = one_path([-0.5, 0.5], lambda x: dl.dyson_drift(x, 1.0), T=0.3,
                                     delta=0.0, rng=RngStream(7, 7))
    times2, states2, _, _ = one_path([-0.5, 0.5], lambda x: dl.dyson_drift(x, 1.0), T=0.3,
                                     delta=0.0, rng=RngStream(7, 7))
    assert np.array_equal(states1, states2)
    assert np.array_equal(times1, times2)


def test_immediate_hit_when_delta_exceeds_gap():
    times, _, _, run = one_path([0.0, 0.05], lambda x: dl.dyson_drift(x, 0.0), T=0.1,
                                delta=0.1, rng=RngStream(1, 1))
    assert run.hit[0] and run.hit_time[0] == 0.0
    assert times.size == 1
    row = bessel_gap_hit_fraction(3.0, np.full(50, 0.05), delta=0.1, T=0.1,
                                  rng=RngStream(1, 2))
    assert row["n_hit"] == 50


def test_engine_rejects_unsorted_initials():
    with pytest.raises(SingularConfigurationError):
        dl.integrate_ensemble([(np.array([[0.0, 1.0], [0.3, 0.3]]), 0.0, RngStream(1, 3))],
                              np.zeros_like, 0.1)


def test_failed_path_has_no_trajectory():
    # a drift that pushes the pair through each other at every step size
    def crush(X):
        return np.stack([np.full(len(X), 1e9), np.full(len(X), -1e9)], axis=1)

    [run] = dl.integrate_ensemble([(np.array([[-0.5, 0.5]]), 0.0, RngStream(1, 4))], crush,
                                  0.1, record=True)
    assert run.failed[0] and not run.hit[0]
    assert run.rejections[0] == 21
    assert_same_run(run, integrate_ensemble_oracle(np.array([[-0.5, 0.5]]), crush, 0.1, 0.0,
                                                   RngStream(1, 4), record=True))


def test_a_step_that_no_longer_moves_time_is_a_failure(product_half_drift_table):
    # with delta = 0 the alpha = 1/2 pair drift drives this pair together
    # until c_dt g^2 falls below half an ulp of t
    init = np.array([[-0.5, 0.5]])
    [run] = dl.integrate_ensemble([(init, 0.0, RngStream(3, 1))],
                                  product_half_drift_table.drift, 2.0)
    assert run.failed[0] and not run.hit[0] and run.rejections[0] == 0
    assert run.iterations == 14_760 and np.diff(run.final[0])[0] < 1e-6
    assert_same_run(run, integrate_ensemble_oracle(init, product_half_drift_table.drift, 2.0,
                                                   0.0, RngStream(3, 1)))


@pytest.mark.parametrize("dim, bias", [(3, 0.05), (1, 0.01)])
def test_hit_fractions_against_the_exact_first_passage_law(dim, bias):
    # hits are checked at step ends only, so the engine misses crossings
    # between them and reads low: allow that one-sided bias, at most a
    # fraction of the exact value, and no excess beyond sampling error
    n, exact = 20_000, first_passage_probability(dim, 0.05, 0.005, 1.0)
    row = bessel_gap_hit_fraction(dim, np.full(n, 0.05), delta=0.005, T=1.0,
                                  rng=RngStream(3_301, dim))
    se = np.sqrt(exact * (1.0 - exact) / n)
    print(f"dim {dim}: hit fraction {row['hit_fraction']:.5f} against {exact:.5f}, "
          f"{(row['hit_fraction'] - exact) / se:+.1f} se")
    assert row["n_failures"] == 0
    assert exact * (1.0 - bias) - 4 * se <= row["hit_fraction"] <= exact + 4 * se


def test_dyson_pair_no_hits():
    # a lone pair is the dimension-3 radial case: delta-approaches are rare
    [row] = dl.dyson_collision_probe(2, 1000, [(1e-3, RngStream(60, 0))], T=1.0,
                                     rho_bar=0.5)
    assert row["n_hit"] <= 3
    assert row["n_failures"] == 0


def test_distorted_half_hits_from_small_gap(product_half_drift_table):
    [row] = dl.distorted_pair_collision_probe(
        product_half_drift_table, [(np.tile([-0.05, 0.05], (400, 1)), 1e-3, RngStream(61, 0))],
        T=1.0)
    assert row["hit_fraction"] > 0.5
    oracle = bessel_gap_hit_fraction(1.5, np.full(400, 0.1), delta=1e-3,
                                     T=1.0, rng=RngStream(61, 9))
    assert oracle["hit_fraction"] > 0.5
    assert abs(row["hit_fraction"] - oracle["hit_fraction"]) < 0.2


def test_gap_dimension_dyson_pair():
    lam = dl.lambda_n(2, 0.5)
    dim = gap_dimension_fit(lambda X: dl.dyson_drift(X, lam), 0.1, RngStream(72, 0))
    assert dim == pytest.approx(3.0, abs=0.2)


def test_gap_dimension_distorted(product_half_drift_table, product_lip_drift_table):
    d_half = gap_dimension_fit(product_half_drift_table.drift, 0.1, RngStream(71, 1))
    d_lip = gap_dimension_fit(product_lip_drift_table.drift, 0.1, RngStream(71, 2))
    assert d_half == pytest.approx(1.5, abs=0.2)
    assert d_lip == pytest.approx(2.0, abs=0.2)


def test_wilson_interval_brackets():
    lo, hi = dl.wilson_interval(3, 100)
    assert lo < 0.03 < hi
    assert dl.wilson_interval(0, 50)[0] == 0.0


def test_exchangeability_sorted_state():
    pts = np.array([0.9, -1.1, 0.1])
    _, states1, _, _ = one_path(np.sort(pts), lambda x: dl.dyson_drift(x, 0.3), T=0.1,
                                delta=0.0, rng=RngStream(30, 1))
    _, states2, _, _ = one_path(np.sort(pts[::-1]), lambda x: dl.dyson_drift(x, 0.3), T=0.1,
                                delta=0.0, rng=RngStream(30, 1))
    assert np.array_equal(states1, states2)


def test_equilibrium_preserved_under_dynamics():
    # the time-T one-point histogram must match fresh equilibrium samples
    N, T, n_paths = 4, 2.0, 1200
    lam = dl.lambda_n(N, 1.0)
    initials = dl.sample_log_gas_batch(N, 1.0, 81, n_paths)
    [run] = dl.integrate_ensemble([(initials, 0.0, RngStream(81, 1 << 40))],
                                  lambda X: dl.dyson_drift(X, lam), T, dt_max=1e-3, c_dt=2e-3)
    assert not run.failed.any()
    final = run.final
    fresh = dl.sample_log_gas_batch(N, 1.0, 82, n_paths)
    edges = np.linspace(-3.0, 3.0, 7)
    for lo, hi in zip(edges[:-1], edges[1:]):
        a = np.sum((final >= lo) & (final < hi), axis=1)
        b = np.sum((fresh >= lo) & (fresh < hi), axis=1)
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n_paths)
        assert abs(a.mean() - b.mean()) <= 3 * max(se, 1e-3)
