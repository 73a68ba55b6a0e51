import numpy as np
import pytest
from scipy import stats

import dysonlab as dl
from dysonlab import RngStream

from conftest import synthetic_rank1_decomposition, phi_of
from oracles import check_density_matches_energy, metropolis_pair_sample


def test_stream_determinism():
    a = RngStream(123, 7).generator().random(64)
    b = RngStream(123, 7).generator().random(64)
    c = RngStream(123, 8).generator().random(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_philox_known_value():
    # counter-based generator: fixed address gives a platform-stable draw
    v1 = RngStream(2024, 1).generator().random()
    v2 = RngStream(2024, 1).generator().random()
    assert v1 == v2


def test_sample_dpp_deterministic(sine_decomp):
    # a fresh sampler on the same decomposition replays the same draw
    c1 = dl.DppSampler(sine_decomp).sample(RngStream(5, 3))
    c2 = dl.DppSampler(sine_decomp).sample(RngStream(5, 3))
    assert np.array_equal(c1.points, c2.points)


def test_zero_kernel_always_empty(zero_decomp):
    sampler = dl.DppSampler(zero_decomp)
    for i in range(20):
        assert sampler.sample(RngStream(1, i)).count == 0


def test_rank1_projection_exactly_one_point():
    sampler = dl.DppSampler(synthetic_rank1_decomposition(eigenvalue=1.0))
    counts = {sampler.sample(RngStream(9, i)).count for i in range(200)}
    assert counts == {1}


def test_rank1_projection_histogram():
    d = synthetic_rank1_decomposition(eigenvalue=1.0)
    phi = phi_of(d)
    sampler = dl.DppSampler(d)
    pts = np.array([sampler.sample(RngStream(42, i)).points[0] for i in range(10_000)])
    edges = np.linspace(-2.2, 2.2, 13)
    observed, _ = np.histogram(pts, bins=edges)
    fine = np.linspace(-3, 3, 4001)
    dens = phi(fine) ** 2
    cdf = np.concatenate([[0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(fine))])
    cdf /= cdf[-1]
    probs = np.diff(np.interp(edges, fine, cdf))
    probs = np.concatenate([[np.interp(edges[0], fine, cdf)], probs,
                            [1 - np.interp(edges[-1], fine, cdf)]])
    obs = np.concatenate([[np.sum(pts < edges[0])], observed,
                          [np.sum(pts >= edges[-1])]])
    keep = probs * pts.size >= 5
    chi2 = stats.chisquare(obs[keep], probs[keep] / probs[keep].sum() * obs[keep].sum())
    assert chi2.pvalue > 0.01


def test_sine_count_moments(sine_decomp, sine_samples):
    lam = sine_decomp.eigenvalues
    counts = np.array([c.count for c in sine_samples])
    mean, var = lam.sum(), np.sum(lam * (1 - lam))
    n = counts.size
    se_mean = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - mean) < 3 * se_mean
    se_var = counts.var(ddof=1) * np.sqrt(2.0 / n)  # normal-theory scale
    assert abs(counts.var(ddof=1) - var) < 3 * max(se_var, 0.02)


def test_sine_count_law_chisquare(sine_decomp, sine_samples):
    lam = sine_decomp.eigenvalues
    counts = np.array([c.count for c in sine_samples])
    pmf = np.array([1.0])
    for l in lam[lam > 1e-12]:
        pmf = np.convolve(pmf, [1 - l, l])
    kmax = pmf.size - 1
    observed = np.bincount(counts, minlength=kmax + 1)[:kmax + 1].astype(float)
    expected = pmf * counts.size
    # pool tails so every cell has expectation >= 10
    lo = np.searchsorted(np.cumsum(expected), 10.0)
    hi = kmax - np.searchsorted(np.cumsum(expected[::-1]), 10.0)
    obs = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi],
                          [observed[hi:].sum()]])
    exp = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi],
                          [expected[hi:].sum()]])
    res = stats.chisquare(obs, exp / exp.sum() * obs.sum())
    assert res.pvalue > 0.01


def test_sine_points_sorted_inside_window(sine_samples):
    for c in sine_samples[:500]:
        if c.count >= 2:
            assert np.all(np.diff(c.points) > 0)
        assert np.all((c.points >= -3) & (c.points <= 3))


def test_negative_association_spot_check(sine_samples):
    left = np.array([np.sum((c.points >= -3) & (c.points < 0)) for c in sine_samples])
    right = np.array([np.sum((c.points >= 0) & (c.points <= 3)) for c in sine_samples])
    n = left.size
    cov = np.mean((left - left.mean()) * (right - right.mean()))
    prod = (left - left.mean()) * (right - right.mean())
    se = prod.std(ddof=1) / np.sqrt(n)
    assert cov <= 3 * se


def test_log_gas_single_point_variance():
    lam = dl.lambda_n(1, 1.0)
    pts = dl.sample_log_gas_batch(1, 1.0, 77, 40_000)[:, 0]
    target = 1.0 / (2 * lam)
    se = target * np.sqrt(2.0 / pts.size)
    assert abs(pts.var(ddof=1) - target) < 4 * se
    assert abs(pts.mean()) < 4 * np.sqrt(target / pts.size)


def test_log_gas_sorted_no_ties():
    for i in range(50):
        c = dl.sample_log_gas(6, 0.8, RngStream(3, i))
        assert np.all(np.diff(c.points) > 0)


def test_log_gas_sign_symmetry():
    pts = dl.sample_log_gas_batch(4, 1.0, 15, 4000).ravel()
    half = pts.size // 2
    res = stats.ks_2samp(pts[:half], -pts[half:])
    assert res.pvalue > 0.01


def test_log_gas_pair_matches_metropolis_oracle():
    lam = dl.lambda_n(2, 1.0)
    assert check_density_matches_energy(lam)
    ours = dl.sample_log_gas_batch(2, 1.0, 31, 10_000)
    oracle = metropolis_pair_sample(lam, 10_000, seed=87)
    ks_gap = stats.ks_2samp(ours[:, 1] - ours[:, 0], oracle[:, 1] - oracle[:, 0])
    ks_mid = stats.ks_2samp(ours.mean(axis=1), oracle.mean(axis=1))
    assert ks_gap.pvalue > 0.01
    assert ks_mid.pvalue > 0.01


def test_poisson_moments():
    box = dl.Box([[0, 1], [0, 1], [0, 1]])
    counts = np.array([dl.sample_poisson(1.0, box, RngStream(4, i)).count
                       for i in range(10_000)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - 1.0) < 3 * se
    counts2 = np.array([dl.sample_poisson(2.0, box, RngStream(5, i)).count
                        for i in range(10_000)])
    var = counts2.var(ddof=1)
    se_var = var * np.sqrt(2.0 / counts2.size)
    assert abs(var - 2.0) < 3 * max(se_var, 0.05)


def test_poisson_empty_region():
    box = dl.Box([[0.5, 0.5], [0, 1]])
    assert dl.sample_poisson(5.0, box, RngStream(1, 1)).count == 0


def test_restrict():
    c = dl.Configuration(np.array([-2.0, 0.5, 2.7]), (-3.0, 3.0))
    r = dl.restrict(c, (-1.0, 1.0))
    assert np.array_equal(r.points, [0.5])
    assert dl.restrict(r, (-1.0, 1.0)).points.tolist() == [0.5]
    assert dl.restrict(c, (-3.0, 3.0)).points.tolist() == c.points.tolist()
    empty = dl.restrict(c, (5.0, 6.0))
    assert empty.count == 0


def test_restrict_box():
    pts = np.array([[0.2, 0.2], [0.8, 0.9], [1.5, 0.1]])
    c = dl.Configuration(pts, dl.Box([[0, 2], [0, 1]]))
    r = dl.restrict(c, dl.Box([[0, 1], [0, 1]]))
    assert r.count == 2
