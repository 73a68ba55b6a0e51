import concurrent.futures
import logging
import os
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander
from scipy import stats

import dysonlab as dl
from dysonlab import RngStream

import oracles
from conftest import CallableKernel, InlinePool, synthetic_rank1_decomposition, phi_of
from oracles import (check_density_matches_energy, conditioned_pair_initials_oracle,
                     dpp_batch_oracle, dpp_place_oracle, metropolis_pair_sample)


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
    draws = dl.DppSampler(synthetic_rank1_decomposition(eigenvalue=1.0)).sample_batch(9, 200)
    counts = {c.count for c in draws}
    assert counts == {1}


def test_rank1_projection_histogram():
    d = synthetic_rank1_decomposition(eigenvalue=1.0)
    phi = phi_of(d)
    pts = np.array([c.points[0] for c in dl.DppSampler(d).sample_batch(42, 10_000)])
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


def _draws(gen):
    return np.concatenate([gen.normal(0.0, 0.7, 5), gen.chisquare([6.0, 4.0, 2.0]),
                           gen.random(3)])


@pytest.mark.parametrize("seed,start", [(0, 0), (123, 7), (2**64 - 1, 2**64 - 4),
                                         (2**64 - 1, 0)])
def test_stream_generators_match_rng_stream(seed, start):
    seen = 0
    for i, gen in enumerate(dl.stream_generators(seed, start, 4), start):
        expected = _draws(RngStream(seed, i).generator())
        assert np.array_equal(_draws(gen), expected)
        # the documented key layout: (stream_id << 64) | seed
        philox = np.random.Generator(np.random.Philox(key=(i << 64) | seed))
        assert np.array_equal(_draws(philox), expected)
        seen += 1
    assert seen == 4


def test_stream_generators_reject_addresses_beyond_64_bits():
    with pytest.raises(ValueError):
        dl.stream_generators(1, 2**64 - 2, 3)
    with pytest.raises(ValueError):
        dl.stream_generators(2**64, 0, 1)
    assert list(dl.stream_generators(1, 2**64 - 2, 2)) != []


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_window_counts_equal_eigenvalue_counts(n):
    half = 0.15 * np.sqrt(n)   # a few eigenvalues inside at every n
    pts = dl.sample_log_gas_batch(n, 1.0, 4242, 3000, base_stream=11)
    counts = dl.log_gas_window_counts(n, 1.0, 4242, 3000, half, base_stream=11)
    assert np.array_equal(counts, np.sum((pts > -half) & (pts < half), axis=1))
    assert 0 < counts.mean() < n


def test_sturm_count_survives_zero_pivots():
    # integer tridiagonals at integer shifts hit exact zero pivots often
    from dysonlab.sampler import _count_below
    gen = np.random.default_rng(3)
    checked = 0
    with np.errstate(all="raise"):
        for _ in range(2000):
            n = int(gen.integers(1, 7))
            d = gen.integers(-1, 2, n).astype(float)
            e = gen.integers(1, 3, n - 1).astype(float)
            ev = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            shifts = np.array([[-1.0], [0.0], [1.0]])
            below = _count_below(d[None], (e * e)[None], shifts)[:, 0]
            for s, c in zip(shifts[:, 0], below):
                if np.min(np.abs(ev - s)) > 1e-9:   # no eigenvalue at the shift
                    assert c == np.sum(ev < s)
                    checked += 1
    assert checked > 4000


def test_log_gas_batch_is_chunk_invariant():
    # rows 4000..4300 straddle the first 4096-draw block
    full = dl.sample_log_gas_batch(5, 0.9, 6, 4300, base_stream=20)
    part = dl.sample_log_gas_batch(5, 0.9, 6, 300, base_stream=4020)
    assert np.array_equal(full[4000:], part)
    counts = dl.log_gas_window_counts(5, 0.9, 6, 4300, 0.3, base_stream=20)
    assert np.array_equal(counts[4000:],
                          dl.log_gas_window_counts(5, 0.9, 6, 300, 0.3, base_stream=4020))
    single = dl.sample_log_gas(5, 0.9, RngStream(6, 4123))
    assert np.array_equal(single.points, full[4103])
    # at N = 64 a dense block holds 1,024 draws: rows 1000..1100 straddle its edge
    full = dl.sample_log_gas_batch(64, 0.9, 6, 1100, base_stream=20)
    part = dl.sample_log_gas_batch(64, 0.9, 6, 100, base_stream=1020)
    assert np.array_equal(full[1000:], part)
    single = dl.sample_log_gas(64, 0.9, RngStream(6, 1050))
    assert np.array_equal(single.points, full[1030])


def test_log_gas_dense_blocks_are_bounded_in_bytes():
    # 4,096 draws at N = 128 in one dense block would take 512 MiB
    tracemalloc.start()
    try:
        dl.sample_log_gas_batch(128, 1.0, 3, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20


def test_log_gas_tie_raises_sampling_error(monkeypatch):
    from dysonlab import sampler
    monkeypatch.setattr(sampler, "sample_log_gas_batch",
                        lambda *a, **kw: np.array([[-0.2, 0.1, 0.1]]))
    with pytest.raises(dl.SamplingError):
        sampler.sample_log_gas(3, 1.0, RngStream(1, 0))


def test_poisson_moments():
    box = dl.Box([[0, 1], [0, 1], [0, 1]])
    counts = np.array([c.count for c in dl.sample_poisson_batch(1.0, box, 4, 10_000)])
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - 1.0) < 3 * se
    counts2 = np.array([c.count for c in dl.sample_poisson_batch(2.0, box, 5, 10_000)])
    var = counts2.var(ddof=1)
    se_var = var * np.sqrt(2.0 / counts2.size)
    assert abs(var - 2.0) < 3 * max(se_var, 0.05)


def test_poisson_batch_draws_the_count_then_the_points_on_each_stream():
    box = dl.Box([[0, 1], [0, 2], [-1, 1]])
    for cfg, i in zip(dl.sample_poisson_batch(3.0, box, 8, 50, base_stream=7), range(7, 57)):
        gen = RngStream(8, i).generator()
        count = gen.poisson(3.0 * box.volume)
        assert np.array_equal(cfg.points, gen.uniform([0, 0, -1], [1, 2, 1], size=(count, 3)))
    line = dl.Box([[0.5, 2.0]])
    for cfg, i in zip(dl.sample_poisson_batch(4.0, line, 8, 50), range(50)):
        gen = RngStream(8, i).generator()
        count = gen.poisson(4.0 * 1.5)
        assert np.array_equal(cfg.points, np.sort(gen.uniform(0.5, 2.0, count)))


def test_poisson_empty_region():
    box = dl.Box([[0.5, 0.5], [0, 1]])
    assert dl.sample_poisson_batch(5.0, box, 1, 1, base_stream=1)[0].count == 0


def _same_results(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return len(a) == len(b) and all(np.array_equal(x.points, y.points)
                                    for x, y in zip(a, b))


@pytest.mark.parametrize("decomp", ["sine_decomp", "product_half_dyn_decomp"])
def test_pickled_decomposition_draws_identically(request, decomp):
    d = request.getfixturevalue(decomp)
    copy = pickle.loads(pickle.dumps(d))
    assert copy.eigenvectors.flags.c_contiguous == d.eigenvectors.flags.c_contiguous
    assert _same_results(dl.DppSampler(d).sample_batch(31, 400),
                         dl.DppSampler(copy).sample_batch(31, 400))


@pytest.mark.parametrize("decomp", ["sine_decomp", "product_half_dyn_decomp"])
def test_pickled_sampler_draws_identically(request, decomp):
    # a sampler is plain data: workers receive its tables as they were built
    table = dl.DppSampler(request.getfixturevalue(decomp))
    copy = pickle.loads(pickle.dumps(table))
    assert _same_results(copy.sample_batch(31, 400), table.sample_batch(31, 400))
    assert _same_results(copy.sample_pairs(32, 150, base_stream=9),
                         table.sample_pairs(32, 150, base_stream=9))


@pytest.mark.parametrize("count, workers", [(801, 2), (3, 5), (0, 2)])
def test_map_streams_matches_serial(monkeypatch, sine_decomp, count, workers):
    # with 8 cores assumed, count and workers alone set the process count
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    box = dl.Box([[0.0, 1.0], [0.0, 2.0]])
    for fn in (dl.DppSampler(sine_decomp).sample_batch,
               partial(dl.log_gas_window_counts, 4, 1.0, half=0.3),
               partial(dl.sample_log_gas_batch, 3, 0.5),
               partial(dl.sample_poisson_batch, 2.0, box)):
        serial = fn(7, count, base_stream=100)
        assert _same_results(dl.map_streams(fn, 7, 100, count, workers), serial)


@pytest.mark.parametrize("cores, workers, count, size", [
    (64, 5000, 10, 10), (64, 3, 10, 3), (4, 5000, 1000, 4)])
def test_map_streams_caps_the_pool(monkeypatch, cores, workers, count, size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    fn = partial(dl.log_gas_window_counts, 2, 1.0, half=0.5)
    assert np.array_equal(dl.map_streams(fn, 3, 0, count, workers), fn(3, count))
    assert InlinePool.sizes == [size]


def test_bessel_draws_on_a_window_from_zero():
    # the placement grid starts at the window's left end, x = 0
    kernel = dl.construct_kernel("bessel", order=0.5)
    sampler = dl.DppSampler(dl.nystrom_decompose(kernel, (0.0, 6.0), 128))
    draws = [sampler.sample(RngStream(4, i)) for i in range(30)]
    assert all(np.all((c.points >= 0.0) & (c.points <= 6.0)) for c in draws)
    assert sum(c.count for c in draws) > 0


# three blocks and part of a fourth, on streams from a nonzero base
N_ORACLE, BASE_ORACLE = 3 * dl.sampler._DPP_BLOCK + 37, 1_000


@pytest.mark.parametrize("decomp", ["sine_decomp", "product_half_dyn_decomp", "bessel",
                                    "zero_decomp", "rank1"])
def test_lockstep_draws_match_the_lone_draw_oracle(request, decomp):
    if decomp == "bessel":   # on a window from 0, where the grid meets the kernel's limits
        d = dl.nystrom_decompose(dl.construct_kernel("bessel", order=0.5), (0.0, 6.0), 128)
    elif decomp == "rank1":
        d = synthetic_rank1_decomposition(eigenvalue=1.0)
    else:
        d = request.getfixturevalue(decomp)
    table = dl.DppSampler(d)
    draws = table.sample_batch(17, N_ORACLE, base_stream=BASE_ORACLE)
    assert _same_results(draws, dpp_batch_oracle(table, 17, N_ORACLE, BASE_ORACLE))
    for i in (0, dl.sampler._DPP_BLOCK - 1, dl.sampler._DPP_BLOCK, N_ORACLE - 1):
        rng = RngStream(17, BASE_ORACLE + i)
        assert _same_results([table.sample(rng)], [draws[i]])


def test_conditioned_pairs_match_the_lone_draw_loop(product_half_dyn_decomp):
    table = dl.DppSampler(product_half_dyn_decomp)
    rng = RngStream(23, 5 << 32)
    # 150 paths cross two _DPP_BLOCK edges
    assert 150 > 2 * dl.sampler._DPP_BLOCK
    assert np.array_equal(dl.conditioned_pair_initials(table, 150, rng),
                          conditioned_pair_initials_oracle(table, 150, rng))
    # rank one: a projection raises at once, and an eigenvalue of 0.5 has no pair
    for eigenvalue, error in ((1.0, dl.DegenerateProjectionError), (0.5, dl.SamplingError)):
        rank1 = dl.DppSampler(synthetic_rank1_decomposition(eigenvalue=eigenvalue))
        for fn in (dl.conditioned_pair_initials, conditioned_pair_initials_oracle):
            with pytest.raises(error):
                fn(rank1, 1, rng)


def _polynomial_kernel(lam: np.ndarray) -> CallableKernel:
    """sum_i lam_i psi_i(x) psi_i(y) on [-1, 1]: psi the orthonormal Legendre
    polynomials of degree below lam.size, mixed by Givens rotations so that
    no psi has a parity.  A 48-node rule integrates every product exactly,
    so the decomposition and its Nystrom extensions are exact."""
    r = lam.size
    rot = np.eye(r)
    for k in range(r - 1):
        giv = np.eye(r)
        giv[[k, k + 1], [k, k + 1]] = np.cos(0.7)
        giv[k, k + 1], giv[k + 1, k] = -np.sin(0.7), np.sin(0.7)
        rot = rot @ giv

    def psi(x):
        return (legvander(x, r - 1) * np.sqrt(np.arange(r) + 0.5)) @ rot
    return CallableKernel(lambda x, y: np.sum(psi(x) * lam * psi(y), axis=-1))


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_pair_draws_follow_the_exact_two_point_law(alpha):
    # the top of the 48-node product spectrum on a basis where 48 nodes are
    # exact: the product kernel's own extensions are not orthonormal on the
    # window at 48 nodes (L2 norms down to 0.71 at alpha = 0.5), which biases
    # placement beyond this test's resolution
    lam = dl.nystrom_decompose(dl.construct_kernel("product", alpha=alpha), (-1.0, 1.0),
                               48).eigenvalues[:8]
    decomp = dl.nystrom_decompose(_polynomial_kernel(lam), (-1.0, 1.0), 48)
    pairs = dl.conditioned_pair_initials(dl.DppSampler(decomp), 20_000, RngStream(29, 0))
    # sigma_2 over x1 < x2 on a tensor rule in (g, t): g = x2 - x1, x1 = -1 + (2 - g) t
    u, w = leggauss(24)
    g, t = np.meshgrid(1.0 + u, 0.5 + 0.5 * u, indexing="ij")
    x1 = -1.0 + (2.0 - g) * t
    sigma = np.array([dl.sigma_fredholm(decomp, [a, a + b])
                      for a, b in zip(x1.ravel(), g.ravel())]).reshape(g.shape)
    mass = np.outer(w, 0.5 * w) * (2.0 - g) * sigma
    for draws, f in ((pairs[:, 1] - pairs[:, 0], g), (pairs.sum(axis=1), 2.0 * x1 + g)):
        exact = np.sum(mass * f) / np.sum(mass)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - exact) < 4.0 * se, (draws.mean(), exact, se)


def test_retries_match_the_oracle(monkeypatch, sine_decomp):
    # a zero-density threshold near typical projected norms forces retries
    monkeypatch.setattr(dl.sampler, "_ZERO_DENSITY", 0.3)
    table = dl.DppSampler(sine_decomp)
    placed = []
    place = dl.DppSampler._place
    monkeypatch.setattr(dl.DppSampler, "_place",
                        lambda self, d, gens: placed.append(len(gens)) or place(self, d, gens))
    draws = table.sample_batch(3, 100, base_stream=7)
    assert sum(placed) > sum(c.count for c in draws)
    assert _same_results(draws, dpp_batch_oracle(table, 3, 100, 7))


def test_ties_are_redrawn_as_the_oracle_redraws_them(monkeypatch, caplog, sine_decomp):
    # points snapped to a half-unit grid tie; a zero projected norm still retries
    monkeypatch.setattr(dl.sampler, "_ZERO_DENSITY", 1e-300)
    place, place_oracle = dl.DppSampler._place, oracles.dpp_place_oracle
    monkeypatch.setattr(dl.DppSampler, "_place",
                        lambda self, d, gens: np.round(place(self, d, gens) * 2) / 2)
    monkeypatch.setattr(oracles, "dpp_place_oracle",
                        lambda table, d, gen: np.round(place_oracle(table, d, gen) * 2) / 2)
    table = dl.DppSampler(sine_decomp)
    with caplog.at_level(logging.WARNING, logger=dl.sampler.log.name):
        draws = table.sample_batch(3, 100, base_stream=7)
        ties = len(caplog.records)
        expected = dpp_batch_oracle(table, 3, 100, 7)
        # a tied pair of the two-point sector is redrawn inside the sector
        pairs = table.sample_pairs(3, 100, base_stream=7)
        pair_ties = len(caplog.records) - 2 * ties
        expected_pairs = conditioned_pair_initials_oracle(table, 100, RngStream(3, 7))
    assert ties > 0 and pair_ties > 0 and len(caplog.records) == 2 * (ties + pair_ties)
    assert all("tie" in r.getMessage() for r in caplog.records)
    assert _same_results(draws, expected)
    assert np.array_equal(pairs, expected_pairs) and np.all(np.diff(pairs, axis=1) > 0)


@pytest.mark.parametrize("threshold, vanish, message", [
    (np.inf, False, "kept producing zero density"),
    (dl.sampler._ZERO_DENSITY, True, "density vanished")])
def test_sampling_errors_match_the_oracle(monkeypatch, sine_decomp, threshold, vanish,
                                          message):
    monkeypatch.setattr(dl.sampler, "_ZERO_DENSITY", threshold)
    table = dl.DppSampler(sine_decomp)
    if vanish:
        table.ext = np.zeros_like(table.ext)
    with pytest.raises(dl.SamplingError, match=message):
        table.sample_batch(3, 100)
    with pytest.raises(dl.SamplingError, match=message):
        dpp_batch_oracle(table, 3, 100)


class _Uniforms:
    """Stands in for a generator: random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_flat_cells_place_as_the_oracle_places(sine_decomp):
    table = dl.DppSampler(sine_decomp)
    m = table.grid.size
    rising = np.linspace(0.0, 1.0, m) ** 2
    right_zero = np.where(np.arange(m) < m // 2, 1.0, 0.0)
    density = np.stack([np.ones(m), right_zero, rising])
    # a constant row is flat with d0 > 0; past the last cell of the row whose
    # right half is zero, the flat cell has d0 = 0 and takes a second uniform
    values = [(0.3,), (2.0, 0.25), (0.6,)]
    gens = [_Uniforms(*v) for v in values]
    x = table._place(density, gens)
    for row, v, gen, xi in zip(density, values, gens, x):
        oracle_gen = _Uniforms(*v)
        assert xi == dpp_place_oracle(table, row, oracle_gen)
        assert gen.values == oracle_gen.values == []
    assert x[1] == table.grid[m - 2] + 0.25 * table.dx


def test_lockstep_memory_does_not_grow_by_blocks(sine_decomp):
    # blocks are placed one after another, so four hold no more frames at a
    # time than one; what varies is the largest group of equal counts
    table = dl.DppSampler(sine_decomp)

    def peak(n_blocks):
        tracemalloc.start()
        try:
            table.sample_batch(5, n_blocks * dl.sampler._DPP_BLOCK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    frames = dl.sampler._DPP_BLOCK * table.grid.size * 8 * sine_decomp.eigenvalues.sum()
    assert peak(4) - peak(1) < frames
