"""Acceptance suite: one test per criterion, each printing a verdict line
with its headline numbers and asserting its stated tolerance and runtime
budget."""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import dysonlab as dl
from dysonlab import RngStream, cli

from conftest import ACCEPTANCE_LINES
from oracles import check_density_matches_energy, metropolis_pair_sample


def _report(num: int, ok: bool, budget_s: float, elapsed: float, detail: str):
    verdict = "PASS" if ok else "FAIL"
    line = (f"CRITERION {num}: {verdict} [{elapsed:.1f}s / budget {budget_s:.0f}s] "
            f"{detail}")
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def product_broad_decomps():
    out = {}
    for alpha in (0.5, 1.0):
        k = dl.construct_kernel("product", alpha=alpha)
        out[alpha] = dl.nystrom_decompose(k, (-3.0, 3.0), 256)
    return out


@pytest.fixture(scope="module")
def capacity_lip_samples():
    # Lipschitz exemplar for the decay fit: a broader envelope keeps the
    # pair-distance weight near-stationary, so the linear gap law dominates
    kernel = dl.construct_kernel("product", alpha=1.0, scale=1.5)
    decomp = dl.nystrom_decompose(kernel, (-3.0, 3.0), 256)
    return dl.sample_dpp_batch(decomp, 77_001, 40_000)


def test_criterion_1_determinant_correlation(sine_samples, sine_kernel):
    t0 = time.time()
    edges = np.linspace(-3, 3, 25)
    bins1 = list(zip(edges[:-1], edges[1:]))
    est1 = dl.estimate_correlation(sine_samples, 1, bins1)
    dev1 = np.abs(est1.values - 1.0) / est1.std_errors
    ok1 = bool(np.all(dev1 <= 3.0))

    est2 = dl.estimate_correlation(sine_samples, 2, [(-0.1, 0.1), (0.4, 0.6)],
                                   pairs=[(0, 1)])
    oracle = dl.rho_det(sine_kernel, [0.0, 0.5])
    dev2 = abs(est2.values[0] - oracle) / est2.std_errors[0]
    ok2 = dev2 <= 3.0

    elapsed = time.time() - t0
    ok = ok1 and ok2 and elapsed < 300
    _report(1, ok, 300, elapsed,
            f"rho1 max dev {dev1.max():.2f} se; rho2(0,0.5)={est2.values[0]:.4f} "
            f"vs {oracle:.4f} ({dev2:.2f} se)")
    assert ok1, f"rho1 bin deviates {dev1.max():.2f} standard errors"
    assert ok2, f"rho2 deviates {dev2:.2f} standard errors"
    assert elapsed < 300


def _count_law_pvalue(decomp, samples) -> float:
    lam = decomp.eigenvalues
    counts = np.array([c.count for c in samples])
    pmf = np.array([1.0])
    for l in lam[lam > 1e-12]:
        pmf = np.convolve(pmf, [1 - l, l])
    expected = pmf * counts.size
    observed = np.bincount(counts, minlength=pmf.size)[:pmf.size].astype(float)
    # pool tails to expectation >= 10: the chi-square approximation skews
    # its own tail with thinner cells
    lo = int(np.searchsorted(np.cumsum(expected), 10.0))
    hi = int(pmf.size - 1 - np.searchsorted(np.cumsum(expected[::-1]), 10.0))
    hi = max(hi, lo + 1)
    obs = np.concatenate([[observed[:lo + 1].sum()], observed[lo + 1:hi],
                          [observed[hi:].sum()]])
    exp = np.concatenate([[expected[:lo + 1].sum()], expected[lo + 1:hi],
                          [expected[hi:].sum()]])
    return float(stats.chisquare(obs, exp / exp.sum() * obs.sum()).pvalue)


def test_criterion_2_count_law(sine_decomp, sine_samples, product_broad_decomps):
    t0 = time.time()
    pvals = {"sine": _count_law_pvalue(sine_decomp, sine_samples)}
    for alpha, decomp in product_broad_decomps.items():
        samples = dl.sample_dpp_batch(decomp, 88_000 + int(100 * alpha), 10_000)
        pvals[f"product({alpha})"] = _count_law_pvalue(decomp, samples)
    elapsed = time.time() - t0
    ok = all(p > 0.01 for p in pvals.values()) and elapsed < 120
    detail = ", ".join(f"{k}: p={v:.3f}" for k, v in pvals.items())
    _report(2, ok, 120, elapsed, detail)
    for name, p in pvals.items():
        assert p > 0.01, f"count law rejected for {name} (p={p:.4f})"
    assert elapsed < 120


def test_criterion_3_density_oracle_equivalence(product_half_decomp,
                                                product_lip_decomp):
    t0 = time.time()
    worst = {}
    for label, decomp in (("alpha=0.5", product_half_decomp),
                          ("alpha=1.0", product_lip_decomp)):
        gen = RngStream(314_000, 0).generator()
        tuples = [()]
        tuples += [gen.uniform(-1, 1, 1) for _ in range(10)]
        tuples += [np.sort(gen.uniform(-1, 1, 2)) for _ in range(9)]
        values = dl.crosscheck_density(decomp, tuples, k_max=6, qmc_points=1 << 20)
        for dv in values:
            assert dv.consistent, (label, dv.points, dv.value_series,
                                   dv.value_fredholm, dv.truncation_bound)
        worst[label] = max(abs(dv.value_series - dv.value_fredholm) / dv.tolerance
                           for dv in values)
        # void probability against the empty-sample fraction
        det = dl.fredholm_det(decomp)
        n = 6_000
        sampler = dl.DppSampler(decomp)
        empty = sum(sampler.sample(RngStream(99_100, i)).count == 0
                    for i in range(n))
        se = np.sqrt(det * (1 - det) / n)
        assert abs(empty / n - det) <= 3 * se, (label, empty / n, det)
    elapsed = time.time() - t0
    ok = elapsed < 300
    _report(3, ok, 300, elapsed,
            f"worst |series-fredholm|/tolerance: "
            + ", ".join(f"{k}: {v:.2f}" for k, v in worst.items())
            + "; void prob within 3 sigma")
    assert elapsed < 300


def test_criterion_4_density_exponents(gap_slope_half, gap_slope_lip):
    t0 = time.time()
    ok_half = 0.35 <= gap_slope_half <= 0.65
    ok_lip = 0.85 <= gap_slope_lip <= 1.3
    elapsed = time.time() - t0
    ok = ok_half and ok_lip and elapsed < 120
    _report(4, ok, 120, elapsed,
            f"slope(alpha=0.5)={gap_slope_half:.3f} in [0.35,0.65]; "
            f"slope(alpha=1.0)={gap_slope_lip:.3f} in [0.85,1.3]")
    assert ok_half and ok_lip
    assert elapsed < 120


def test_criterion_5_non_collision():
    t0 = time.time()
    probe = dl.dyson_collision_probe(8, 1000, T=1.0, delta=1e-3,
                                     rng=RngStream(501_000, 0), rho_bar=0.5)
    ok_hits = probe.ci_high < 0.01 and not probe.inconclusive
    # oracle: dimension-3 radial gaps from the same equilibrium's min gaps
    initials = dl.sample_log_gas_batch(8, 0.5, 501_001, 1000)
    g0s = np.min(np.diff(initials, axis=1), axis=1)
    oracle = dl.bessel_gap_hit_fraction(3.0, g0s, 1e-3, 1.0, RngStream(501_002, 0))
    ok_oracle = (oracle.ci_high < 0.01
                 and abs(oracle.hit_fraction - probe.hit_fraction) < 0.01)
    dim = dl.dyson_pair_dimension(RngStream(72, 0))
    ok_dim = abs(dim - 3.0) <= 0.2
    elapsed = time.time() - t0
    ok = ok_hits and ok_oracle and ok_dim and elapsed < 900
    _report(5, ok, 900, elapsed,
            f"hits {probe.n_hit}/1000 CI=({probe.ci_low:.4f},{probe.ci_high:.4f}); "
            f"oracle {oracle.n_hit}/1000; gap dimension {dim:.2f}")
    assert ok_hits, f"hit CI upper {probe.ci_high:.4f} not below 0.01"
    assert ok_oracle
    assert ok_dim, f"gap dimension {dim:.3f} vs 3 +- 0.2"
    assert elapsed < 900


def test_criterion_6_collision(product_half_dyn_decomp, product_lip_dyn_decomp,
                               product_half_drift_table, product_lip_drift_table):
    t0 = time.time()
    rng = RngStream(606, 0)

    def probe(decomp, table):
        initials = dl.conditioned_pair_initials(dl.DppSampler(decomp), 1000, rng)
        return dl.distorted_pair_collision_probe(table, initials, T=1.0, delta=1e-3,
                                                 rng=rng)

    holder = probe(product_half_dyn_decomp, product_half_drift_table)
    lipschitz = probe(product_lip_dyn_decomp, product_lip_drift_table)
    ok_lower = holder.ci_low > 0.3 and not holder.inconclusive
    ok_sep = holder.ci_low > lipschitz.ci_high and not lipschitz.inconclusive
    elapsed = time.time() - t0
    ok = ok_lower and ok_sep and elapsed < 900
    _report(6, ok, 900, elapsed,
            f"alpha=0.5: {holder.n_hit}/1000 CI=({holder.ci_low:.3f},"
            f"{holder.ci_high:.3f}); alpha=1.0: {lipschitz.n_hit}/1000 "
            f"CI=({lipschitz.ci_low:.3f},{lipschitz.ci_high:.3f})")
    assert ok_lower, f"hit CI lower {holder.ci_low:.3f} not above 0.3"
    assert ok_sep, "no strict separation between the two regimes"
    assert elapsed < 900


def test_criterion_7_capacity_decay(sine_samples, capacity_lip_samples):
    t0 = time.time()
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
    inner = (-2.0, 2.0)

    # Lipschitz exemplar: the linear gap law makes the 1/|log eps| fit exact
    ests = [dl.estimate_I_eps_from_samples(capacity_lip_samples, e, "log", inner)
            for e in eps_list]
    fit = dl.decay_fit(eps_list, ests)
    ok_fit = fit.residual < 0.2 and not fit.inconclusive and fit.C > 0

    # sine: monotone decay dominated by a C/|log eps| envelope
    sine_ests = [dl.estimate_I_eps_from_samples(sine_samples, e, "log", inner)
                 for e in eps_list]
    en = np.array([c.energy for c in sine_ests])
    se = np.array([c.energy_se for c in sine_ests])
    mono = all(en[i + 1] < en[i] + 2 * np.hypot(se[i], se[i + 1])
               for i in range(len(en) - 1))
    scaled = en * np.abs(np.log(eps_list))
    enveloped = all(scaled[i + 1] <= scaled[i] * 1.05 for i in range(len(en) - 1))
    ok_sine = mono and enveloped

    # Poisson probe in d = 3, linear profile, against pair counting
    intensity, okp = 2.0, True
    box = dl.Box([[0.0, 1.2]] * 3)
    pinner = dl.Box([[0.2, 1.0]] * 3)
    psamples = [dl.sample_poisson(intensity, box, RngStream(70_007, i))
                for i in range(100_000)]
    prev = None
    ratios = []
    for e in (0.1, 0.05, 0.025):
        est = dl.estimate_I_eps_from_samples(psamples, e, "linear", pinner)
        oracle = dl.poisson_pair_count_oracle(intensity, pinner, e)
        ratios.append(est.energy / oracle)
        okp &= 0.5 <= ratios[-1] <= 2.0
        if prev is not None:
            okp &= est.energy < prev
        prev = est.energy
    elapsed = time.time() - t0
    ok = ok_fit and ok_sine and okp and elapsed < 600
    _report(7, ok, 600, elapsed,
            f"product fit C={fit.C:.3f} residual={fit.residual:.3f}; sine monotone"
            f"={mono} enveloped={enveloped}; poisson/oracle ratios "
            + ",".join(f"{r:.2f}" for r in ratios))
    assert ok_fit, f"decay fit residual {fit.residual:.3f}"
    assert ok_sine
    assert okp
    assert elapsed < 600


def test_criterion_8_finite_n_convergence():
    t0 = time.time()
    # sampler certification against the energy-based Metropolis oracle
    lam2 = dl.lambda_n(2, 1.0)
    assert check_density_matches_energy(lam2)
    ours = dl.sample_log_gas_batch(2, 1.0, 801_000, 10_000)
    oracle = metropolis_pair_sample(lam2, 10_000, seed=801_001)
    p_gap = stats.ks_2samp(ours[:, 1] - ours[:, 0],
                           oracle[:, 1] - oracle[:, 0]).pvalue
    p_mid = stats.ks_2samp(ours.mean(axis=1), oracle.mean(axis=1)).pvalue
    ok_cert = p_gap > 0.01 and p_mid > 0.01

    half = 0.15
    gaps, ses = [], []
    for n, m in ((8, 300_000), (16, 1_200_000), (32, 1_200_000)):
        pts = dl.sample_log_gas_batch(n, 1.0, 801_002, m, base_stream=n << 40)
        in_bin = np.sum((pts > -half) & (pts < half), axis=1)
        est = in_bin.mean() / (2 * half)
        gaps.append(abs(est - 1.0))
        ses.append(in_bin.std(ddof=1) / np.sqrt(m) / (2 * half))
    step1 = gaps[0] - gaps[1]
    step2 = gaps[1] - gaps[2]
    ok_trend = (step1 > np.hypot(ses[0], ses[1])
                and step2 > np.hypot(ses[1], ses[2]))
    elapsed = time.time() - t0
    ok = ok_cert and ok_trend and elapsed < 600
    _report(8, ok, 600, elapsed,
            f"KS p(gap)={p_gap:.3f} p(mid)={p_mid:.3f}; |rho-1| gaps "
            + ",".join(f"{g:.4f}" for g in gaps)
            + f" (steps {step1:.4f},{step2:.4f} vs 1-sigma "
            + f"{np.hypot(ses[0], ses[1]):.4f},{np.hypot(ses[1], ses[2]):.4f})")
    assert ok_cert, f"KS certification failed (p={p_gap:.4f}, {p_mid:.4f})"
    assert ok_trend, f"gaps {gaps} not decreasing beyond noise {ses}"
    assert elapsed < 600


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    base = {"experiment": "correlations", "seed": 90_210,
            "kernel": {"family": "sine", "params": {"rho_bar": 1.0},
                       "domain": {"kind": "full_line"}},
            "window": [-3, 3],
            "params": {"n_samples": 1000, "n_nodes": 64, "n_bins": 8}}
    runs = []
    for i, workers in enumerate((1, 1, 8)):
        out = tmp_path / f"r{i}"
        cfg_path = tmp_path / f"c{i}.json"
        cfg_path.write_text(json.dumps(dict(base, workers=workers,
                                            output=str(out))))
        assert cli.main(["correlations", "--config", str(cfg_path)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.name != "manifest.json"})
    same_rerun = runs[0] == runs[1]
    same_pool = runs[0] == runs[2]
    elapsed = time.time() - t0
    ok = same_rerun and same_pool
    _report(9, ok, 300, elapsed,
            f"byte-identical rerun: {same_rerun}; workers 1 vs 8: {same_pool}")
    assert same_rerun and same_pool
