import numpy as np
import pytest

import dysonlab as dl
from dysonlab import RngStream
from dysonlab.capacity import (CapacityEstimate, estimate_I_eps_from_samples,
                               h_eps_prime, h_lin_prime)


def test_log_profile_pinned_values():
    eps = 1e-3
    assert dl.h_eps(eps / 2, eps) == 2.0
    assert dl.h_eps(1.5, eps) == 0.0
    assert dl.h_eps(np.sqrt(eps), eps) == pytest.approx(1.0, rel=1e-12)


def test_linear_profile_pinned_values():
    eps = 0.02
    assert dl.h_lin(eps, eps) == 2.0
    assert dl.h_lin(2 * eps, eps) == 0.0
    assert dl.h_lin(1.5 * eps, eps) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("h,eps,support", [
    (dl.h_eps, 1e-2, 1.0),
    (dl.h_eps, 1e-4, 1.0),
    (dl.h_lin, 0.05, 0.1),
])
def test_profiles_even_bounded_supported(h, eps, support):
    t = np.linspace(-2.0, 2.0, 20001)
    v = h(t, eps)
    assert np.allclose(v, h(-t, eps))
    assert v.max() <= 2.0 and v.min() >= 0.0
    assert np.all(v[np.abs(t) >= support] == 0.0)
    # continuity across both kinks
    for kink in (eps, support):
        lo = h(kink * (1 - 1e-9), eps)
        hi = h(kink * (1 + 1e-9), eps)
        assert abs(hi - lo) < 1e-6


def test_profile_monotone_in_eps():
    t = np.geomspace(1e-5, 0.999, 200)
    v_big = dl.h_eps(t, 1e-2)
    v_small = dl.h_eps(t, 1e-3)
    assert np.all(v_small <= v_big + 1e-15)


def test_pair_energy_single_point():
    cfg = dl.Configuration(np.array([0.3]), (-3.0, 3.0))
    assert dl.pair_energy(cfg, 1e-2, (-2, 2)) == (0.0, 0.0)


def test_pair_energy_plateau_pair():
    eps = 1e-2
    cfg = dl.Configuration(np.array([0.0, eps / 2]), (-3.0, 3.0))
    energy, g = dl.pair_energy(cfg, eps, (-2, 2))
    assert g == 4.0  # both ordered pairs on the plateau
    assert energy == 0.0


def test_pair_energy_active_pair():
    eps = 1e-2
    t0 = np.sqrt(eps)
    cfg = dl.Configuration(np.array([0.0, t0]), (-3.0, 3.0))
    energy, g = dl.pair_energy(cfg, eps, (-2, 2))
    assert energy == pytest.approx(4.0 / (eps * np.log(eps) ** 2), rel=1e-12)
    assert g == pytest.approx(2 * dl.h_eps(t0, eps), rel=1e-12)


def test_pair_energy_respects_inner_window():
    eps = 1e-2
    cfg = dl.Configuration(np.array([2.5, 2.5 + np.sqrt(eps)]), (-3.0, 3.0))
    energy, g = dl.pair_energy(cfg, eps, (-2, 2))
    assert energy == 0.0 and g == 0.0


def test_energy_zero_outside_active_band():
    eps = 1e-2
    for gap in (eps / 3, 1.2):
        cfg = dl.Configuration(np.array([0.0, gap]), (-3.0, 3.0))
        energy, _ = dl.pair_energy(cfg, eps, (-2, 2))
        assert energy == 0.0


def test_kink_uses_inner_side_derivative():
    eps = 1e-2
    assert h_eps_prime(1.0, eps) == pytest.approx(2.0 / np.log(eps), rel=1e-12)
    assert h_eps_prime(1.0 + 1e-12, eps) == 0.0
    assert h_lin_prime(2 * eps, eps) == pytest.approx(-2.0 / eps, rel=1e-12)


def test_gradient_bound_identity():
    # energy <= 2 * (active ordered pairs)^2 / (log eps * g_min)^2
    gen = np.random.default_rng(9)
    eps = 1e-3
    for _ in range(50):
        pts = np.sort(gen.uniform(-2, 2, gen.integers(2, 7)))
        cfg = dl.Configuration(pts, (-3.0, 3.0))
        energy, _ = dl.pair_energy(cfg, eps, (-2, 2))
        diff = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(diff, np.inf)
        active = (diff > eps) & (diff < 1.0)
        n_act = int(active.sum())
        if n_act == 0:
            assert energy == 0.0
            continue
        g_min_act = diff[active].min()
        bound = 2.0 * n_act ** 2 / (np.log(eps) * g_min_act) ** 2
        assert energy <= bound * (1 + 1e-12)


def test_g_value_bounded_by_pair_count(sine_samples):
    eps = 1e-3
    for cfg in sine_samples[:300]:
        _, g = dl.pair_energy(cfg, eps, (-2, 2))
        m = np.count_nonzero((cfg.points >= -2) & (cfg.points <= 2))
        assert 0.0 <= g <= 2.0 * m * max(m - 1, 0)


def test_estimate_with_common_samples_monotone(sine_samples):
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
    ests = [estimate_I_eps_from_samples(sine_samples[:4000], eps, "log", (-2, 2))
            for eps in eps_list]
    l2 = [e.l2_term for e in ests]
    assert all(a >= b for a, b in zip(l2, l2[1:]))  # pointwise monotone profile
    en = [e.energy for e in ests]
    assert all(a > b for a, b in zip(en, en[1:]))
    assert all(e.n_active > 0 for e in ests)


def test_degenerate_flag():
    cfgs = [dl.Configuration(np.array([0.0]), (-3.0, 3.0)) for _ in range(20)]
    est = estimate_I_eps_from_samples(cfgs, 1e-3, "log", (-2, 2))
    assert est.degenerate and est.energy == 0.0 and est.l2_term == 0.0


def test_decay_fit_exact_model():
    eps = [1e-2, 1e-3, 1e-4, 1e-5]
    ests = [CapacityEstimate(e, 3.0 / abs(np.log(e)), 1e-6, 0.0, 0.0, 10, 10)
            for e in eps]
    fit = dl.decay_fit(eps, ests)
    assert fit.C == pytest.approx(3.0, rel=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert not fit.inconclusive


def test_decay_fit_flags_constant_energy():
    eps = [1e-2, 1e-3, 1e-4, 1e-5]
    ests = [CapacityEstimate(e, 1.0, 1e-9, 0.0, 0.0, 10, 10) for e in eps]
    fit = dl.decay_fit(eps, ests)
    assert fit.residual > 0.2
    assert fit.messages


def test_decay_fit_needs_two_decades():
    eps = [1e-2, 5e-3, 2e-3]
    ests = [CapacityEstimate(e, 1.0, 0.1, 0.0, 0.0, 10, 10) for e in eps]
    with pytest.raises(ValueError):
        dl.decay_fit(eps, ests)


def test_poisson_linear_variant_against_pair_counting():
    intensity = 2.0
    box = dl.Box([[0.0, 1.2]] * 3)
    inner = dl.Box([[0.2, 1.0]] * 3)
    samples = [dl.sample_poisson(intensity, box, RngStream(33, i))
               for i in range(30_000)]
    prev = None
    for eps in (0.1, 0.05):
        est = estimate_I_eps_from_samples(samples, eps, "linear", inner)
        oracle = dl.poisson_pair_count_oracle(intensity, inner, eps)
        assert est.n_active > 10
        assert 0.5 * oracle <= est.energy <= 2.0 * oracle
        if prev is not None:
            assert est.energy < prev
        prev = est.energy


def test_one_dimensional_box_and_interval_give_the_same_estimate():
    box = dl.Box([[0.0, 2.0]])
    samples = [dl.sample_poisson(2.0, box, RngStream(5, i)) for i in range(200)]
    assert samples[0].dim == 1
    for eps in (0.1, 0.05):
        assert (estimate_I_eps_from_samples(samples, eps, "linear", dl.Box([[0.2, 1.8]]))
                == estimate_I_eps_from_samples(samples, eps, "linear", (0.2, 1.8)))
