import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dysonlab as dl
from dysonlab.errors import KernelParameterError
from oracles import holder_envelope_check, product_kernel_oracle

# Reference values computed once with mpmath at 50 digits and frozen here.
AIRY_REF = [
    (-5.0, 0.35076100902411432, 0.32719281855444314),
    (-3.2, -0.41744342056415138, 0.065031146995262914),
    (-1.0, 0.53556088329235212, -0.010160567116645209),
    (-0.5, 0.47572809161053959, -0.20408167033954739),
    (0.0, 0.35502805388781724, -0.2588194037928068),
    (0.5, 0.23169360648083349, -0.22491053266468389),
    (1.0, 0.13529241631288142, -0.15914744129679321),
    (2.5, 0.01572592338047049, -0.02625088103590323),
    (4.0, 0.00095156385120480187, -0.0019586409502041789),
    (6.0, 9.9476943602528896e-6, -2.4765200397034955e-5),
]
BESSEL_REF = [
    (0.0, 0.5, 0.9384698072408129, -0.24226845767487389),
    (0.0, 2.0, 0.22389077914123567, -0.57672480775687339),
    (0.5, 1.0, 0.67139670714180309, 0.095400514447474534),
    (0.5, 3.5, -0.14960456964952657, -0.37801474398454523),
    (1.0, 0.25, 0.12402597732272692, 0.48833202000494501),
    (1.0, 4.0, -0.066043328023549136, -0.38063897785796009),
    (1.5, 2.0, 0.49129377868716235, 0.14454580254645599),
    (2.5, 1.5, 0.1244463597983876, 0.1797316176120881),
    (-0.5, 2.0, -0.23478571040624847, -0.45431970896026563),
    (0.25, 0.1, 0.52065787563045676, 1.280799838957331),
]
AIRY_KERNEL_REF = [
    (-1.0, 0.5, 0.078732763397670285),
    (0.0, 0.0, 0.066987483779663974),
    (-2.0, -2.0, 0.48567249353108431),
    (1.0, 1.000000001, 0.0070238701503862007),
]
BESSEL_KERNEL_REF = [  # order 0.5
    (0.5, 2.0, 0.082278430796129133),
    (1.0, 1.0, 0.086795352981871219),
    (3.0, 3.0, 0.10029543385737164),
    (0.25, 0.2500001, 0.050461357322987593),
]


def test_special_function_reference_values():
    from scipy import special
    for x, ai, aip in AIRY_REF:
        got = special.airy(x)
        assert got[0] == pytest.approx(ai, rel=1e-12)
        assert got[1] == pytest.approx(aip, rel=1e-12)
    for a, x, j, jp in BESSEL_REF:
        assert special.jv(a, x) == pytest.approx(j, rel=1e-12)
        assert special.jvp(a, x) == pytest.approx(jp, rel=1e-12)


FRESH_IMPORT = """
import sys
import numpy as np
import dysonlab, dysonlab.cli
loaded = [m for m in sys.modules if m.startswith(("scipy.stats", "scipy.special"))
          or m == "concurrent.futures.process"]
x = np.linspace(0.0, 4.0, 33)
airy = dysonlab.construct_kernel("airy").eval(x[:, None] - 2.0, x[None, :] - 2.0)
bessel = dysonlab.construct_kernel("bessel", order=0.5).eval(x[:, None], x[None, :])
print(loaded, np.concatenate([airy, bessel]).tobytes().hex())
"""


def test_fresh_import_loads_no_scipy_stats_special_or_process_pool():
    # a run imports scipy.special only for the airy and bessel kernels; this
    # process has imported it already, so the lazy path needs a fresh one
    src = str(Path(dl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == "[]"
    x = np.linspace(0.0, 4.0, 33)
    airy = dl.construct_kernel("airy").eval(x[:, None] - 2.0, x[None, :] - 2.0)
    bessel = dl.construct_kernel("bessel", order=0.5).eval(x[:, None], x[None, :])
    assert out[1] == np.concatenate([airy, bessel]).tobytes().hex()


def test_sine_values():
    k = dl.construct_kernel("sine", rho_bar=1.0)
    assert k.eval(0.0, 0.0) == 1.0
    assert abs(k.eval(0.0, 1.0)) < 1e-15
    assert k.eval(0.0, 0.5) == pytest.approx(2 / np.pi, abs=1e-12)


def test_sine_diagonal_is_density():
    k = dl.construct_kernel("sine", rho_bar=0.35)
    x = np.linspace(-10, 10, 101)
    assert np.all(k.eval(x, x) == 0.35)


def test_airy_kernel_values():
    k = dl.construct_kernel("airy")
    for x, y, v in AIRY_KERNEL_REF:
        assert k.eval(x, y) == pytest.approx(v, rel=1e-9)


def test_bessel_kernel_values():
    k = dl.construct_kernel("bessel", order=0.5)
    for x, y, v in BESSEL_KERNEL_REF:
        assert k.eval(x, y) == pytest.approx(v, rel=1e-8)


def test_bessel_rejects_negative_argument():
    k = dl.construct_kernel("bessel", order=0.5)
    with pytest.raises(KernelParameterError):
        k.eval(-1.0, 0.5)


@pytest.mark.parametrize("order", [0.0, 0.3, 0.5, 0.9, 1.0, 2.5])
def test_bessel_takes_its_limits_at_zero(order):
    # J_a'(0) and J_{a-1}(0) are infinite for 0 < a < 1, but K is bounded at 0
    k = dl.construct_kernel("bessel", order=order)
    assert k.eval(0.0, 0.0) == (0.25 if order == 0 else 0.0)
    for x, y in [(0.0, 0.5), (0.5, 0.0)]:
        assert np.isfinite(k.eval(x, y))
        assert k.eval(x, y) == pytest.approx(k.eval(max(x, 1e-40), max(y, 1e-40)),
                                             abs=1e-5)


def test_divided_difference_diagonal_switch_is_smooth():
    # values just inside and outside the switch radius must agree closely
    for k in (dl.construct_kernel("airy"), dl.construct_kernel("bessel", order=1.0)):
        x0 = 0.7
        inside = k.eval(x0, x0 + 5e-7)
        outside = k.eval(x0, x0 + 2e-6)
        assert inside == pytest.approx(outside, rel=1e-5, abs=1e-12)


def test_product_trivial_origin():
    k = dl.construct_kernel("product", alpha=1.0)
    assert k.eval(0.0, 0.0) == 1.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 0.3])
def test_product_kernel_matches_its_formula_bit_for_bit(alpha):
    # one buffer for every step, but the formula's operations in its order;
    # 0-d inputs give a numpy scalar, as the formula does
    k = dl.construct_kernel("product", alpha=alpha, scale=0.8)
    gen = np.random.default_rng(4)
    pts = gen.uniform(-2, 2, 50)
    stack, x = gen.uniform(-2, 2, (4, 1, 300)), gen.uniform(-2, 2, (1, 3, 1))
    for a, b in [(0.3, -0.4), (0.2, 0.2), (0.0, pts), (pts, 1.5), (pts, pts),
                 (pts[:, None], pts[None, :]), (stack, x), (x, stack)]:
        got = k.eval(a, b)
        want = product_kernel_oracle(alpha, 0.8, np.asarray(a, dtype=float),
                                     np.asarray(b, dtype=float))
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_parameter_validation():
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("sine", rho_bar=0.0)
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("sine", rho_bar=1.5)
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("product", alpha=0.0)
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("product", alpha=1.2)
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("bessel", order=-1.5)
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("gaussian")
    with pytest.raises(KernelParameterError):
        dl.construct_kernel("sine", rho_bar=0.5, bogus=1)
    for grid, values in [([0, 0, 1], np.eye(3)), ([0], np.eye(1)), ([0, 1], np.eye(3)),
                         ([0, 1], None), (None, np.eye(2)), ("ab", np.eye(2)),
                         (["a", "b"], np.eye(2)), ([0, True], np.eye(2)),
                         ([0, np.inf], np.eye(2)), ([0, 1], [[1, 0], [0, "x"]])]:
        with pytest.raises(KernelParameterError):
            dl.construct_kernel("custom", grid=grid, values=values)
    # a bool, a string, None and +-inf are not numbers, as in the CLI's rules
    for bad in (True, "0.5", None, np.inf, -np.inf, np.bool_(True)):
        for family, key in [("sine", "rho_bar"), ("bessel", "order"), ("product", "alpha"),
                            ("product", "scale")]:
            with pytest.raises(KernelParameterError, match=key):
                dl.construct_kernel(family, **{key: bad})
    # numpy numbers are numbers, stored as Python floats
    k = dl.construct_kernel("product", alpha=np.float32(0.5), scale=np.int64(2))
    assert k.params == {"alpha": 0.5, "scale": 2.0}
    assert all(type(v) is float for v in k.params.values())


@pytest.mark.parametrize("family, params, domain", [
    ("sine", {}, "full_line"), ("airy", {}, "full_line"), ("bessel", {}, "half_line"),
    ("product", {"alpha": 0.5}, "full_line"),
    ("custom", {"grid": [0, 1], "values": [[1, 0], [0, 1]]}, "full_line"),
])
def test_kernel_domain_comes_from_its_family(family, params, domain):
    k = dl.construct_kernel(family, **params)
    assert k.domain == domain
    with pytest.raises(KernelParameterError, match="unknown parameters"):
        dl.construct_kernel(family, domain=domain, **params)
    data = k.to_json()
    assert data["domain"] == {"kind": domain}
    # a JSON kernel may leave the domain out or give its own, and no other
    assert dl.kernel_from_json({"family": family, "params": params}).to_json() == data
    assert dl.kernel_from_json(data).to_json() == data
    other = "full_line" if domain == "half_line" else "half_line"
    for bad in ({"kind": other}, {"kind": domain, "bounds": [0, 1]}, domain):
        with pytest.raises(KernelParameterError):
            dl.kernel_from_json(dict(data, domain=bad))


@pytest.mark.parametrize("params", [[1], 0.5, "rho_bar", None])
def test_kernel_json_params_must_be_an_object(params):
    with pytest.raises(KernelParameterError, match="^params must be an object$"):
        dl.kernel_from_json({"family": "sine", "params": params})


@pytest.mark.parametrize("case", [
    ("sine", {"rho_bar": 0.7}, (-4, 4)),
    ("product", {"alpha": 0.5}, (-3, 3)),
    ("product", {"alpha": 1.0}, (-3, 3)),
    ("airy", {}, (-6, 1.5)),
])
def test_pointwise_invariants(case):
    family, params, window = case
    k = dl.construct_kernel(family, **params)
    gen = np.random.default_rng(11)
    x = gen.uniform(window[0], window[1], 60)
    grid = k.eval(x[:, None], x[None, :])
    # symmetry, diagonal positivity and the 2x2 minor inequality
    assert np.max(np.abs(grid - grid.T)) <= 1e-12
    diag = np.diag(grid)
    assert np.all(diag >= 0)
    minors = diag[:, None] * diag[None, :] - grid ** 2
    assert minors.min() >= -1e-10


def test_validate_sine_passes(sine_kernel):
    rep = dl.validate_kernel(sine_kernel, (-3, 3))
    assert rep.passed
    assert rep.trace == pytest.approx(6.0, abs=1e-8)
    assert rep.hermitian_max_asym <= 1e-12
    assert -1e-8 <= rep.eigen_min and rep.eigen_max <= 1 + 1e-8


def test_validate_product_half_passes(product_half_kernel):
    rep = dl.validate_kernel(product_half_kernel, (-3, 3))
    assert rep.passed
    assert rep.eigen_min >= -1e-8 and rep.eigen_max <= 1 + 1e-8


def test_validate_constant_two_fails():
    grid = np.linspace(-1, 1, 9)
    k = dl.construct_kernel("custom", grid=grid, values=2.0 * np.ones((9, 9)))
    rep = dl.validate_kernel(k, (-1, 1))
    assert not rep.passed
    # rank-one operator with eigenvalue 2 * window length
    assert rep.eigen_max == pytest.approx(4.0, rel=1e-6)


def test_validate_reports_nonfinite_point():
    # a bessel kernel of order in (-1, 0) is unbounded at 0
    k = dl.construct_kernel("bessel", order=-0.5)
    rep = dl.validate_kernel(k, (0, 1))
    assert not rep.passed
    assert rep.messages == ["non-finite kernel value at (0, 0)"]


def test_holder_envelope_lipschitz():
    k = dl.construct_kernel("product", alpha=1.0)
    c1, c2 = holder_envelope_check(k, 1.0)
    assert c1 == pytest.approx(1 - np.exp(-1), rel=1e-3)
    assert c2 == pytest.approx(1.0, abs=2e-3)


def test_holder_envelope_half():
    k = dl.construct_kernel("product", alpha=0.5)
    c1, c2 = holder_envelope_check(k, 0.5)
    assert c1 == pytest.approx(1 - np.exp(-1), rel=1e-3)
    assert c2 == pytest.approx(1.0, abs=2e-3)


def test_holder_envelope_detects_wrong_exponent():
    # probing alpha' = 0.25 against a 0.5-kernel: the lower constant collapses
    k = dl.construct_kernel("product", alpha=0.5)
    c1_coarse, _ = holder_envelope_check(k, 0.25, t_min=1e-4)
    c1_fine, _ = holder_envelope_check(k, 0.25, t_min=1e-8)
    assert c1_fine < 0.5 * c1_coarse
    assert c1_fine < 0.05


def test_kernel_json_roundtrip():
    k = dl.construct_kernel("product", alpha=0.5, scale=2.0)
    data = json.loads(json.dumps(k.to_json(), sort_keys=True))
    k2 = dl.kernel_from_json(data)
    x = np.linspace(-2, 2, 17)
    assert np.allclose(k.eval(x[:, None], x[None, :]), k2.eval(x[:, None], x[None, :]))
    assert data["family"] == "product"
    assert data["params"]["alpha"] == 0.5


def test_custom_tabulated_interpolates():
    grid = np.linspace(-1, 1, 41)
    vals = np.exp(-np.abs(grid[:, None] - grid[None, :]))
    k = dl.construct_kernel("custom", grid=grid, values=vals)
    assert k.eval(0.0, 0.0) == pytest.approx(1.0)
    assert k.eval(-0.5, 0.5) == pytest.approx(np.exp(-1.0), abs=2e-3)
