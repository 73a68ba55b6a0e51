"""Determinantal kernel families and pointwise validity checks.

Shipped families
----------------
sine      K(x,y) = rho_bar * sin(pi(x-y)) / (pi(x-y))          on the line
airy      K(x,y) = (Ai(x)Ai'(y) - Ai(y)Ai'(x)) / (x-y)         on the line
bessel    K(x,y) = (J_a(sx) sy J_a'(sy) - J_a(sy) sx J_a'(sx)) / (2(x-y)),
          s* = sqrt(*), order a > -1                            on the half line
product   K(x,y) = m(x) k(x-y) m(y) with m(x) = exp(-(x/scale)^2),
          k(t) = exp(-|t|^alpha), alpha in (0,1]               on the line
custom    tabulated grid values with bilinear interpolation (negative tests)

Each family is one row of `_FAMILIES`: its evaluator factory, its domain
("half_line" x >= 0 for bessel, else "full_line") and a row (Rule, default)
per parameter, checked by `rules.check_table` as the CLI's config entries
are.  A kernel's domain is its row's, never set.

All evaluators are pure and vectorized; instances are immutable after
construction and safe to share between threads.

The divided-difference families (airy, bessel) have removable diagonal
singularities.  They are evaluated through closed diagonal formulas,
  airy:   K(x,x) = Ai'(x)^2 - x Ai(x)^2
  bessel: K(x,x) = (J_a(u)^2 - J_{a+1}(u) J_{a-1}(u)) / 4,  u = sqrt(x)
(the second form is the l'Hopital limit rewritten through the Bessel
recurrences so that no cancellation survives), and the evaluator switches
to the midpoint diagonal value once |x-y| < 1e-6, where the symmetric
Taylor expansion of the divided difference has no linear term.  At x = 0
the bessel formulas meet infinite Bessel values for orders 0 < a < 1, and
the evaluator returns the kernel's limits there for every order a >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import spectral
from .errors import KernelParameterError
from .rules import POSITIVE, REQUIRED, UNIT, Rule, check_table, is_real

_DIAG_SWITCH = 1e-6


@dataclass(frozen=True)
class Kernel:
    """Symmetric two-point evaluator with a family tag; ``eval`` broadcasts
    over array arguments."""

    family: str
    params: dict
    _eval: Callable = field(repr=False, compare=False)

    @property
    def domain(self) -> str:
        """Where the point field lives, "full_line" or "half_line": the family's."""
        return _FAMILIES[self.family].domain

    def eval(self, x, y):
        return self._eval(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def to_json(self) -> dict:
        params = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                  for k, v in self.params.items()}
        return {"family": self.family, "params": params, "domain": {"kind": self.domain}}

    def __reduce__(self):
        # the evaluators are closures: a kernel crosses a process boundary as its JSON
        return kernel_from_json, (self.to_json(),)


def _sine_eval(rho_bar):
    def ev(x, y):
        # np.sinc carries the pi convention: sinc(z) = sin(pi z)/(pi z)
        return rho_bar * np.sinc(x - y)
    return ev


def _airy_eval():
    from scipy import special      # only the airy and bessel families need scipy

    def ev(x, y):
        x, y = np.broadcast_arrays(x, y)
        ai_x, aip_x, _, _ = special.airy(x)
        ai_y, aip_y, _, _ = special.airy(y)
        d = x - y
        near = np.abs(d) < _DIAG_SWITCH
        m = 0.5 * (x + y)
        ai_m, aip_m, _, _ = special.airy(m)
        diag = aip_m ** 2 - m * ai_m ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            off = (ai_x * aip_y - ai_y * aip_x) / d
        return np.where(near, diag, off)
    return ev


def _bessel_eval(order):
    from scipy import special
    a = float(order)

    def ev(x, y):
        x, y = np.broadcast_arrays(x, y)
        if np.any(x < 0) or np.any(y < 0):
            raise KernelParameterError("bessel kernel is defined on the half line x >= 0")
        sx, sy = np.sqrt(x), np.sqrt(y)
        d = x - y
        near = np.abs(d) < _DIAG_SWITCH
        um = np.sqrt(0.5 * (x + y))
        with np.errstate(divide="ignore", invalid="ignore"):
            jpx, jpy = special.jvp(a, sx), special.jvp(a, sy)
            diag = (special.jv(a, um) ** 2 - special.jv(a + 1, um) * special.jv(a - 1, um)) / 4.0
            # the limits at 0, where J_a'(0) and J_{a-1}(0) are infinite for
            # 0 < a < 1; orders below 0 are unbounded at 0
            if a >= 0:
                # s J_a'(s) -> 0
                jpx, jpy = np.where(sx > 0, jpx, 0.0), np.where(sy > 0, jpy, 0.0)
            if a > 0:
                # K(0, 0) = 0
                diag = np.where(um > 0, diag, 0.0)
            off = (special.jv(a, sx) * sy * jpy - special.jv(a, sy) * sx * jpx) / (2.0 * d)
        return np.where(near, diag, off)
    return ev


def _product_eval(alpha, scale):
    # each step writes into the buffer of the step before, so a value costs
    # no fresh temporaries; a numpy scalar, from 0-d inputs, has no buffer
    # and takes the same steps out of place
    def envelope(x):
        e = x / scale
        e **= 2
        buf = e if isinstance(e, np.ndarray) else None
        return np.exp(np.negative(e, out=buf), out=buf)

    def ev(x, y):
        # envelope(x) * exp(-|x - y|^alpha) * envelope(y), in this order
        t = x - y
        buf = t if isinstance(t, np.ndarray) else None
        t = np.abs(t, out=buf)
        t **= alpha
        t = np.exp(np.negative(t, out=buf), out=buf)
        t = np.multiply(envelope(x), t, out=buf)
        return np.multiply(t, envelope(y), out=buf)
    return ev


def _custom_eval(grid, values):
    if values.shape != (grid.size, grid.size):
        raise KernelParameterError("custom kernel values must be a (n, n) table over the grid")

    def ev(x, y):
        x, y = np.broadcast_arrays(x, y)
        xi = np.clip(np.searchsorted(grid, x) - 1, 0, grid.size - 2)
        yi = np.clip(np.searchsorted(grid, y) - 1, 0, grid.size - 2)
        tx = np.clip((x - grid[xi]) / (grid[xi + 1] - grid[xi]), 0.0, 1.0)
        ty = np.clip((y - grid[yi]) / (grid[yi + 1] - grid[yi]), 0.0, 1.0)
        v00 = values[xi, yi]
        v10 = values[xi + 1, yi]
        v01 = values[xi, yi + 1]
        v11 = values[xi + 1, yi + 1]
        return (v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty)
                + v01 * (1 - tx) * ty + v11 * tx * ty)
    return ev


def _numbers(desc: str, ndim: int, ok: Callable = lambda table: True) -> Rule:
    """Finite numbers on ndim axes whose float table `ok` accepts, converted to it."""
    def accepts(value) -> bool:
        try:
            table = np.asarray(value, dtype=object)
        except ValueError:
            return False
        return (table.ndim == ndim and all(map(is_real, table.flat))
                and bool(ok(table.astype(float))))
    return Rule(desc, accepts, lambda value: np.asarray(value, dtype=float))


class _Family(NamedTuple):
    factory: Callable         # the evaluator, from the checked parameters by name
    domain: str               # "full_line", or "half_line" (x >= 0)
    params: dict              # name -> (Rule, default), in order


_FAMILIES = {
    "sine": _Family(_sine_eval, "full_line", {"rho_bar": (UNIT, 1.0)}),
    "airy": _Family(_airy_eval, "full_line", {}),
    "bessel": _Family(_bessel_eval, "half_line", {
        "order": (Rule("a number > -1", lambda v: is_real(v) and v > -1, float), 0.0)}),
    "product": _Family(_product_eval, "full_line", {
        "alpha": (UNIT, 1.0), "scale": (POSITIVE, 1.0)}),
    "custom": _Family(_custom_eval, "full_line", {
        "grid": (_numbers("a strictly increasing list of 2 or more numbers", 1,
                          lambda g: g.size >= 2 and np.all(np.diff(g) > 0)), REQUIRED),
        "values": (_numbers("an (n, n) table of finite numbers over the grid", 2), REQUIRED)}),
}


def construct_kernel(family: str, **params) -> Kernel:
    """Build a kernel from a family tag and named parameters, each checked
    against its family's row of `_FAMILIES`; an absent one takes its default."""
    family = str(family).lower()
    if family not in _FAMILIES:
        raise KernelParameterError(f"unknown kernel family {family!r}")
    row = _FAMILIES[family]
    values = check_table(row.params, params, f"the {family} kernel", KernelParameterError)
    return Kernel(family, values, row.factory(**values))


def kernel_from_json(data: dict) -> Kernel:
    """A kernel from its JSON; a "domain" entry must name the family's own."""
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise KernelParameterError("params must be an object")
    kernel = construct_kernel(data["family"], **params)
    if "domain" in data and data["domain"] != {"kind": kernel.domain}:
        raise KernelParameterError(f"the {kernel.family} kernel's domain is {kernel.domain}")
    return kernel


@dataclass
class ValidationReport:
    """Outcome of the pointwise + spectral kernel checks on one window."""

    passed: bool
    window: tuple
    n_nodes: int
    hermitian_max_asym: float
    eigen_min: float
    eigen_max: float
    trace: float
    messages: list[str] = field(default_factory=list)


def validate_kernel(kernel: Kernel, window, tol: float = 1e-8,
                    n_nodes: int = 256) -> ValidationReport:
    """Check the two-point evaluator against the determinantal hypotheses.

    Reports the maximum Hermitian asymmetry on the quadrature grid and,
    through the windowed eigendecomposition, whether every eigenvalue lies
    in [-tol, 1 + tol] with a finite trace.  Passes iff both hold.
    Non-finite kernel values fail the report, naming the offending point.
    """
    a, b = float(window[0]), float(window[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise KernelParameterError("validation window must be a bounded interval")
    tol = POSITIVE("tol", tol, KernelParameterError)

    messages: list[str] = []
    xs = np.linspace(a, b, min(2 * n_nodes, 512))
    grid = kernel.eval(xs[:, None], xs[None, :])
    bad = ~np.isfinite(grid)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return ValidationReport(False, (a, b), n_nodes, np.inf, np.nan, np.nan, np.nan,
                                [f"non-finite kernel value at ({xs[i]:.6g}, {xs[j]:.6g})"])
    asym = float(np.max(np.abs(grid - grid.T)))

    try:
        decomp = spectral.nystrom_decompose(kernel, (a, b), n_nodes, validate=False)
    except Exception as exc:  # eigensolve failure counts as a diagnostic failure
        return ValidationReport(False, (a, b), n_nodes, asym, np.nan, np.nan, np.nan,
                                [f"eigendecomposition failed: {exc}"])
    raw = decomp.raw_eigenvalues
    eig_min, eig_max, trace = float(raw.min()), float(raw.max()), float(raw.sum())

    if asym > max(tol, 1e-10):
        messages.append(f"hermitian asymmetry {asym:.3e} above tolerance")
    if eig_min < -tol or eig_max > 1.0 + tol:
        messages.append(f"eigenvalues outside [-tol, 1+tol]: min {eig_min:.3e}, max {eig_max:.6g}")
    if not np.isfinite(trace):
        messages.append("windowed trace is not finite")
    return ValidationReport(not messages, (a, b), n_nodes, asym, eig_min, eig_max, trace,
                            messages)
