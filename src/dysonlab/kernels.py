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

All evaluators are pure and vectorized; instances are immutable after
construction and safe to share between threads.

The divided-difference families (airy, bessel) have removable diagonal
singularities.  They are evaluated through closed diagonal formulas,
  airy:   K(x,x) = Ai'(x)^2 - x Ai(x)^2
  bessel: K(x,x) = (J_a(u)^2 - J_{a+1}(u) J_{a-1}(u)) / 4,  u = sqrt(x)
(the second form is the l'Hopital limit rewritten through the Bessel
recurrences so that no cancellation survives), and the evaluator switches
to the midpoint diagonal value once |x-y| < 1e-6, where the symmetric
Taylor expansion of the divided difference has no linear term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .errors import KernelParameterError

_DIAG_SWITCH = 1e-6

FAMILIES = ("sine", "airy", "bessel", "product", "custom")


@dataclass(frozen=True)
class AmbientDomain:
    """Where the point field lives.

    kind: "full_line", "half_line" or "box"; bounds is None for the two
    line kinds and a (d, 2) array of box coordinates for "box".
    Boxes with d >= 2 are only used by the Poisson capacity probe.
    """

    kind: str = "full_line"
    bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("full_line", "half_line", "box"):
            raise KernelParameterError(f"unknown domain kind {self.kind!r}")
        if self.kind == "box":
            b = np.atleast_2d(np.asarray(self.bounds, dtype=float))
            if b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
                raise KernelParameterError("box bounds must be rows of (lo, hi) with lo < hi")
            object.__setattr__(self, "bounds", b)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.bounds is not None:
            out["bounds"] = np.asarray(self.bounds).tolist()
        return out

    @staticmethod
    def from_json(data: dict) -> "AmbientDomain":
        return AmbientDomain(data["kind"], data.get("bounds"))


@dataclass(frozen=True)
class Kernel:
    """Symmetric two-point evaluator with a family tag.

    ``eval`` broadcasts over array arguments.  ``radial`` is set for the
    product family only and returns the even factor k(t).
    """

    family: str
    params: dict
    domain: AmbientDomain
    _eval: Callable = field(repr=False, compare=False)
    radial: Callable | None = field(default=None, repr=False, compare=False)
    envelope: Callable | None = field(default=None, repr=False, compare=False)

    def eval(self, x, y):
        return self._eval(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __call__(self, x, y):
        return self.eval(x, y)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                       for k, v in self.params.items()},
            "domain": self.domain.to_json(),
        }

    def __reduce__(self):
        # the evaluators are closures: a kernel crosses a process boundary as its JSON
        return kernel_from_json, (self.to_json(),)


def _sine_eval(rho_bar):
    def ev(x, y):
        # np.sinc carries the pi convention: sinc(z) = sin(pi z)/(pi z)
        return rho_bar * np.sinc(x - y)
    return ev


def _airy_eval():
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
    a = float(order)

    def ev(x, y):
        x, y = np.broadcast_arrays(x, y)
        if np.any(x < 0) or np.any(y < 0):
            raise KernelParameterError("bessel kernel is defined on the half line x >= 0")
        sx, sy = np.sqrt(x), np.sqrt(y)
        d = x - y
        near = np.abs(d) < _DIAG_SWITCH
        um = np.sqrt(0.5 * (x + y))
        diag = (special.jv(a, um) ** 2 - special.jv(a + 1, um) * special.jv(a - 1, um)) / 4.0
        with np.errstate(divide="ignore", invalid="ignore"):
            off = (special.jv(a, sx) * sy * special.jvp(a, sy)
                   - special.jv(a, sy) * sx * special.jvp(a, sx)) / (2.0 * d)
        return np.where(near, diag, off)
    return ev


def _product_eval(alpha, scale):
    def envelope(x):
        return np.exp(-((np.asarray(x, dtype=float) / scale) ** 2))

    def radial(t):
        return np.exp(-np.abs(np.asarray(t, dtype=float)) ** alpha)

    def ev(x, y):
        return envelope(x) * radial(x - y) * envelope(y)
    return ev, radial, envelope


def _custom_eval(grid, values):
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise KernelParameterError("custom kernel needs a strictly increasing grid")
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


def construct_kernel(family: str, domain: AmbientDomain | None = None, **params) -> Kernel:
    """Build a kernel from a family tag and named parameters.

    sine:    rho_bar in (0, 1]
    airy:    no parameters
    bessel:  order > -1
    product: alpha in (0, 1], scale > 0 (default 1)
    custom:  grid (1d array), values ((n, n) table)
    """
    family = str(family).lower()
    if family not in FAMILIES:
        raise KernelParameterError(f"unknown kernel family {family!r}")

    radial = envelope = None
    if family == "sine":
        rho_bar = float(params.pop("rho_bar", 1.0))
        if not 0.0 < rho_bar <= 1.0:
            raise KernelParameterError("sine kernel needs 0 < rho_bar <= 1")
        ev = _sine_eval(rho_bar)
        params_out = {"rho_bar": rho_bar}
        domain = domain or AmbientDomain("full_line")
    elif family == "airy":
        ev = _airy_eval()
        params_out = {}
        domain = domain or AmbientDomain("full_line")
    elif family == "bessel":
        order = float(params.pop("order", 0.0))
        if order <= -1.0:
            raise KernelParameterError("bessel kernel needs order > -1")
        ev = _bessel_eval(order)
        params_out = {"order": order}
        domain = domain or AmbientDomain("half_line")
    elif family == "product":
        alpha = float(params.pop("alpha", 1.0))
        scale = float(params.pop("scale", 1.0))
        if not 0.0 < alpha <= 1.0:
            raise KernelParameterError("product kernel needs 0 < alpha <= 1")
        if scale <= 0.0:
            raise KernelParameterError("product kernel needs scale > 0")
        ev, radial, envelope = _product_eval(alpha, scale)
        params_out = {"alpha": alpha, "scale": scale}
        domain = domain or AmbientDomain("full_line")
    else:
        grid = params.pop("grid")
        values = params.pop("values")
        ev = _custom_eval(grid, values)
        params_out = {"grid": np.asarray(grid, dtype=float),
                      "values": np.asarray(values, dtype=float)}
        domain = domain or AmbientDomain("full_line")

    if params:
        raise KernelParameterError(f"unknown parameters for {family}: {sorted(params)}")
    if domain.kind == "half_line" and family != "bessel":
        raise KernelParameterError("half_line domain is reserved for the bessel family")
    return Kernel(family, params_out, domain, ev, radial, envelope)


def kernel_from_json(data: dict) -> Kernel:
    domain = AmbientDomain.from_json(data["domain"]) if "domain" in data else None
    return construct_kernel(data["family"], domain=domain, **data.get("params", {}))


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
    from . import spectral  # local import: spectral has no kernel dependency

    a, b = float(window[0]), float(window[1])
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise KernelParameterError("validation window must be a bounded interval")
    if tol <= 0:
        raise KernelParameterError("tol must be positive")

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
    eig_min, eig_max = float(raw.min()), float(raw.max())
    trace = float(raw.sum())

    ok = True
    if asym > max(tol, 1e-10):
        ok = False
        messages.append(f"hermitian asymmetry {asym:.3e} above tolerance")
    if eig_min < -tol or eig_max > 1.0 + tol:
        ok = False
        messages.append(f"eigenvalues outside [-tol, 1+tol]: min {eig_min:.3e}, max {eig_max:.6g}")
    if not np.isfinite(trace):
        ok = False
        messages.append("windowed trace is not finite")
    return ValidationReport(ok, (a, b), n_nodes, asym, eig_min, eig_max, trace, messages)
