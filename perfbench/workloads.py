"""The four pinned workloads: CLI configs made from the benchmark seed,
their references, and the checks of their artifacts.

Each workload is one ``dyson-lab <experiment> --config`` run with
``workers = 1``.  Sizes are fixed; only the experiment seed comes from the
benchmark's ``--seed``, so the same seed gives the same inputs.  Why each
workload exists is in README.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Statistical checks allow this many standard errors.  With about thirty
# such comparisons per run, a correct program fails one by chance far less
# than once in a thousand runs.
Z = 5.0

SINE = {"family": "sine", "params": {"rho_bar": 1.0},
        "domain": {"kind": "full_line"}}
HOLDER = {"family": "product", "params": {"alpha": 0.5, "scale": 1.0},
          "domain": {"kind": "full_line"}}


@dataclass(frozen=True)
class Workload:
    experiment: str
    kernel: dict | None
    window: list | None
    params: dict
    references: Callable[[dict], dict]
    check: Callable[[dict, dict, Path], list[str]]

    def config(self, seed: int) -> dict:
        cfg = {"experiment": self.experiment, "seed": seed, "workers": 1,
               "params": self.params}
        if self.kernel is not None:
            cfg["kernel"] = self.kernel
            cfg["window"] = self.window
        return cfg


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within(label: str, value: float, mean: float, se: float) -> list[str]:
    if abs(value - mean) <= Z * se:
        return []
    return [f"{label}: {value!r} is {abs(value - mean) / se:.1f} se from {mean!r}"]


# ---------------------------------------------------------------------------
# loggas-convergence
# ---------------------------------------------------------------------------

def _loggas_references(cfg: dict) -> dict:
    p = cfg["params"]
    return {n: ref.loggas_bin_density(n, p["rho_bar"], p["bin_halfwidth"])
            for n in p["Ns"]}


def _loggas_check(cfg: dict, refs: dict, out: Path) -> list[str]:
    rows = _rows(out / "convergence.csv")
    ns = [int(r["N"]) for r in rows]
    if ns != cfg["params"]["Ns"]:
        return [f"convergence.csv has N = {ns}, config asks {cfg['params']['Ns']}"]
    problems = []
    for r in rows:
        n, se = int(r["N"]), float(r["std_error"])
        if not se > 0:
            problems.append(f"N={n}: std_error {se!r} is not positive")
            continue
        problems += _within(f"N={n} rho1_at_0", float(r["rho1_at_0"]), refs[n], se)
    return problems


# ---------------------------------------------------------------------------
# sine-correlations
# ---------------------------------------------------------------------------

def _sine_references(cfg: dict) -> dict:
    p = cfg["params"]
    kernel = ref.sine_kernel(cfg["kernel"]["params"]["rho_bar"])
    m = p["n_samples"]
    edges = np.linspace(cfg["window"][0], cfg["window"][1], p["n_bins"] + 1)
    bins = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    (bi, bj) = p["pair_bins"]
    return {"bins": bins,
            "rho1": [ref.rho1_bin_reference(kernel, b, m) for b in bins],
            "window": ref.rho1_bin_reference(kernel, tuple(cfg["window"]), m),
            "rho2": ref.rho2_pair_reference(kernel, tuple(bi), tuple(bj), m)}


def _sine_check(cfg: dict, refs: dict, out: Path) -> list[str]:
    rows1 = _rows(out / "rho1.csv")
    rows2 = _rows(out / "rho2.csv")
    m = cfg["params"]["n_samples"]
    if len(rows1) != len(refs["bins"]) or len(rows2) != 1:
        return [f"rho1.csv has {len(rows1)} bins and rho2.csv {len(rows2)} pairs"]
    if any(int(r["n_samples"]) != m for r in rows1 + rows2):
        return [f"rows report n_samples other than {m}"]
    problems = []
    values = []
    for r, b, (mean, se) in zip(rows1, refs["bins"], refs["rho1"]):
        if not np.allclose([float(r["bin_lo"]), float(r["bin_hi"])], b):
            problems.append(f"rho1 bin ({r['bin_lo']}, {r['bin_hi']}) is not {b}")
        values.append(float(r["value"]))
        problems += _within(f"rho1 on {b}", values[-1], mean, se)
    # the bins tile the window, so their mean is the window count / length
    problems += _within("rho1 over the window", float(np.mean(values)), *refs["window"])
    r = rows2[0]
    if (r["bin_i"], r["bin_j"]) != ("0", "1"):
        problems.append(f"rho2 row is pair ({r['bin_i']}, {r['bin_j']}), not (0, 1)")
    problems += _within("rho2 pair", float(r["value"]), *refs["rho2"])
    return problems


# ---------------------------------------------------------------------------
# holder-density-crosscheck
# ---------------------------------------------------------------------------

def _holder_kernel(cfg: dict):
    p = cfg["kernel"]["params"]
    return ref.product_kernel(p["alpha"], p["scale"])


def _density_references(cfg: dict) -> dict:
    # twice the workload's node count, solved by LU on the benchmark's own rule
    return {"void": ref.void_probability(_holder_kernel(cfg), cfg["window"],
                                         2 * cfg["params"]["n_nodes"])}


def _density_check(cfg: dict, refs: dict, out: Path) -> list[str]:
    rows = _rows(out / "density_crosscheck.csv")
    p = cfg["params"]
    if len(rows) != p["n_tuples"]:
        return [f"density_crosscheck.csv has {len(rows)} rows, not {p['n_tuples']}"]
    kernel = _holder_kernel(cfg)
    lo, hi = cfg["window"]
    problems = []
    for i, r in enumerate(rows):
        pts = [float(x) for x in r["points"].split(";") if x]
        order = int(r["order"])
        if order != p["orders"][i % len(p["orders"])] or len(pts) != order:
            problems.append(f"row {i}: order {order} with points {pts}")
            continue
        if any(not lo <= x <= hi for x in pts):
            problems.append(f"row {i}: points {pts} leave the window")
        tol = max(1e-6, 3.0 * float(r["truncation_bound"]))
        upper = ref.correlation(kernel, pts)
        series, fred = float(r["value_series"]), float(r["value_fredholm"])
        for route, v in (("series", series), ("fredholm", fred)):
            if not -tol <= v <= upper + tol:
                problems.append(f"row {i}: {route} {v!r} outside [0, rho_{order} = "
                                f"{upper!r}] +- {tol:.3g}")
            if order == 0 and abs(v - refs["void"]) > tol:
                problems.append(f"row {i}: {route} void probability {v!r} vs LU "
                                f"{refs['void']!r} beyond {tol:.3g}")
        if abs(series - fred) > tol:
            problems.append(f"row {i}: routes differ by {abs(series - fred):.3g} > {tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# holder-pair-dynamics
# ---------------------------------------------------------------------------

# criterion 6: the Holder pair collides with probability above this at delta = 1e-3
COLLISION_DELTA = 1e-3
COLLISION_FLOOR = 0.3


def _dynamics_check(cfg: dict, refs: dict, out: Path) -> list[str]:
    p = cfg["params"]
    probes = json.loads((out / "probe.json").read_text())
    if [pr["delta"] for pr in probes] != p["delta_sweep"]:
        return [f"probe.json deltas {[pr['delta'] for pr in probes]} differ from "
                f"{p['delta_sweep']}"]
    problems = []
    intervals = []
    for pr in probes:
        if pr["n_failures"] != 0 or pr["n_paths"] != p["n_paths"]:
            problems.append(f"delta {pr['delta']}: {pr['n_failures']} failures "
                            f"in {pr['n_paths']} paths")
        intervals.append(ref.wilson_interval(pr["n_hit"], pr["n_paths"]))
        if pr["delta"] == COLLISION_DELTA and not intervals[-1][0] > COLLISION_FLOOR:
            problems.append(f"delta {pr['delta']}: Wilson lower bound "
                            f"{intervals[-1][0]:.3f} not above {COLLISION_FLOOR}")
    deltas = p["delta_sweep"]
    for j in range(1, len(deltas)):
        if deltas[j] > deltas[j - 1] and intervals[j][1] < intervals[j - 1][0]:
            problems.append(f"hit fraction falls from delta {deltas[j - 1]} to "
                            f"{deltas[j]} beyond the intervals")
    return problems


WORKLOADS = {
    "loggas-convergence": Workload(
        "convergence", None, None,
        {"rho_bar": 1.0, "Ns": [8, 16, 32], "n_samples": [10000, 10000, 10000],
         "bin_halfwidth": 0.15},
        _loggas_references, _loggas_check),
    "sine-correlations": Workload(
        "correlations", SINE, [-3.0, 3.0],
        {"n_samples": 6000, "n_nodes": 256, "n_bins": 24,
         "pair_bins": [[-0.1, 0.1], [0.4, 0.6]]},
        _sine_references, _sine_check),
    "holder-density-crosscheck": Workload(
        "density-crosscheck", HOLDER, [-1.0, 1.0],
        {"n_nodes": 1024, "k_max": 6, "orders": [0, 1, 2], "n_tuples": 6,
         "qmc_points": 1 << 18},
        _density_references, _density_check),
    "holder-pair-dynamics": Workload(
        "dynamics", HOLDER, [-1.0, 1.0],
        {"model": "distorted", "n_nodes": 400, "n_paths": 200, "T": 1.0,
         "delta_sweep": [COLLISION_DELTA, 1e-2]},
        lambda cfg: {}, _dynamics_check),
}
