"""Reproducible experiment runner.

One JSON config file describes one experiment; the only flags are
--config, --seed (override) and --out (override).  Every config value is
checked against its row in `_TOP` or `_EXPERIMENTS` before any output.  Each
runner returns its files' text; `run` writes them, then a manifest echoing
the config, the seed, library versions, BLAS thread variables, wall time and
each file's size and sha256.  Every file's name, text format and write live
in this module.  Replicas are keyed by stream id, so a fixed config+seed
reproduces byte-identical numeric artifacts on any worker-pool size.

Exit codes: 0 success, 2 config error, 3 numerical validation failure,
4 inconclusive probe.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from functools import partial
from itertools import chain, combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
import scipy

from . import __version__
from .capacity import (_spans_two_decades, decay_fit, estimate_I_eps_from_samples,
                       poisson_pair_count_oracle)
from .dynamics import (PairDriftTable, conditioned_pair_initials,
                       distorted_pair_collision_probe, dyson_collision_probe,
                       dyson_drift, integrate_ensemble)
from .errors import ConfigError, DysonLabError, IntegrationFailureError
from .kernels import kernel_from_json, validate_kernel
from .rng import RngStream, map_streams
from .rules import POSITIVE, REQUIRED, UNIT, Rule, check_table, is_int, is_real
from .sampler import (Box, Configuration, DppSampler, lambda_n,
                      log_gas_window_counts, sample_log_gas,
                      sample_log_gas_batch, sample_poisson_batch)
from .spectral import nystrom_decompose
from .statistics import (K_MAX_RULE, QMC_POINTS_RULE, crosscheck_density,
                         estimate_correlation, rho_det_box_mean, standard_error)
from .svg import Figure

# ---------------------------------------------------------------------------
# config checks: one row (rule, default) per key
# ---------------------------------------------------------------------------

# a count, and an array's bytes, stay below 2^_SIZE_BITS, the bound of numpy's
# array sizes; neither check sees whether there is that much memory
_SIZE_BITS = np.iinfo(np.intp).bits - 1


def _int(lo: int) -> Rule:
    return Rule(f"an integer from {lo} to 2^{_SIZE_BITS} - 1",
                lambda v: is_int(v) and lo <= v < 1 << _SIZE_BITS)


def _list(item: Rule, min_len: int = 1, to=None) -> Rule:
    return Rule(f"a list of {min_len} or more, each {item.desc}",
                lambda v: isinstance(v, list) and len(v) >= min_len and all(map(item.ok, v)),
                to or (lambda v: [item.to(x) for x in v]))


def _choice(*options: str) -> Rule:
    return Rule(f"one of {', '.join(options)}", lambda v: v in options)


_OBJECT = Rule("a JSON object", lambda v: isinstance(v, dict))
_WORKERS, _NODES, _SAMPLES = _int(1), _int(8), _int(2)
_INTERVAL = Rule("[lo, hi] with lo < hi", lambda v: isinstance(v, list) and len(v) == 2
                 and all(map(is_real, v)) and v[0] < v[1], tuple)
_BOX = _list(_INTERVAL, to=Box)
_KERNEL = Rule("an object with a 'family' and optional 'params' and 'domain'",
               lambda v: isinstance(v, dict) and "family" in v
               and set(v) <= {"family", "params", "domain"}, kernel_from_json)


def _threads_env() -> int:
    """The default of `workers`: DYSON_LAB_THREADS, else 1."""
    env = os.environ.get("DYSON_LAB_THREADS") or "1"
    return _WORKERS("DYSON_LAB_THREADS", int(env) if env.isascii() and env.isdigit() else env)


# Top-level keys; an absent or null key takes the default, called if it is a
# function.  An experiment's table may override a row.
_TOP = {
    "seed": (Rule("an integer in [0, 2^64)", lambda v: is_int(v) and 0 <= v < 1 << 64),
             REQUIRED),
    "workers": (_WORKERS, _threads_env),
    "output": (Rule("a non-empty string", lambda v: isinstance(v, str) and v != ""), None),
    "kernel": (_KERNEL, None),
    "window": (_INTERVAL, None),
}


class ExperimentConfig(SimpleNamespace):
    """A config as given: its experiment, its params and each key of `_TOP`,
    None if absent; `check` gives the values its experiment reads."""

    def check(self) -> SimpleNamespace:
        """Every value the experiment reads, checked against its row, with
        defaults filled in and the kernel built."""
        spec = _EXPERIMENTS[self.experiment]
        clash = sorted(set(self.params) & set(_TOP))
        if clash:
            raise ConfigError(f"unknown parameters for {self.experiment}: {clash}")
        top = {key: getattr(self, key) for key in _TOP if getattr(self, key) is not None}
        p = SimpleNamespace(**check_table({**_TOP, **spec.params}, {**top, **self.params},
                                          self.experiment))
        for holds, message in [*spec.across, _on_the_kernel_domain("window")]:
            if not holds(p):
                raise ConfigError(message.format(p=p))
        return p


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # the file's entries; `check` checks those of _TOP, after any --seed override
    table = {"experiment": (_choice(*_EXPERIMENTS), REQUIRED), "params": (_OBJECT, dict),
             **{key: (Rule("any value", lambda v: True), None) for key in _TOP}}
    return ExperimentConfig(**check_table(table, _OBJECT("config", data), "the config"))


# ---------------------------------------------------------------------------
# artifacts: text formats and the one writer
# ---------------------------------------------------------------------------

def _r(x) -> str:
    # plain-float repr: numpy scalars stringify as np.float64(...) otherwise
    return repr(float(x))


def _csv(header: str, rows: Iterable[Sequence[str]]) -> str:
    return "".join(f"{line}\n" for line in [header, *map(",".join, rows)])


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _write(out: Path, name: str, text: str | Iterable[str]) -> dict:
    """Write text, or its chunks in order, to out/name through name.tmp and
    os.replace, so the file is whole or absent; its manifest entry.  An
    OSError, from the write or the rename, becomes a ConfigError."""
    path, tmp = out / name, out / f"{name}.tmp"
    digest, size = hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                data = chunk.encode()
                fh.write(data)
                digest.update(data)
                size += len(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise
    return {"name": name, "bytes": size, "sha256": digest.hexdigest()}


def _unlink(path: Path) -> None:
    try:
        path.unlink(missing_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a name with a null byte
        raise ConfigError(f"cannot remove {path}: {exc}") from exc


def _take_earlier_manifest(out: Path) -> set[str]:
    """Remove an earlier run's manifest, which marks a complete run, and
    return the bare file names it lists; a name with a directory part is
    dropped, so an edited manifest cannot reach outside out."""
    manifest = out / "manifest.json"
    try:
        names = {entry["name"] for entry in json.loads(manifest.read_text())["artifacts"]}
    except (OSError, ValueError, KeyError, TypeError):  # absent, or not a manifest
        names = set()
    _unlink(manifest)
    return {name for name in names if isinstance(name, str)
            and name not in ("", "..") and Path(name).name == name}


# ---------------------------------------------------------------------------
# experiments: each reads the checked values p and returns
# (exit code, summary, {file name: text or chunks})
# ---------------------------------------------------------------------------

def _dpp_samples(p):
    """n_samples DPP draws on streams 0.., from one decomposition and one set
    of sampling tables, built here and shared by every worker."""
    sampler = DppSampler(nystrom_decompose(p.kernel, p.window, p.n_nodes))
    return map_streams(sampler.sample_batch, p.seed, 0, p.n_samples, p.workers)


def _exp_validate(p) -> tuple[int, dict, dict]:
    report = validate_kernel(p.kernel, p.window, tol=p.tol, n_nodes=p.n_nodes)
    keys = ("passed", "hermitian_max_asym", "eigen_min", "eigen_max", "trace", "messages")
    payload = {key: getattr(report, key) for key in keys}
    return (0 if report.passed else 3), {"report": payload}, {
        "validation.json": _json_text(payload)}


def _exp_sample(p) -> tuple[int, dict, dict]:
    header = {"sampler": p.sampler, "seed": p.seed, "n_samples": p.n_samples}
    if p.sampler == "dpp":
        samples = _dpp_samples(p)
        header.update(kernel=p.kernel.to_json(), window=list(p.window))
    elif p.sampler == "log_gas":
        pts = map_streams(partial(sample_log_gas_batch, p.N, p.rho_bar), p.seed, 0,
                          p.n_samples, p.workers)
        samples = [Configuration(row) for row in pts]
        header.update(N=p.N, rho_bar=p.rho_bar)
    else:
        samples = map_streams(partial(sample_poisson_batch, p.intensity, p.box),
                              p.seed, 0, p.n_samples, p.workers)
        header.update(intensity=p.intensity, box=p.box.bounds.tolist())
    # one line at a time: the file is never held in memory whole
    lines = (json.dumps(row, sort_keys=True) + "\n"
             for row in chain([header], (c.to_json() for c in samples)))
    return 0, {"mean_count": float(np.mean([c.count for c in samples]))}, {
        "samples.ndjson": lines}


def _exp_correlations(p) -> tuple[int, dict, dict]:
    samples = _dpp_samples(p)
    edges = np.linspace(p.window[0], p.window[1], p.n_bins + 1)
    bins1 = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    est1 = estimate_correlation(samples, 1, bins1)
    rho1 = [(_r(b[0]), _r(b[1]), _r(v), _r(se), str(est1.n_samples),
             _r(rho_det_box_mean(p.kernel, [b])))
            for b, v, se in zip(est1.bins, est1.values, est1.std_errors)]
    est2 = estimate_correlation(samples, 2, p.pair_bins,
                                pairs=list(combinations(range(len(p.pair_bins)), 2)))
    rho2 = [(str(i), str(j), _r(v), _r(se), str(est2.n_samples),
             _r(rho_det_box_mean(p.kernel, [p.pair_bins[i], p.pair_bins[j]])))
            for (i, j), v, se in zip(est2.pairs, est2.values, est2.std_errors)]
    return 0, {"rho1_mean": float(est1.values.mean())}, {
        "rho1.csv": _csv("bin_lo,bin_hi,value,std_error,n_samples,oracle", rho1),
        "rho2.csv": _csv("bin_i,bin_j,value,std_error,n_samples,oracle", rho2)}


def _exp_density_crosscheck(p) -> tuple[int, dict, dict]:
    decomp = nystrom_decompose(p.kernel, p.window, p.n_nodes)
    gen = RngStream(p.seed, 0).generator()
    tuples = [np.sort(gen.uniform(p.window[0], p.window[1], p.orders[i % len(p.orders)]))
              for i in range(p.n_tuples)]
    ill_blocks: dict[int, int] = {}
    values = crosscheck_density(decomp, tuples, k_max=p.k_max, qmc_points=p.qmc_points,
                                ill_blocks=ill_blocks)
    rows = [(str(dv.order), ";".join(map(_r, dv.points)), _r(dv.value_series),
             _r(dv.value_fredholm), _r(dv.truncation_bound),
             *(_r(dv.components[c]) for c in ("remainder", "qmc", "resolution")),
             str(int(dv.consistent))) for dv in values]
    bad = [dv for dv in values if not dv.consistent]
    return (0 if not bad else 3), {"n_tuples": len(values), "n_inconsistent": len(bad),
                                   "ill_blocks": ill_blocks}, {
        "density_crosscheck.csv": _csv("order,points,value_series,value_fredholm,"
                                       "truncation_bound,remainder,qmc,resolution,"
                                       "consistent", rows)}


def _exp_convergence(p) -> tuple[int, dict, dict]:
    n_samples = p.n_samples if isinstance(p.n_samples, list) else [p.n_samples] * len(p.Ns)
    rows = []
    for idx, (n, m) in enumerate(zip(p.Ns, n_samples)):
        counts = partial(log_gas_window_counts, n, p.rho_bar, half=p.bin_halfwidth)
        in_bin = map_streams(counts, p.seed, idx << 32, m, p.workers)
        est = in_bin.mean() / (2 * p.bin_halfwidth)
        se = standard_error(in_bin) / (2 * p.bin_halfwidth)
        rows.append((n, float(est), float(se), abs(float(est) - p.rho_bar)))
    gaps = [r[3] for r in rows]
    return 0, {"monotone_decreasing": bool(all(a > b for a, b in zip(gaps, gaps[1:]))),
               "gaps": gaps, "target": p.rho_bar}, {
        "convergence.csv": _csv("N,rho1_at_0,std_error,abs_gap",
                                [(str(n), *map(_r, r)) for n, *r in rows])}


def _exp_dynamics(p) -> tuple[int, dict, dict]:
    # delta k runs on stream k << 32; every delta is integrated in one pass
    rngs = [RngStream(p.seed, k << 32) for k in range(len(p.delta_sweep))]
    if p.model == "dyson":
        rows = dyson_collision_probe(p.N, p.n_paths, list(zip(p.delta_sweep, rngs)), p.T,
                                     rho_bar=p.rho_bar, dt_max=p.dt_max, c_dt=p.c_dt)
    else:
        # one decomposition, drift table and sampler serve every delta
        decomp = nystrom_decompose(p.kernel, p.window, p.n_nodes)
        table = PairDriftTable(decomp)
        sampler = DppSampler(decomp)
        sweep = [(conditioned_pair_initials(sampler, p.n_paths, rng), delta, rng)
                 for delta, rng in zip(p.delta_sweep, rngs)]
        rows = distorted_pair_collision_probe(table, sweep, p.T, dt_max=p.dt_max, c_dt=p.c_dt)
    sde = [row.pop("sde") for row in rows]
    files = {"probe.json": _json_text(rows)}
    if p.example_trajectory:
        lam = lambda_n(p.N, p.rho_bar)
        init = sample_log_gas(p.N, p.rho_bar, RngStream(p.seed, 1 << 48))
        [example] = integrate_ensemble([(init.points[None, :], 0.0,
                                         RngStream(p.seed, (1 << 48) + 1))],
                                       lambda X: dyson_drift(X, lam), T=min(p.T, 0.2),
                                       record=True)
        if example.failed[0]:
            raise IntegrationFailureError(
                f"step size underflow with gap {np.min(np.diff(example.final[0])):.3e}")
        # each frame's one path: its time, its state and its minimum gap
        files["trajectory.csv"] = _csv(
            ",".join(["time", *(f"x{i}" for i in range(p.N)), "min_gap"]),
            [list(map(_r, [t[0], *X[0], np.min(np.diff(X[0]), initial=np.inf)]))
             for t, X in example.frames])
    return ((4 if any(row["inconclusive"] for row in rows) else 0),
            # the sweep's lockstep iterations, one drift call each
            {"probes": len(rows), "sde": sde,
             "drift_calls": max(s["iterations"] for s in sde)}, files)


def _exp_capacity(p) -> tuple[int, dict, dict]:
    extra: dict = {"variant": p.variant}
    fit = None
    if p.variant == "log":
        samples, inner = _dpp_samples(p), p.inner
    else:
        inner = Box(p.box.bounds + [p.inner_pad, -p.inner_pad])
        samples = map_streams(partial(sample_poisson_batch, p.intensity, p.box),
                              p.seed, 0, p.n_samples, p.workers)
        extra.update(oracle={eps: poisson_pair_count_oracle(p.intensity, inner, eps)
                             for eps in p.eps})
    rows = [estimate_I_eps_from_samples(samples, eps, p.variant, inner) for eps in p.eps]
    extra["degenerate_eps"] = [e.eps for e in rows if e.degenerate]
    if p.variant == "log":
        fit = decay_fit(p.eps, rows)
        extra.update(C=fit.C, residual=fit.residual, inconclusive=fit.inconclusive,
                     messages=fit.messages)
    fit_cols = [_r(fit.C), _r(fit.residual)] if fit else ["", ""]
    # a run that scores no pair at any eps measures nothing
    unscored = len(extra["degenerate_eps"]) == len(rows)
    return (4 if extra.get("inconclusive") or unscored else 0), extra, {
        "capacity.csv": _csv("eps,energy,energy_se,l2,l2_se,n_active,C_fit,residual",
                             [(*map(_r, (e.eps, e.energy, e.energy_se, e.l2_term, e.l2_se)),
                               str(e.n_active), *fit_cols) for e in rows])}


def _kernel_for(key: str, choice: str) -> tuple:
    """Choosing `choice` for `key` draws from a DPP, which needs a kernel."""
    return (lambda p: getattr(p, key) != choice or p.kernel is not None,
            f"{key} {choice!r} needs a 'kernel' entry")


def _on_the_kernel_domain(key: str) -> tuple:
    """A half-line kernel is evaluated over `key`, an interval or a list of
    them, so no part of it may reach below 0."""
    return (lambda p: p.kernel is None or p.kernel.domain == "full_line"
            or getattr(p, key) is None or min(np.ravel(getattr(p, key))) >= 0,
            f"{key} {{p.{key}!r}} reaches below 0, off the {{p.kernel.family}} kernel's half line")


def _addressable(entries: Callable) -> tuple:
    """entries(p) floats, the largest array a run sizes from N, fit numpy's bound."""
    return (lambda p: 8 * entries(p) < 1 << _SIZE_BITS,
            f"an array sized from N {{p.N}} would pass numpy's 2^{_SIZE_BITS}-byte bound")


def _one_count_per_n(p) -> bool:
    return is_int(p.n_samples) or len(p.n_samples) == len(p.Ns)


def _log_eps_span_two_decades(p) -> bool:
    return p.variant != "log" or max(p.eps) < 1.0 and _spans_two_decades(p.eps)


def _inner_box_fits(p) -> bool:
    return p.variant != "linear" or bool(np.all(2 * p.inner_pad < np.diff(p.box.bounds)))


class Experiment(NamedTuple):
    """A runner, its params table and its cross-field rules (holds(p), message)."""

    run: Callable
    params: dict
    across: Sequence = ()


# Each experiment's params, which may override a row of _TOP; defaults are
# written as the runner reads them.
_EXPERIMENTS = {
    "validate": Experiment(_exp_validate, {
        "kernel": (_KERNEL, REQUIRED),
        "window": (_INTERVAL, REQUIRED),
        "tol": (POSITIVE, 1e-8),
        "n_nodes": (_NODES, 256),
    }),
    "sample": Experiment(_exp_sample, {
        "sampler": (_choice("dpp", "log_gas", "poisson"), "dpp"),
        "n_samples": (_int(1), 1000),
        "window": (_INTERVAL, (-3.0, 3.0)),
        "n_nodes": (_NODES, 256),
        "N": (_int(1), 8),
        "rho_bar": (Rule(UNIT.desc, UNIT.ok), 1.0),  # the header echoes it as given
        "intensity": (POSITIVE, 1.0),
        "box": (_BOX, Box([[0.0, 1.0]] * 3)),
    }, [_kernel_for("sampler", "dpp"),
        # the (n_samples, N) draws or an N x N matrix
        _addressable(lambda p: p.N * max(p.n_samples, p.N) * (p.sampler == "log_gas"))]),
    "correlations": Experiment(_exp_correlations, {
        "kernel": (_KERNEL, REQUIRED),
        "window": (_INTERVAL, (-3.0, 3.0)),
        "n_samples": (_SAMPLES, 10_000),
        "n_nodes": (_NODES, 256),
        "n_bins": (_int(1), 24),
        "pair_bins": (_list(_INTERVAL, 2), [(-0.1, 0.1), (0.4, 0.6)]),
    }, [_on_the_kernel_domain("pair_bins")]),
    "density-crosscheck": Experiment(_exp_density_crosscheck, {
        "kernel": (_KERNEL, REQUIRED),
        "window": (_INTERVAL, (-1.0, 1.0)),
        "n_nodes": (_NODES, 1024),
        "n_tuples": (_int(1), 20),
        "orders": (_list(_int(0)), [0, 1, 2]),
        "k_max": (K_MAX_RULE, 6),
        "qmc_points": (QMC_POINTS_RULE, 1 << 20),
    }),
    "convergence": Experiment(_exp_convergence, {
        "Ns": (_list(_int(1)), [8, 16, 32]),
        "n_samples": (Rule(f"{_SAMPLES.desc} or a list of them",
                           lambda v: _SAMPLES.ok(v) or _list(_SAMPLES).ok(v)),
                      [200_000, 400_000, 400_000]),
        "rho_bar": (UNIT, 1.0),
        "bin_halfwidth": (POSITIVE, 0.15),
    }, [(_one_count_per_n, "n_samples must be an integer or a list of one per N, "
                           "got {p.n_samples!r} for Ns {p.Ns!r}")]),
    "dynamics": Experiment(_exp_dynamics, {
        "model": (_choice("dyson", "distorted"), "dyson"),
        "n_paths": (_int(1), 1000),
        "T": (POSITIVE, 1.0),
        "delta_sweep": (_list(POSITIVE), [1e-3]),
        "c_dt": (POSITIVE, 2e-3),
        "dt_max": (POSITIVE, 1e-3),
        "N": (_int(1), 8),
        "rho_bar": (UNIT, 0.5),
        "window": (_INTERVAL, (-1.0, 1.0)),
        "n_nodes": (_NODES, 400),
        "example_trajectory": (Rule("true or false", lambda v: isinstance(v, bool)), False),
    }, [_kernel_for("model", "distorted"),
        # the sweep's (len(delta_sweep) * n_paths, N) states, or one N x N
        # block of the drift's pair differences or of the log-gas draws
        _addressable(lambda p: max(len(p.delta_sweep) * p.n_paths * p.N, p.N ** 2)
                     * (p.model == "dyson")),
        # the example trajectory is a path of the dyson log-gas
        (lambda p: p.model == "dyson" or not p.example_trajectory,
         "example_trajectory needs model 'dyson', not {p.model!r}"),
        # the drift table evaluates the kernel at pairs outside the window
        (lambda p: p.model != "distorted" or p.kernel.domain == "full_line",
         "model 'distorted' needs a full-line kernel, not {p.kernel.family}")]),
    "capacity": Experiment(_exp_capacity, {
        "variant": (_choice("log", "linear"), "log"),
        "eps": (_list(POSITIVE), [1e-2, 1e-3, 1e-4, 1e-5]),
        "n_samples": (_SAMPLES, 20_000),
        "window": (_INTERVAL, (-3.0, 3.0)),
        "n_nodes": (_NODES, 256),
        "inner": (_INTERVAL, (-2.0, 2.0)),
        "intensity": (POSITIVE, 2.0),
        "box": (_BOX, Box([[0.0, 1.2]] * 3)),
        "inner_pad": (Rule("a number >= 0", lambda v: is_real(v) and v >= 0, float), 0.2),
    }, [_kernel_for("variant", "log"),
       (_log_eps_span_two_decades, "the log variant needs at least 3 eps values in (0, 1) "
                                   "spanning two decades, got {p.eps}"),
       (_inner_box_fits, "inner_pad {p.inner_pad!r} must be less than half of every "
                         "side of the box")]),
}


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise ConfigError(f"{path} has no data rows")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ConfigError(f"{path} has rows of unequal length")
    return header, rows


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {path} as the output directory: {exc}") from exc


def emit_plotdata(paths: list, out_dir) -> None:
    """Render result CSVs to static SVG plots with embedded data tables.
    Every figure is built before the first is written, so a bad file
    leaves no output."""
    figures = []
    for p in map(Path, paths):
        header, rows = _read_csv(p)
        cols = {name: i for i, name in enumerate(header)}
        def col(name, rows=rows, cols=cols):
            if name not in cols:
                raise ConfigError(f"{p} is missing column {name!r}")
            try:
                return np.array([float(r[cols[name]]) for r in rows])
            except ValueError as exc:
                raise ConfigError(f"{p}: column {name!r} is not all numbers") from exc
        if "eps" in cols:
            fig = Figure("capacity energy decay", "1/|log eps|", "energy")
            with np.errstate(divide="ignore", invalid="ignore"):
                x = 1.0 / np.abs(np.log(col("eps")))
            fig.add(x, col("energy"), yerr=col("energy_se"), kind="points",
                    label="estimates")
            if "C_fit" in cols and rows[0][cols["C_fit"]]:
                xs = np.linspace(0, x.max() * 1.05, 32)
                fig.add(xs, col("C_fit")[0] * xs, label="C/|log eps| fit")
        elif "oracle" in cols and "bin_lo" in cols:
            fig = Figure("1-point correlation", "x", "rho1")
            centers = 0.5 * (col("bin_lo") + col("bin_hi"))
            fig.add(centers, col("value"), yerr=3 * col("std_error"),
                    kind="points", label="empirical (3 se)")
            fig.add(centers, col("oracle"), label="determinant")
        elif "oracle" in cols:
            fig = Figure("2-point correlation", "pair index", "rho2")
            idx = np.arange(len(rows), dtype=float)
            fig.add(idx, col("value"), yerr=3 * col("std_error"), kind="points",
                    label="empirical (3 se)")
            fig.add(idx, col("oracle"), kind="points", label="determinant")
        elif "rho1_at_0" in cols:
            fig = Figure("finite-N density at 0", "N", "rho1(0)")
            fig.add(col("N"), col("rho1_at_0"), yerr=col("std_error"), kind="points",
                    label="log-gas estimate")
        else:
            raise ConfigError(f"{p}: no plottable columns recognized")
        if not all(np.isfinite(arr).all() for curve in fig.curves for arr in curve[:3]
                   if arr is not None):
            raise ConfigError(f"{p}: a plotted value is not finite")
        fig.embed_table(",".join(header), [",".join(r) for r in rows])
        figures.append((fig, f"{p.stem}.svg"))
    out_dir = Path(out_dir)
    _make_dir(out_dir)
    for fig, name in figures:
        _write(out_dir, name, fig.render())


# ---------------------------------------------------------------------------
# runner entry points
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig, out_dir=None) -> int:
    p = cfg.check()
    out = Path(out_dir or p.output or f"dyson_lab_{cfg.experiment}")
    _make_dir(out)
    earlier = _take_earlier_manifest(out)
    t0 = time.time()
    try:
        code, summary, files = _EXPERIMENTS[cfg.experiment].run(p)
    except DysonLabError as exc:
        code, summary, files = 3, {"error": str(exc)}, {}
    # files reach disk only once the runner has returned; the earlier run's
    # files that this one does not rewrite go first
    for name in sorted(earlier - set(files)):
        _unlink(out / name)
    artifacts = [_write(out, name, text) for name, text in files.items()]
    manifest = {
        "experiment": cfg.experiment,
        # the output directory is where the run went, not what it ran
        "config": {key: value for key, value in vars(cfg).items() if key != "output"},
        "seed": cfg.seed,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "dyson_lab": __version__,
                     **{v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "wall_time_s": time.time() - t0,
        "artifacts": artifacts,
        "exit_code": code,
        "summary": summary,
    }
    _write(out, "manifest.json", _json_text(manifest))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dyson-lab",
                                     description="batch experiments on determinantal "
                                                 "point fields and their dynamics")
    parser.add_argument("experiment", choices=[*_EXPERIMENTS, "plot"])
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("files", nargs="*", help="result files (plot only)")
    args = parser.parse_args(argv)

    try:
        if args.experiment == "plot":
            if not args.files:
                raise ConfigError("plot needs at least one result file")
            emit_plotdata(args.files, args.out or ".")
            return 0
        if not args.config:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        if cfg.experiment != args.experiment:
            raise ConfigError(f"config is for {cfg.experiment!r}, "
                              f"command line says {args.experiment!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
