"""Reproducible experiment runner.

One JSON config file describes one experiment; the only flags are
--config, --seed (override) and --out (override).  Every run writes its
artifacts plus a manifest echoing the config, the seed, library versions
and wall time.  Replicas are keyed by stream id, so a fixed config+seed
reproduces byte-identical numeric artifacts on any worker-pool size.

Exit codes: 0 success, 2 config error, 3 numerical validation failure,
4 inconclusive probe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (CapacityEstimate, _spans_two_decades, capacity_csv, decay_fit,
                       estimate_I_eps_from_samples, poisson_pair_count_oracle)
from .dynamics import (PairDriftTable, Trajectory, conditioned_pair_initials,
                       distorted_pair_collision_probe, dyson_collision_probe,
                       dyson_drift, hitting_stats_json, integrate_ensemble)
from .errors import ConfigError, DysonLabError
from .kernels import kernel_from_json, validate_kernel
from .rng import RngStream, map_streams
from .sampler import (Box, Configuration, DppSampler, lambda_n,
                      log_gas_window_counts, sample_dpp_batch, sample_log_gas,
                      sample_log_gas_batch, sample_poisson_batch)
from .spectral import nystrom_decompose
from .statistics import (crosscheck_density, density_crosscheck_csv,
                         estimate_correlation, rho_det_box_mean)
from .svg import Figure

EXPERIMENTS = ("validate", "sample", "correlations", "density-crosscheck",
               "convergence", "dynamics", "capacity")

_TOP_KEYS = {"experiment", "kernel", "window", "seed", "params", "output", "workers"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_seed(value) -> int:
    """The seed as given, if it is an integer in [0, 2^64)."""
    if not _is_int(value) or not 0 <= value < 1 << 64:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {value!r}")
    return value


def _check_workers(value, name: str) -> int:
    """The worker count as given, if it is an integer >= 1."""
    if not _is_int(value) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _check_log_gas(ns: list, rho_bar) -> float:
    """rho_bar as a float, if every log-gas size N is an integer >= 1 and
    rho_bar lies in (0, 1]."""
    if not all(_is_int(n) and n >= 1 for n in ns):
        raise ConfigError(f"log-gas N must be an integer >= 1, got {ns!r}")
    if not _is_real(rho_bar) or not 0.0 < rho_bar <= 1.0:
        raise ConfigError(f"rho_bar must lie in (0, 1], got {rho_bar!r}")
    return float(rho_bar)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    kernel: dict | None = None
    window: tuple | None = None
    params: dict = field(default_factory=dict)
    output: str | None = None
    workers: int | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        unknown = set(data) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError("config needs an 'experiment' field")
        if data["experiment"] not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {data['experiment']!r}; "
                              f"choose from {EXPERIMENTS}")
        if "seed" not in data:
            raise ConfigError("config needs a 'seed' field")
        window = tuple(data["window"]) if "window" in data else None
        workers = data.get("workers")
        if workers is not None:
            _check_workers(workers, "workers")
        return ExperimentConfig(data["experiment"], _check_seed(data["seed"]),
                                data.get("kernel"), window,
                                dict(data.get("params", {})),
                                data.get("output"), workers)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def _workers(cfg: ExperimentConfig) -> int:
    """Worker processes for sampling: the config's `workers`, else
    DYSON_LAB_THREADS, else 1."""
    if cfg.workers is not None:
        return cfg.workers
    env = os.environ.get("DYSON_LAB_THREADS")
    if not env:
        return 1
    value = int(env) if env.isascii() and env.isdigit() else env
    return _check_workers(value, "DYSON_LAB_THREADS")


def _require_kernel(cfg: ExperimentConfig):
    if cfg.kernel is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs a 'kernel' entry")
    return kernel_from_json(cfg.kernel)


def _param(cfg: ExperimentConfig, key: str, default):
    return cfg.params.get(key, default)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _dpp_samples(cfg, window, n_samples: int, workers: int):
    """The kernel and n_samples DPP draws on streams 0.., from one decomposition
    built here and shared with every worker."""
    kernel = _require_kernel(cfg)
    decomp = nystrom_decompose(kernel, window, _param(cfg, "n_nodes", 256))
    return kernel, map_streams(partial(sample_dpp_batch, decomp), cfg.seed, 0,
                               n_samples, workers)


def _exp_validate(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    kernel = _require_kernel(cfg)
    if cfg.window is None:
        raise ConfigError("validate needs a window")
    report = validate_kernel(kernel, cfg.window,
                             tol=_param(cfg, "tol", 1e-8),
                             n_nodes=_param(cfg, "n_nodes", 256))
    payload = {
        "passed": report.passed,
        "hermitian_max_asym": report.hermitian_max_asym,
        "eigen_min": report.eigen_min,
        "eigen_max": report.eigen_max,
        "trace": report.trace,
        "messages": report.messages,
    }
    _write_json(out / "validation.json", payload)
    artifacts.append("validation.json")
    return (0 if report.passed else 3), {"report": payload}


def _exp_sample(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    which = _param(cfg, "sampler", "dpp")
    n_samples = int(_param(cfg, "n_samples", 1000))
    workers = _workers(cfg)
    header = {"sampler": which, "seed": cfg.seed, "n_samples": n_samples}
    if which == "dpp":
        window = cfg.window or (-3.0, 3.0)
        kernel, samples = _dpp_samples(cfg, window, n_samples, workers)
        header.update(kernel=kernel.to_json(), window=list(window))
    elif which == "log_gas":
        n, rho_bar = _param(cfg, "N", 8), _param(cfg, "rho_bar", 1.0)
        draws = partial(sample_log_gas_batch, n, _check_log_gas([n], rho_bar))
        pts = map_streams(draws, cfg.seed, 0, n_samples, workers)
        samples = [Configuration(row, (-np.inf, np.inf)) for row in pts]
        header.update(N=n, rho_bar=rho_bar)
    elif which == "poisson":
        box = Box(_param(cfg, "box", [[0.0, 1.0]] * 3))
        intensity = float(_param(cfg, "intensity", 1.0))
        samples = map_streams(partial(sample_poisson_batch, intensity, box),
                              cfg.seed, 0, n_samples, workers)
        header.update(intensity=intensity, box=box.bounds.tolist())
    else:
        raise ConfigError(f"unknown sampler {which!r}")
    path = out / "samples.ndjson"
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for c in samples:
            fh.write(json.dumps(c.to_json()) + "\n")
    artifacts.append("samples.ndjson")
    counts = [c.count for c in samples]
    return 0, {"mean_count": float(np.mean(counts))}


def _exp_correlations(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    window = cfg.window or (-3.0, 3.0)
    n_samples = int(_param(cfg, "n_samples", 10_000))
    n_bins = int(_param(cfg, "n_bins", 24))
    kernel, samples = _dpp_samples(cfg, window, n_samples, _workers(cfg))
    edges = np.linspace(window[0], window[1], n_bins + 1)
    bins1 = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    est1 = estimate_correlation(samples, 1, bins1)
    path1 = out / "rho1.csv"
    with open(path1, "w") as fh:
        fh.write("bin_lo,bin_hi,value,std_error,n_samples,oracle\n")
        for b, v, se in zip(est1.bins, est1.values, est1.std_errors):
            oracle = rho_det_box_mean(kernel, [b])
            fh.write(f"{float(b[0])!r},{float(b[1])!r},{float(v)!r},{float(se)!r},"
                     f"{est1.n_samples},{oracle!r}\n")
    artifacts.append("rho1.csv")

    pair_bins = _param(cfg, "pair_bins", [[-0.1, 0.1], [0.4, 0.6]])
    bins2 = [tuple(map(float, b)) for b in pair_bins]
    est2 = estimate_correlation(samples, 2, bins2, pairs=[(0, 1)])
    path2 = out / "rho2.csv"
    with open(path2, "w") as fh:
        fh.write("bin_i,bin_j,value,std_error,n_samples,oracle\n")
        for (i, j), v, se in zip(est2.pairs, est2.values, est2.std_errors):
            oracle = rho_det_box_mean(kernel, [bins2[i], bins2[j]])
            fh.write(f"{i},{j},{float(v)!r},{float(se)!r},"
                     f"{est2.n_samples},{oracle!r}\n")
    artifacts.append("rho2.csv")
    return 0, {"rho1_mean": float(est1.values.mean())}


def _exp_density_crosscheck(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    kernel = _require_kernel(cfg)
    window = cfg.window or (-1.0, 1.0)
    decomp = nystrom_decompose(kernel, window, _param(cfg, "n_nodes", 1024))
    n_tuples = int(_param(cfg, "n_tuples", 20))
    orders = list(_param(cfg, "orders", [0, 1, 2]))
    gen = RngStream(cfg.seed, 0).generator()
    tuples: list = []
    for i in range(n_tuples):
        n = orders[i % len(orders)]
        tuples.append(np.sort(gen.uniform(window[0], window[1], n)))
    values = crosscheck_density(decomp, tuples,
                                k_max=int(_param(cfg, "k_max", 6)),
                                qmc_points=int(_param(cfg, "qmc_points", 1 << 20)))
    density_crosscheck_csv(values, out / "density_crosscheck.csv")
    artifacts.append("density_crosscheck.csv")
    bad = [dv for dv in values if not dv.consistent]
    return (0 if not bad else 3), {"n_tuples": len(values), "n_inconsistent": len(bad)}


def _exp_convergence(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    rho_bar = _param(cfg, "rho_bar", 1.0)
    ns = list(_param(cfg, "Ns", [8, 16, 32]))
    n_samples = _param(cfg, "n_samples", [200_000, 400_000, 400_000])
    if _is_int(n_samples):
        n_samples = [n_samples] * len(ns)
    if not isinstance(n_samples, list) or len(n_samples) != len(ns):
        raise ConfigError(f"n_samples must be an integer or a list of one per N, "
                          f"got {n_samples!r} for {len(ns)} values of Ns")
    half = _param(cfg, "bin_halfwidth", 0.15)
    rho_bar = _check_log_gas(ns, rho_bar)
    if not all(_is_int(m) and m >= 2 for m in n_samples):
        raise ConfigError(f"n_samples must be integers >= 2, got {n_samples!r}")
    if not _is_real(half) or not 0.0 < half < np.inf:
        raise ConfigError(f"bin_halfwidth must be a positive number, got {half!r}")
    half = float(half)
    workers = _workers(cfg)
    rows = []
    for idx, (n, m) in enumerate(zip(ns, n_samples)):
        counts = partial(log_gas_window_counts, n, rho_bar, half=half)
        in_bin = map_streams(counts, cfg.seed, idx << 32, m, workers)
        est = in_bin.mean() / (2 * half)
        se = in_bin.std(ddof=1) / np.sqrt(m) / (2 * half)
        rows.append((n, float(est), float(se), abs(float(est) - rho_bar)))
    path = out / "convergence.csv"
    with open(path, "w") as fh:
        fh.write("N,rho1_at_0,std_error,abs_gap\n")
        for n, est, se, gap in rows:
            fh.write(f"{n},{est!r},{se!r},{gap!r}\n")
    artifacts.append("convergence.csv")
    gaps = [r[3] for r in rows]
    return 0, {"monotone_decreasing": bool(all(a > b for a, b in zip(gaps, gaps[1:]))),
               "gaps": gaps, "target": rho_bar}


def _exp_dynamics(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    model = _param(cfg, "model", "dyson")
    n_paths = int(_param(cfg, "n_paths", 1000))
    T = float(_param(cfg, "T", 1.0))
    deltas = _param(cfg, "delta_sweep", None) or [float(_param(cfg, "delta", 1e-3))]
    c_dt = float(_param(cfg, "c_dt", 2e-3))
    dt_max = float(_param(cfg, "dt_max", 1e-3))
    if model == "distorted":
        # one decomposition, drift table and sampler serve every delta
        decomp = nystrom_decompose(_require_kernel(cfg), cfg.window or (-1.0, 1.0),
                                   _param(cfg, "n_nodes", 400))
        table = PairDriftTable(decomp)
        sampler = DppSampler(decomp)
    elif model != "dyson":
        raise ConfigError(f"unknown dynamics model {model!r}")
    results = []
    for k, delta in enumerate(deltas):
        rng = RngStream(cfg.seed, k << 32)
        if model == "dyson":
            stats = dyson_collision_probe(int(_param(cfg, "N", 8)), n_paths, T,
                                          float(delta), rng,
                                          rho_bar=float(_param(cfg, "rho_bar", 0.5)),
                                          dt_max=dt_max, c_dt=c_dt)
        else:
            initials = conditioned_pair_initials(sampler, n_paths, rng)
            stats = distorted_pair_collision_probe(table, initials, T, float(delta),
                                                   rng, dt_max=dt_max, c_dt=c_dt)
        results.append(hitting_stats_json(stats))
    _write_json(out / "probe.json", results)
    artifacts.append("probe.json")
    if _param(cfg, "example_trajectory", False):
        n = int(_param(cfg, "N", 8))
        rho_bar = float(_param(cfg, "rho_bar", 0.5))
        lam = lambda_n(n, rho_bar)
        init = sample_log_gas(n, rho_bar, RngStream(cfg.seed, 1 << 48))
        example = integrate_ensemble(init.points[None, :], lambda X: dyson_drift(X, lam),
                                     T=min(T, 0.2), delta=0.0,
                                     rng=RngStream(cfg.seed, (1 << 48) + 1), record=True)
        Trajectory.from_run(example).to_csv(out / "trajectory.csv")
        artifacts.append("trajectory.csv")
    inconclusive = any(r["inconclusive"] for r in results)
    return (4 if inconclusive else 0), {"probes": len(results)}


def _exp_capacity(cfg, out: Path, artifacts: list) -> tuple[int, dict]:
    variant = _param(cfg, "variant", "log")
    eps_list = _param(cfg, "eps", [1e-2, 1e-3, 1e-4, 1e-5])
    if not isinstance(eps_list, list) or not all(_is_real(e) and 0.0 < e < np.inf
                                                 for e in eps_list):
        raise ConfigError(f"eps must be a list of positive numbers, got {eps_list!r}")
    eps_list = [float(e) for e in eps_list]
    n_samples = int(_param(cfg, "n_samples", 20_000))
    workers = _workers(cfg)
    rows: list[CapacityEstimate] = []
    extra: dict = {"variant": variant}
    if variant == "log":
        if not all(0.0 < e < 1.0 for e in eps_list) or not _spans_two_decades(eps_list):
            raise ConfigError(f"the log variant needs at least 3 eps values in (0, 1) "
                              f"spanning two decades, got {eps_list}")
        inner = tuple(_param(cfg, "inner", (-2.0, 2.0)))
        _, samples = _dpp_samples(cfg, cfg.window or (-3.0, 3.0), n_samples, workers)
        for eps in eps_list:
            rows.append(estimate_I_eps_from_samples(samples, eps, "log", inner))
        fit = decay_fit(eps_list, rows)
        extra.update(C=fit.C, residual=fit.residual, inconclusive=fit.inconclusive,
                     messages=fit.messages)
        code = 4 if fit.inconclusive else 0
    elif variant == "linear":
        intensity = float(_param(cfg, "intensity", 2.0))
        box = Box(_param(cfg, "box", [[0.0, 1.2]] * 3))
        pad = float(_param(cfg, "inner_pad", 0.2))
        inner = Box(np.stack([box.bounds[:, 0] + pad, box.bounds[:, 1] - pad], axis=1))
        samples = map_streams(partial(sample_poisson_batch, intensity, box),
                              cfg.seed, 0, n_samples, workers)
        oracle = {}
        for eps in eps_list:
            rows.append(estimate_I_eps_from_samples(samples, eps, "linear", inner))
            oracle[eps] = poisson_pair_count_oracle(intensity, inner, eps)
        fit = None
        extra.update(oracle=oracle)
        code = 0
    else:
        raise ConfigError(f"unknown capacity variant {variant!r}")
    capacity_csv(rows, fit if variant == "log" else None, out / "capacity.csv")
    artifacts.append("capacity.csv")
    return code, extra


_RUNNERS = {
    "validate": _exp_validate,
    "sample": _exp_sample,
    "correlations": _exp_correlations,
    "density-crosscheck": _exp_density_crosscheck,
    "convergence": _exp_convergence,
    "dynamics": _exp_dynamics,
    "capacity": _exp_capacity,
}


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def emit_plotdata(paths: list, out_dir) -> list[str]:
    """Render result CSVs to static SVG plots with embedded data tables."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for p in map(Path, paths):
        header, rows = _read_csv(p)
        if not rows:
            raise ConfigError(f"{p} has no data rows")
        cols = {name: i for i, name in enumerate(header)}
        def col(name, rows=rows, cols=cols):
            if name not in cols:
                raise ConfigError(f"{p} is missing column {name!r}")
            return np.array([float(r[cols[name]]) for r in rows])
        if "eps" in cols:
            fig = Figure("capacity energy decay", "1/|log eps|", "energy")
            x = 1.0 / np.abs(np.log(col("eps")))
            fig.add(x, col("energy"), yerr=col("energy_se"), kind="points",
                    label="estimates")
            if "C_fit" in cols and rows[0][cols["C_fit"]]:
                c_fit = float(rows[0][cols["C_fit"]])
                xs = np.linspace(0, x.max() * 1.05, 32)
                fig.add(xs, c_fit * xs, label="C/|log eps| fit")
            name = p.stem + ".svg"
        elif "oracle" in cols and "bin_lo" in cols:
            fig = Figure("1-point correlation", "x", "rho1")
            centers = 0.5 * (col("bin_lo") + col("bin_hi"))
            fig.add(centers, col("value"), yerr=3 * col("std_error"),
                    kind="points", label="empirical (3 se)")
            fig.add(centers, col("oracle"), label="determinant")
            name = p.stem + ".svg"
        elif "oracle" in cols:
            fig = Figure("2-point correlation", "pair index", "rho2")
            idx = np.arange(len(rows), dtype=float)
            fig.add(idx, col("value"), yerr=3 * col("std_error"), kind="points",
                    label="empirical (3 se)")
            fig.add(idx, col("oracle"), kind="points", label="determinant")
            name = p.stem + ".svg"
        elif "rho1_at_0" in cols:
            fig = Figure("finite-N density at 0", "N", "rho1(0)")
            fig.add(col("N"), col("rho1_at_0"), yerr=col("std_error"), kind="points",
                    label="log-gas estimate")
            name = p.stem + ".svg"
        else:
            raise ConfigError(f"{p}: no plottable columns recognized")
        fig.embed_table(",".join(header), [",".join(r) for r in rows])
        fig.render(out_dir / name)
        written.append(name)
    return written


# ---------------------------------------------------------------------------
# runner entry points
# ---------------------------------------------------------------------------

def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run(cfg: ExperimentConfig, out_dir=None) -> int:
    out = Path(out_dir or cfg.output or f"dyson_lab_{cfg.experiment}")
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    artifacts: list[str] = []
    try:
        code, summary = _RUNNERS[cfg.experiment](cfg, out, artifacts)
    except ConfigError:
        raise
    except DysonLabError as exc:
        code, summary = 3, {"error": str(exc)}
    manifest = {
        "experiment": cfg.experiment,
        "config": {
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "kernel": cfg.kernel,
            "window": list(cfg.window) if cfg.window else None,
            "params": cfg.params,
            "workers": cfg.workers,
        },
        "seed": cfg.seed,
        "versions": _versions(),
        "wall_time_s": time.time() - t0,
        "artifacts": artifacts,
        "exit_code": code,
        "summary": summary,
    }
    _write_json(out / "manifest.json", manifest)
    return code


def _versions() -> dict:
    import scipy
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "dyson_lab": __version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dyson-lab",
                                     description="batch experiments on determinantal "
                                                 "point fields and their dynamics")
    parser.add_argument("experiment", choices=list(EXPERIMENTS) + ["plot"])
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
            cfg.seed = _check_seed(args.seed)
        return run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
