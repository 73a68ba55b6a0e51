import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dysonlab as dl
from dysonlab import RngStream, cli
from dysonlab.dynamics import hitting_stats_json
from dysonlab.errors import ConfigError, SamplingError
from dysonlab.statistics import rho_det_box_mean

from conftest import InlinePool
from oracles import sobol_points


def write_config(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


SINE = {"family": "sine", "params": {"rho_bar": 1.0},
        "domain": {"kind": "full_line"}}


def numeric_artifacts(out_dir):
    """Bytes of every artifact except the manifest (which carries timing)."""
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.name != "manifest.json":
            out[p.name] = p.read_bytes()
    return out


def assert_manifest_lists_every_file(out_dir):
    """Each manifest entry gives its file's size and sha256, and the directory
    holds those files and the manifest only: no temp file is left."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    names = [entry["name"] for entry in manifest["artifacts"]]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*names, "manifest.json"])
    for entry in manifest["artifacts"]:
        data = (out_dir / entry["name"]).read_bytes()
        assert entry == {"name": entry["name"], "bytes": len(data),
                         "sha256": hashlib.sha256(data).hexdigest()}
    return manifest


def test_unknown_config_key_rejected(tmp_path):
    path = write_config(tmp_path, {"experiment": "validate", "seed": 1, "bogus": 2})
    with pytest.raises(ConfigError):
        cli.load_config(path)


def test_unknown_experiment_rejected(tmp_path):
    path = write_config(tmp_path, {"experiment": "frobnicate", "seed": 1})
    with pytest.raises(ConfigError):
        cli.load_config(path)


def test_main_returns_2_on_config_error(tmp_path):
    path = write_config(tmp_path, {"experiment": "validate", "seed": 1, "junk": 0})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["validate"]) == 2
    assert cli.main(["plot"]) == 2


def test_validate_experiment_ok(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "validate", "seed": 3, "kernel": SINE,
        "window": [-3, 3], "output": str(tmp_path / "out")})
    assert cli.main(["validate", "--config", path]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["summary"]["report"]["trace"] == pytest.approx(6.0, abs=1e-6)
    report = json.loads((tmp_path / "out" / "validation.json").read_text())
    assert report["passed"]


def test_validate_experiment_bad_kernel(tmp_path):
    grid = np.linspace(-1, 1, 5)
    kernel = {"family": "custom",
              "params": {"grid": grid.tolist(),
                         "values": (2 * np.ones((5, 5))).tolist()}}
    path = write_config(tmp_path, {
        "experiment": "validate", "seed": 3, "kernel": kernel,
        "window": [-1, 1], "output": str(tmp_path / "bad")})
    assert cli.main(["validate", "--config", path]) == 3


def test_sample_experiment_ndjson(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "sample", "seed": 9, "kernel": SINE, "window": [-3, 3],
        "params": {"n_samples": 50, "n_nodes": 64},
        "output": str(tmp_path / "s")})
    assert cli.main(["sample", "--config", path]) == 0
    lines = (tmp_path / "s" / "samples.ndjson").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["n_samples"] == 50 and header["seed"] == 9
    assert header["kernel"]["family"] == "sine"
    assert len(lines) == 51
    for ln in lines[1:4]:
        pts = json.loads(ln)
        assert pts == sorted(pts)


def test_sample_bessel_on_a_window_from_zero(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "sample", "seed": 4, "kernel": BESSEL, "window": [0, 6],
        "params": {"n_samples": 30, "n_nodes": 128}, "output": str(tmp_path / "s")})
    assert cli.main(["sample", "--config", path]) == 0
    lines = (tmp_path / "s" / "samples.ndjson").read_text().splitlines()
    assert len(lines) == 31


def test_convergence_experiment_small(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "convergence", "seed": 5,
        "params": {"Ns": [4, 8], "n_samples": 4000},
        "output": str(tmp_path / "c")})
    assert cli.main(["convergence", "--config", path]) == 0
    rows = (tmp_path / "c" / "convergence.csv").read_text().splitlines()
    assert rows[0] == "N,rho1_at_0,std_error,abs_gap"
    assert len(rows) == 3


def test_convergence_rejects_mismatched_sample_counts(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "convergence", "seed": 5,
        "params": {"Ns": [4, 6, 8, 10], "n_samples": [2000, 2000]},
        "output": str(tmp_path / "c")})
    assert cli.main(["convergence", "--config", path]) == 2
    assert not (tmp_path / "c" / "convergence.csv").exists()


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


def test_convergence_csv_identical_for_one_and_two_workers(tmp_path):
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        path = write_config(tmp_path, {
            "experiment": "convergence", "seed": 8, "workers": workers,
            "params": {"Ns": [4, 8], "n_samples": 3001, "bin_halfwidth": 0.2},
            "output": str(out)}, name=f"w{workers}.json")
        assert cli.main(["convergence", "--config", path]) == 0
        runs.append((out / "convergence.csv").read_bytes())
    assert runs[0] == runs[1]
    # the Sturm counts reproduce the eigenvalue counts of the same streams
    rows = runs[0].decode().splitlines()[1:]
    for idx, (n, row) in enumerate(zip((4, 8), rows)):
        pts = dl.sample_log_gas_batch(n, 1.0, 8, 3001, base_stream=idx << 32)
        in_bin = np.sum((pts > -0.2) & (pts < 0.2), axis=1)
        assert row.split(",")[1] == repr(float(in_bin.mean() / 0.4))


@pytest.mark.parametrize("params", [
    {"Ns": [0], "n_samples": 100},
    {"Ns": [4, 2.5], "n_samples": 100},
    {"Ns": [4], "n_samples": 0},
    {"Ns": [4], "n_samples": 1},
    {"Ns": [4, 8], "n_samples": [100, 1]},
    {"Ns": [4], "n_samples": 100, "bin_halfwidth": 0},
    {"Ns": [4], "n_samples": 100, "bin_halfwidth": -0.1},
    {"Ns": [4], "n_samples": 100, "rho_bar": 0},
    {"Ns": [4], "n_samples": 100, "rho_bar": 1.5},
])
def test_convergence_rejects_unusable_inputs(tmp_path, capsys, params):
    path = write_config(tmp_path, {"experiment": "convergence", "seed": 5,
                                   "params": params, "output": str(tmp_path / "c")})
    assert cli.main(["convergence", "--config", path]) == 2
    assert not (tmp_path / "c" / "convergence.csv").exists()
    assert_one_line_config_error(capsys)


def no_sampling(*a, **kw):
    raise AssertionError("sampled before checking the config")


@pytest.mark.parametrize("eps", [[0.5, 0.2, 0.1, 0.05], [1.5, 1e-2, 1e-3],
                                 [1e-2, "abc", 1e-4]])
def test_capacity_rejects_unusable_eps_before_sampling(tmp_path, capsys, monkeypatch,
                                                       eps):
    monkeypatch.setattr(cli, "nystrom_decompose", no_sampling)
    path = write_config(tmp_path, {
        "experiment": "capacity", "seed": 13, "kernel": SINE, "window": [-3, 3],
        "params": {"eps": eps, "n_samples": 100, "n_nodes": 64},
        "output": str(tmp_path / "cap")})
    assert cli.main(["capacity", "--config", path]) == 2
    assert not (tmp_path / "cap" / "capacity.csv").exists()
    assert_one_line_config_error(capsys)


@pytest.mark.parametrize("eps", [[0.1, "abc"], [0.1, -0.05]])
def test_capacity_linear_rejects_unusable_eps_before_sampling(tmp_path, capsys,
                                                              monkeypatch, eps):
    monkeypatch.setattr(dl.sampler, "sample_poisson", no_sampling)
    path = write_config(tmp_path, {
        "experiment": "capacity", "seed": 13,
        "params": {"variant": "linear", "eps": eps, "n_samples": 100},
        "output": str(tmp_path / "cap")})
    assert cli.main(["capacity", "--config", path]) == 2
    assert not (tmp_path / "cap" / "capacity.csv").exists()
    assert_one_line_config_error(capsys)


@pytest.mark.parametrize("params", [{"N": 0}, {"N": 2.5}, {"rho_bar": 0}])
def test_sample_log_gas_rejects_unusable_inputs(tmp_path, capsys, params):
    path = write_config(tmp_path, {
        "experiment": "sample", "seed": 5, "output": str(tmp_path / "s"),
        "params": dict(params, sampler="log_gas", n_samples=10)})
    assert cli.main(["sample", "--config", path]) == 2
    assert not (tmp_path / "s" / "samples.ndjson").exists()
    assert_one_line_config_error(capsys)


POISSON_SAMPLE = {"experiment": "sample", "seed": 5,
                  "params": {"sampler": "poisson", "n_samples": 20}}


@pytest.mark.parametrize("workers", ["x", 0, -3, 2.7, True])
def test_workers_must_be_a_positive_integer(tmp_path, capsys, workers):
    path = write_config(tmp_path, dict(POISSON_SAMPLE, workers=workers,
                                       output=str(tmp_path / "s")))
    assert cli.main(["sample", "--config", path]) == 2
    assert not (tmp_path / "s" / "samples.ndjson").exists()
    assert_one_line_config_error(capsys)


@pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.7", "true"])
def test_dyson_lab_threads_must_be_a_positive_integer(tmp_path, capsys, monkeypatch,
                                                      threads):
    monkeypatch.setenv("DYSON_LAB_THREADS", threads)
    path = write_config(tmp_path, dict(POISSON_SAMPLE, output=str(tmp_path / "s")))
    assert cli.main(["sample", "--config", path]) == 2
    assert not (tmp_path / "s" / "samples.ndjson").exists()
    assert_one_line_config_error(capsys)


def test_worker_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    runs = []
    for workers in (1, 5000):
        out = tmp_path / f"w{workers}"
        path = write_config(tmp_path, {
            "experiment": "sample", "seed": 5, "workers": workers, "output": str(out),
            "params": {"sampler": "poisson", "n_samples": 1000}}, name=f"w{workers}.json")
        assert cli.main(["sample", "--config", path]) == 0
        runs.append((out / "samples.ndjson").read_bytes())
    assert InlinePool.sizes == [64]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("experiment, kernel, params", [
    ("sample", SINE, {"n_samples": 201, "n_nodes": 64}),
    ("sample", None, {"sampler": "log_gas", "N": 6, "n_samples": 3001}),
    ("sample", None, {"sampler": "poisson", "n_samples": 501, "intensity": 2.0}),
    ("capacity", None, {"variant": "linear", "eps": [0.3, 0.1, 0.05],
                        "n_samples": 801}),
    ("correlations", SINE, {"n_samples": 41, "n_nodes": 32, "n_bins": 4}),
])
def test_artifacts_identical_for_one_and_two_workers(tmp_path, experiment, kernel,
                                                     params):
    runs = []
    for workers in (1, 2):
        cfg = {"experiment": experiment, "seed": 19, "workers": workers,
               "params": params, "output": str(tmp_path / f"w{workers}")}
        if kernel is not None:
            cfg.update(kernel=kernel, window=[-3, 3])
        path = write_config(tmp_path, cfg, name=f"w{workers}.json")
        assert cli.main([experiment, "--config", path]) == 0
        assert_manifest_lists_every_file(tmp_path / f"w{workers}")
        runs.append(numeric_artifacts(tmp_path / f"w{workers}"))
    assert runs[0] and runs[0] == runs[1]


def test_parallel_correlations_decompose_once_in_the_parent(tmp_path, monkeypatch):
    # forked workers inherit the patch, so each call records its process id
    calls = tmp_path / "pids"
    decompose = cli.nystrom_decompose

    def recorded(*a, **kw):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return decompose(*a, **kw)
    monkeypatch.setattr(cli, "nystrom_decompose", recorded)
    path = write_config(tmp_path, {
        "experiment": "correlations", "seed": 23, "kernel": SINE, "window": [-3, 3],
        "workers": 2, "output": str(tmp_path / "r"),
        "params": {"n_samples": 60, "n_nodes": 64, "n_bins": 6}})
    assert cli.main(["correlations", "--config", path]) == 0
    assert calls.read_text().split() == [str(os.getpid())]


@pytest.mark.parametrize("seed", ["abc", -1, 1.5, True, 2**64, None])
def test_seed_must_be_a_64_bit_unsigned_integer(tmp_path, capsys, seed):
    path = write_config(tmp_path, {"experiment": "validate", "seed": seed,
                                   "kernel": SINE, "window": [-3, 3]})
    assert cli.main(["validate", "--config", path]) == 2
    assert_one_line_config_error(capsys)


def test_seed_override_must_be_a_64_bit_unsigned_integer(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "validate", "seed": 3,
                                   "kernel": SINE, "window": [-3, 3],
                                   "output": str(tmp_path / "v")})
    for bad in ("-1", str(2**64)):
        assert cli.main(["validate", "--config", path, "--seed", bad]) == 2
        assert_one_line_config_error(capsys)
    assert not (tmp_path / "v").exists()
    assert cli.load_config(write_config(tmp_path, {
        "experiment": "validate", "seed": 2**64 - 1}, name="max.json")).seed == 2**64 - 1


def test_distorted_delta_sweep_decomposes_once(tmp_path, monkeypatch):
    holder = {"family": "product", "params": {"alpha": 0.5},
              "domain": {"kind": "full_line"}}
    base = {"experiment": "dynamics", "seed": 17, "kernel": holder,
            "window": [-1, 1],
            "params": {"model": "distorted", "n_nodes": 100, "n_paths": 30,
                       "T": 0.05, "delta_sweep": [1e-3, 1e-2, 3e-2]}}
    calls = []
    decompose = cli.nystrom_decompose
    monkeypatch.setattr(cli, "nystrom_decompose",
                        lambda *a, **kw: calls.append(a) or decompose(*a, **kw))
    builds = {"DppSampler": 0, "PairDriftTable": 0}
    for cls in (dl.DppSampler, dl.PairDriftTable):
        def counted(self, *a, _init=cls.__init__, _name=cls.__name__, **kw):
            builds[_name] += 1
            _init(self, *a, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    path = write_config(tmp_path, dict(base, output=str(tmp_path / "sweep")))
    assert cli.main(["dynamics", "--config", path]) == 0
    assert len(calls) == 1
    assert builds == {"DppSampler": 1, "PairDriftTable": 1}
    sweep = json.loads((tmp_path / "sweep" / "probe.json").read_text())
    sde = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["summary"]["sde"]
    assert len({e["iterations"] for e in sde}) == 3
    # delta k runs on stream k << 32 whatever the sweep, and the sweep's one
    # lockstep pass gives each delta's lone run; each single-delta reference
    # builds its own decomposition, as every delta once did
    single = dict(base, params=dict(base["params"], delta_sweep=[1e-3]),
                  output=str(tmp_path / "one"))
    path = write_config(tmp_path, single, name="one.json")
    assert cli.main(["dynamics", "--config", path]) == 0
    assert json.loads((tmp_path / "one" / "probe.json").read_text()) == sweep[:1]
    assert json.loads((tmp_path / "one" / "manifest.json").read_text())["summary"]["sde"] \
        == sde[:1]
    fresh = decompose(dl.kernel_from_json(holder), (-1, 1), 100)
    for k in (1, 2):
        rng = RngStream(17, k << 32)
        delta = base["params"]["delta_sweep"][k]
        initials = dl.conditioned_pair_initials(dl.DppSampler(fresh), 30, rng)
        [alone] = dl.distorted_pair_collision_probe(dl.PairDriftTable(fresh),
                                                    [(initials, delta, rng)], 0.05)
        assert json.loads(json.dumps(hitting_stats_json(alone))) == sweep[k]
        assert {"delta": delta, **alone.counters} == sde[k]


def test_dynamics_manifest_reports_sde_counters(tmp_path, monkeypatch):
    holder = {"family": "product", "params": {"alpha": 0.5},
              "domain": {"kind": "full_line"}}
    params = {"model": "distorted", "n_nodes": 100, "n_paths": 30, "T": 0.2,
              "delta_sweep": [1e-3, 1e-2], "dt_max": 1e-2, "c_dt": 0.2}
    calls = []
    drift = dl.PairDriftTable.drift
    monkeypatch.setattr(dl.PairDriftTable, "drift",
                        lambda self, X: calls.append(len(X)) or drift(self, X))
    path = write_config(tmp_path, {"experiment": "dynamics", "seed": 19, "kernel": holder,
                                   "window": [-1, 1], "params": params,
                                   "output": str(tmp_path / "d")})
    assert cli.main(["dynamics", "--config", path]) == 0
    summary = json.loads((tmp_path / "d" / "manifest.json").read_text())["summary"]
    monkeypatch.setattr(dl.PairDriftTable, "drift", drift)
    decomp = dl.nystrom_decompose(dl.kernel_from_json(holder), (-1, 1), 100)
    table, sampler = dl.PairDriftTable(decomp), dl.DppSampler(decomp)
    expected = []
    for k, delta in enumerate(params["delta_sweep"]):
        rng = RngStream(19, k << 32)
        initials = dl.conditioned_pair_initials(sampler, 30, rng)
        [run] = dl.integrate_ensemble([(initials, delta, rng.child(1))], table.drift, 0.2,
                                      dt_max=1e-2, c_dt=0.2)
        expected.append({"delta": delta, "iterations": run.iterations,
                         "path_steps": int(run.steps.sum()),
                         "rejections": int(run.rejections.sum()),
                         "failures": int(run.failed.sum())})
    assert summary["sde"] == expected
    assert all(e["rejections"] > 0 for e in expected)
    # one drift call per lockstep iteration of the sweep, one drift row per
    # path step
    assert len(calls) == summary["drift_calls"] == max(e["iterations"] for e in expected)
    assert sum(calls) == sum(e["path_steps"] for e in expected)


def test_density_manifest_reports_ill_blocks(tmp_path):
    # keyed by k, each the count of the np.linalg.det rule on the Sobol points
    path = write_config(tmp_path, {
        "experiment": "density-crosscheck", "seed": 4, "kernel": SINE, "window": [-1, 1],
        "params": {"n_nodes": 16, "k_max": 5, "n_tuples": 2, "orders": [0, 1],
                   "qmc_points": 1 << 12},
        "output": str(tmp_path / "d")})
    assert cli.main(["density-crosscheck", "--config", path]) == 0
    summary = json.loads((tmp_path / "d" / "manifest.json").read_text())["summary"]
    kernel = dl.kernel_from_json(SINE)
    expected = {}
    for k in (3, 4, 5):
        y = sobol_points(k, (-1.0, 1.0), 1 << 12)
        c = kernel.eval(y[:, :, None], y[:, None, :])
        diag_prod = np.prod(np.einsum("mkk->mk", c), axis=1)
        expected[str(k)] = int(np.count_nonzero(np.linalg.det(c) < 1e-12 * diag_prod))
    assert summary["ill_blocks"] == expected
    assert expected["5"] > 0


def test_dynamics_experiment_and_probe_json(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "dynamics", "seed": 11,
        "params": {"model": "dyson", "N": 4, "n_paths": 60, "T": 0.05,
                   "delta_sweep": [1e-3], "example_trajectory": True},
        "output": str(tmp_path / "d")})
    code = cli.main(["dynamics", "--config", path])
    assert code == 0
    probes = json.loads((tmp_path / "d" / "probe.json").read_text())
    assert len(probes) == 1
    assert {"hit_fraction", "ci", "n_failures", "params"} <= set(probes[0])
    traj = (tmp_path / "d" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "time," + ",".join(f"x{i}" for i in range(4)) + ",min_gap"
    assert len(traj) > 10


def test_capacity_linear_on_a_one_dimensional_box(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "capacity", "seed": 1, "output": str(tmp_path / "cap"),
        "params": {"variant": "linear", "eps": [0.1, 0.05], "n_samples": 50,
                   "box": [[0, 2]], "inner_pad": 0.2}})
    assert cli.main(["capacity", "--config", path]) == 0
    rows = (tmp_path / "cap" / "capacity.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.05]


def test_capacity_experiment_and_plot(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "capacity", "seed": 13, "kernel": SINE, "window": [-3, 3],
        "params": {"eps": [1e-2, 1e-3, 1e-4, 1e-5], "n_samples": 1500,
                   "n_nodes": 64, "inner": [-2, 2]},
        "output": str(tmp_path / "cap")})
    code = cli.main(["capacity", "--config", path])
    assert code in (0, 4)  # small run may be noisy; artifacts still written
    csv_path = tmp_path / "cap" / "capacity.csv"
    head = csv_path.read_text().splitlines()[0]
    assert head == "eps,energy,energy_se,l2,l2_se,n_active,C_fit,residual"
    assert cli.main(["plot", str(csv_path), "--out", str(tmp_path / "plots")]) == 0
    svg = (tmp_path / "plots" / "capacity.svg").read_text()
    assert svg.startswith("<svg") and "desc" in svg


def test_plot_rejects_missing_columns(tmp_path):
    bad = tmp_path / "weird.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli.main(["plot", str(bad)]) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["plot", str(empty)]) == 2
    assert cli.main(["plot", str(tmp_path / "missing.csv")]) == 2
    text = tmp_path / "text.csv"
    text.write_text("eps,energy,energy_se\nabc,1,1\n")
    assert cli.main(["plot", str(text)]) == 2
    # 1/|log eps| is infinite at eps = 1; nan and inf cells are not plottable
    eps_one = tmp_path / "eps_one.csv"
    eps_one.write_text("eps,energy,energy_se\n1,1,1\n0.5,2,1\n")
    assert cli.main(["plot", str(eps_one)]) == 2
    non_finite = tmp_path / "non_finite.csv"
    non_finite.write_text("eps,energy,energy_se\n0.1,nan,1\n0.05,2,inf\n")
    assert cli.main(["plot", str(non_finite)]) == 2


def test_plot_writes_nothing_unless_every_file_renders(tmp_path, capsys):
    good = tmp_path / "capacity.csv"
    good.write_text("eps,energy,energy_se\n0.1,1,1\n0.05,2,1\n")
    bad = tmp_path / "eps_one.csv"
    bad.write_text("eps,energy,energy_se\n1,1,1\n0.5,2,1\n")
    out = tmp_path / "plots"
    assert cli.main(["plot", str(good), str(bad), "--out", str(out)]) == 2
    assert_one_line_config_error(capsys)
    assert not out.exists()
    assert list(tmp_path.glob("**/*.svg")) == []


@pytest.mark.parametrize("command, name, content", [
    ("validate", "cfg.json", b"\xff\xfe{}"),
    ("plot", "capacity.csv", b"\xff\xfe"),
    ("plot", "capacity.csv", b"eps,energy,energy_se\n0.1,1\n"),
])
def test_unreadable_inputs_exit_2(tmp_path, capsys, monkeypatch, command, name, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    args = ["--config", name] if command == "validate" else [name]
    assert cli.main([command, *args]) == 2
    assert_one_line_config_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_correlations_oracle_is_bin_average(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "correlations", "seed": 23, "kernel": SINE,
        "window": [-3, 3], "output": str(tmp_path / "r"),
        "params": {"n_samples": 50, "n_nodes": 64, "n_bins": 6}})
    assert cli.main(["correlations", "--config", path]) == 0
    rows = (tmp_path / "r" / "rho2.csv").read_text().splitlines()
    oracle = float(rows[1].split(",")[-1])
    # default pair bins [-0.1, 0.1] x [0.4, 0.6]; the centre value is 0.59472
    assert oracle == pytest.approx(0.58921, abs=1e-5)
    rho1 = [float(r.split(",")[-1]) for r in
            (tmp_path / "r" / "rho1.csv").read_text().splitlines()[1:]]
    assert rho1 == pytest.approx([1.0] * 6, abs=1e-12)


def test_correlations_write_one_rho2_row_per_pair_of_bins(tmp_path):
    bins = [[-0.1, 0.1], [0.4, 0.6], [1.0, 1.3]]
    path = write_config(tmp_path, dict(edited(SMALL_CORRELATIONS, {"pair_bins": bins}),
                                       output=str(tmp_path / "r")))
    assert cli.main(["correlations", "--config", path]) == 0
    rows = [r.split(",") for r in (tmp_path / "r" / "rho2.csv").read_text().splitlines()[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == [(0, 1), (0, 2), (1, 2)]
    kernel = dl.construct_kernel("sine", rho_bar=1.0)
    for i, j, *_, oracle in rows:
        assert float(oracle) == rho_det_box_mean(kernel, [bins[int(i)], bins[int(j)]])


def test_correlations_rerun_byte_identical(tmp_path):
    base = {"experiment": "correlations", "seed": 21, "kernel": SINE,
            "window": [-3, 3],
            "params": {"n_samples": 800, "n_nodes": 64, "n_bins": 8}}
    paths = []
    for i, workers in enumerate((1, 1, 4)):
        cfg = dict(base, output=str(tmp_path / f"run{i}"), workers=workers)
        p = write_config(tmp_path, cfg, name=f"cfg{i}.json")
        assert cli.main(["correlations", "--config", p]) == 0
        paths.append(tmp_path / f"run{i}")
    a, b, c = (numeric_artifacts(p) for p in paths)
    assert a == b  # identical reruns
    assert a == c  # identical across worker-pool sizes


HOLDER = {"family": "product", "params": {"alpha": 0.5}, "domain": {"kind": "full_line"}}
BESSEL = {"family": "bessel", "params": {"order": 0.5}}
SMALL_CORRELATIONS = {"experiment": "correlations", "seed": 1, "kernel": SINE,
                      "window": [-3, 3], "params": {"n_samples": 50, "n_nodes": 64,
                                                    "n_bins": 6}}


def edited(cfg, params=(), drop=(), **top):
    """cfg with top-level entries replaced, params updated and params keys dropped."""
    out = dict(cfg, **top)
    out["params"] = {k: v for k, v in {**cfg.get("params", {}), **dict(params)}.items()
                     if k not in drop}
    return out


def params_of(experiment, **params):
    return {"experiment": experiment, "seed": 1, "params": params}


MALFORMED = [
    ("validate", 5),
    ("validate", {"experiment": "validate", "seed": 1, "kernel": SINE, "window": [-3, 3],
                  "params": [1, 2]}),
    ("correlations", edited(SMALL_CORRELATIONS, window=[1])),
    ("correlations", edited(SMALL_CORRELATIONS, window=[3, -3])),
    ("correlations", edited(SMALL_CORRELATIONS, kernel={"family": "nope"})),
    ("correlations", edited(SMALL_CORRELATIONS,
                            kernel={"family": "sine", "params": {"rho_bar": 2.0}})),
    ("correlations", edited(SMALL_CORRELATIONS, kernel="sine")),
    ("correlations", edited(SMALL_CORRELATIONS, {"n_sample": 50}, drop=["n_samples"])),
    ("correlations", edited(SMALL_CORRELATIONS, {"n_bins": 0})),
    ("correlations", edited(SMALL_CORRELATIONS, {"n_nodes": 0})),
    ("correlations", edited(SMALL_CORRELATIONS, {"pair_bins": [[0.1]]})),
    ("sample", params_of("sample", sampler="log_gas", n_samples=-1)),
    ("sample", params_of("sample", sampler="poisson", n_samples=5, intensity=0)),
    ("sample", params_of("sample", sampler="poisson", n_samples=5, box=[[1, 0]])),
    ("capacity", params_of("capacity", variant="linear", eps=[0.1, 0.05], n_samples=0)),
    ("capacity", params_of("capacity", variant="linear", eps=[0.1, 0.05], n_samples=5,
                           inner_pad=1.0)),
    ("density-crosscheck", dict(params_of("density-crosscheck", k_max=-1), kernel=HOLDER)),
    ("density-crosscheck", dict(params_of("density-crosscheck", orders=[]), kernel=HOLDER)),
    ("density-crosscheck", dict(params_of("density-crosscheck", n_tuples=-1),
                                kernel=HOLDER)),
    ("dynamics", params_of("dynamics", n_paths=0)),
    ("dynamics", params_of("dynamics", T="abc")),
    ("dynamics", params_of("dynamics", delta_sweep=[])),
    ("validate", dict(params_of("validate", n_nodes="x"), kernel=SINE, window=[-3, 3])),
    ("validate", dict(params_of("validate", tol=0), kernel=SINE, window=[-3, 3])),
    # the half-sample error compares balanced Sobol halves: a power of two
    ("density-crosscheck", dict(params_of("density-crosscheck", qmc_points=1000),
                                kernel=HOLDER)),
    # a domain is {"kind": ...} alone, and the family's own
    ("validate", dict(params_of("validate"), window=[-3, 3],
                      kernel=dict(SINE, domain={"kind": "box", "bounds": [[-3, 3]]}))),
    ("validate", dict(params_of("validate"), window=[-3, 3],
                      kernel=dict(SINE, domain={"kind": "full_line", "bounds": [[-3, 3]]}))),
    # a half-line kernel is evaluated only at x >= 0
    ("validate", dict(params_of("validate"), window=[-1, 1], kernel=BESSEL)),
    ("correlations", edited(SMALL_CORRELATIONS, kernel=BESSEL, window=[0, 3])),
    ("dynamics", dict(params_of("dynamics", model="distorted", n_paths=4), kernel=BESSEL,
                      window=[0.5, 2.0])),
    ("validate", dict(params_of("validate"), window=[0, 1],
                      kernel=dict(BESSEL, domain={"kind": "full_line"}))),
    # NaN, which json reads, fails every parameter check
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "product", "params": {"scale": float("nan")}})),
    ("validate", dict(params_of("validate"), window=[0, 1],
                      kernel={"family": "bessel", "params": {"order": float("nan")}})),
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "custom", "params": {
                          "grid": [-1, float("nan"), 1], "values": np.eye(3).tolist()}})),
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "custom", "params": {
                          "grid": [-1, 0, 1], "values": [[1, 0, 0], [0, float("nan"), 0],
                                                         [0, 0, 1]]}})),
    # the Sobol sequence has 2^30 points and 21,201 dimensions
    ("density-crosscheck", dict(params_of("density-crosscheck", qmc_points=1 << 31),
                                kernel=HOLDER)),
    ("density-crosscheck", dict(params_of("density-crosscheck", k_max=21202), kernel=HOLDER)),
    # kernel params follow the number rules: no bool, string or infinity
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "product", "params": {"alpha": True}})),
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "product", "params": {"alpha": "0.5"}})),
    ("validate", dict(params_of("validate"), window=[-1, 1],
                      kernel={"family": "product", "params": {"scale": float("inf")}})),
]


@pytest.mark.parametrize("experiment, cfg", MALFORMED,
                         ids=[f"{e}-{i}" for i, (e, _) in enumerate(MALFORMED)])
def test_malformed_config_exits_2_before_any_output(tmp_path, capsys, monkeypatch,
                                                    experiment, cfg):
    # without an output entry the run would write to ./dyson_lab_<experiment>
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.main([experiment, "--config", path]) == 2
    assert_one_line_config_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("via", ["output", "--out", "plot"])
def test_output_that_names_a_file_exits_2(tmp_path, capsys, via):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if via == "plot":
        csv = tmp_path / "capacity.csv"
        csv.write_text("eps,energy,energy_se\n0.1,1,1\n0.05,2,1\n")
        argv = ["plot", str(csv), "--out", str(taken)]
    elif via == "output":
        argv = ["sample", "--config",
                write_config(tmp_path, dict(POISSON_SAMPLE, output=str(taken)))]
    else:
        argv = ["sample", "--config", write_config(tmp_path, POISSON_SAMPLE),
                "--out", str(taken)]
    assert cli.main(argv) == 2
    assert_one_line_config_error(capsys)
    assert taken.read_text() == "not a directory\n"


def test_crashed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    out = tmp_path / "s"
    path = write_config(tmp_path, dict(POISSON_SAMPLE, output=str(out)))
    assert cli.main(["sample", "--config", path]) == 0
    assert (out / "manifest.json").exists()
    before = (out / "samples.ndjson").read_bytes()

    def lines_then_crash():
        yield "partial\n"
        raise RuntimeError("crashed while writing")

    def crash(p):
        return 0, {}, {"samples.ndjson": lines_then_crash()}
    spec = cli._EXPERIMENTS["sample"]
    monkeypatch.setitem(cli._EXPERIMENTS, "sample", spec._replace(run=crash))
    with pytest.raises(RuntimeError):
        cli.main(["sample", "--config", path])
    assert sorted(p.name for p in out.iterdir()) == ["samples.ndjson"]
    assert (out / "samples.ndjson").read_bytes() == before


def test_failed_run_writes_only_its_manifest(tmp_path, monkeypatch):
    # a numerical failure drops every file its runner would have returned
    out = tmp_path / "s"
    path = write_config(tmp_path, dict(POISSON_SAMPLE, output=str(out)))

    def fail(p):
        raise SamplingError("projected density vanished")
    spec = cli._EXPERIMENTS["sample"]
    monkeypatch.setitem(cli._EXPERIMENTS, "sample", spec._replace(run=fail))
    assert cli.main(["sample", "--config", path]) == 3
    manifest = assert_manifest_lists_every_file(out)
    assert manifest["artifacts"] == []
    assert manifest["exit_code"] == 3
    assert manifest["summary"] == {"error": "projected density vanished"}


def test_distorted_run_on_a_projection_window_stops_before_sampling(tmp_path, monkeypatch):
    # the sine kernel on [-5, 5] has an eigenvalue numerically at 1, where L
    # is undefined: the drift table raises before any two-point draw
    out = tmp_path / "sine"
    path = write_config(tmp_path, {
        "experiment": "dynamics", "seed": 3, "kernel": SINE, "window": [-5, 5],
        "params": {"model": "distorted", "n_nodes": 64, "n_paths": 5, "T": 0.05,
                   "delta_sweep": [1e-3]}, "output": str(out)})

    def no_draws(*a, **kw):
        raise AssertionError("conditioned_pair_initials was reached")
    monkeypatch.setattr(cli, "conditioned_pair_initials", no_draws)
    assert cli.main(["dynamics", "--config", path]) == 3
    manifest = assert_manifest_lists_every_file(out)
    assert manifest["artifacts"] == []
    error = manifest["summary"]["error"]
    assert "numerically a projection direction" in error and "\n" not in error


SMALL_DYSON = {"experiment": "dynamics", "seed": 5,
               "params": {"model": "dyson", "N": 3, "n_paths": 4, "T": 0.01}}


def test_manifest_records_blas_thread_variables(tmp_path, monkeypatch):
    # DPP draws, criterion 6 and criterion 7's fit move with the BLAS
    # thread count, so the manifest says which of its variables were set
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "d"
    path = write_config(tmp_path, dict(SMALL_DYSON, output=str(out)))
    assert cli.main(["dynamics", "--config", path]) == 0
    versions = json.loads((out / "manifest.json").read_text())["versions"]
    assert versions == {"python": versions["python"], "numpy": np.__version__,
                        "scipy": versions["scipy"], "dyson_lab": dl.__version__,
                        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                        "MKL_NUM_THREADS": "2"}


def test_rerun_removes_files_the_earlier_manifest_lists(tmp_path):
    out = tmp_path / "d"
    with_traj = write_config(tmp_path, edited(SMALL_DYSON, {"example_trajectory": True}),
                             name="with.json")
    assert cli.main(["dynamics", "--config", with_traj, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()
    assert cli.main(["dynamics", "--config", write_config(tmp_path, SMALL_DYSON),
                     "--out", str(out)]) == 0
    manifest = assert_manifest_lists_every_file(out)
    assert [entry["name"] for entry in manifest["artifacts"]] == ["probe.json"]


def test_rerun_removes_only_bare_names_an_edited_manifest_lists(tmp_path):
    out = tmp_path / "d"
    (out / "sub").mkdir(parents=True)
    keep = [tmp_path / "outside.txt", out / "sub" / "inner.txt"]
    for path in [*keep, out / "stale.txt"]:
        path.write_text("x\n")
    names = ["../outside.txt", str(keep[0]), "sub/inner.txt", "..", ".", "", 7,
             "stale.txt"]
    (out / "manifest.json").write_text(json.dumps(
        {"artifacts": [{"name": name} for name in names]}))
    assert cli.main(["dynamics", "--config", write_config(tmp_path, SMALL_DYSON),
                     "--out", str(out)]) == 0
    assert all(path.read_text() == "x\n" for path in keep)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "probe.json", "sub"]


@pytest.mark.parametrize("squatted", ["probe.json", "manifest.json"])
def test_directory_in_place_of_an_output_file_exits_2(tmp_path, capsys, squatted):
    # a directory cannot be replaced by a file, whatever the permissions
    out = tmp_path / "o"
    (out / squatted).mkdir(parents=True)
    assert cli.main(["dynamics", "--config", write_config(tmp_path, SMALL_DYSON),
                     "--out", str(out)]) == 2
    assert_one_line_config_error(capsys)
    assert [p.name for p in out.iterdir()] == [squatted]
    assert (out / squatted).is_dir()


SMALL_VALID = [
    ("sample", {"kernel": SINE, "window": [-3, 3],
                "params": {"n_samples": 10, "n_nodes": 16}}),
    ("sample", {"params": {"sampler": "log_gas", "N": 4, "n_samples": 10}}),
    ("sample", {"params": {"sampler": "poisson", "n_samples": 10, "intensity": 2.0}}),
    ("correlations", {"kernel": SINE, "window": [-3, 3],
                      "params": {"n_samples": 20, "n_nodes": 16, "n_bins": 4}}),
    ("convergence", {"params": {"Ns": [4], "n_samples": 50}}),
    ("dynamics", {"params": {"model": "dyson", "N": 3, "n_paths": 4, "T": 0.01,
                             "delta_sweep": [1e-3]}}),
    ("capacity", {"params": {"variant": "linear", "eps": [0.3, 0.1], "n_samples": 20}}),
    ("capacity", {"kernel": SINE, "window": [-3, 3],
                  "params": {"eps": [1e-2, 1e-3, 1e-4], "n_samples": 20, "n_nodes": 16}}),
    ("validate", {"kernel": SINE, "window": [-3, 3], "params": {"n_nodes": 16}}),
    ("density-crosscheck", {"kernel": HOLDER, "window": [-1, 1],
                            "params": {"n_nodes": 16, "k_max": 2, "n_tuples": 2,
                                       "qmc_points": 64, "orders": [0, 1]}}),
]
# wrong types and out-of-range values: no positive number, so that none of them
# makes a valid run expensive
BAD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                       st.integers(max_value=0), st.floats(max_value=0.0),
                       st.sampled_from([float("nan"), float("inf")]),
                       st.lists(st.integers(max_value=0) | st.text(max_size=2), max_size=3),
                       st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def mutated_configs(draw):
    """A small valid config with one entry, param or kernel parameter set to a
    bad value; whether that value must exit 2."""
    experiment, base = draw(st.sampled_from(SMALL_VALID))
    table = cli._EXPERIMENTS[experiment].params
    family = base.get("kernel", {}).get("family")
    kernel_keys = [f"kernel.{k}" for k in dl.kernels._FAMILIES[family].params] if family else []
    keys = sorted({"seed", "workers", "kernel", "window", *table})
    # a base with a kernel mutates one of its parameters half the time
    if kernel_keys and draw(st.booleans()):
        keys = kernel_keys
    key, value = draw(st.sampled_from(keys)), draw(BAD_VALUES)
    cfg = dict(base, experiment=experiment, seed=3, workers=1,
               params=dict(base["params"]))
    if key in kernel_keys:
        params = {**cfg["kernel"].get("params", {}), key.removeprefix("kernel."): value}
        cfg["kernel"] = dict(cfg["kernel"], params=params)
    elif key in cli._TOP:
        cfg[key] = value
    else:
        cfg["params"][key] = value
    # no bad value is a positive number, and every kernel parameter must be one
    return experiment, cfg, key in kernel_keys


def no_pool(*a, **kw):
    raise AssertionError("started a worker pool")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_configs())
def test_mutated_configs_never_end_in_a_traceback(tmp_path, monkeypatch, case):
    monkeypatch.delenv("DYSON_LAB_THREADS", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    experiment, cfg, must_fail = case
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        cfg = dict(cfg, output=str(Path(tmp) / "out"))
        path = write_config(Path(tmp), cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([experiment, "--config", path])
    assert code in ((2,) if must_fail else (0, 2, 3, 4))
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error:")
        assert err.getvalue().count("\n") == 1
