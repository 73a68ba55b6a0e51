import json
from pathlib import Path

import numpy as np
import pytest

import dysonlab as dl
from dysonlab import RngStream, cli
from dysonlab.dynamics import hitting_stats_json
from dysonlab.errors import ConfigError


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


def test_distorted_delta_sweep_decomposes_once(tmp_path, monkeypatch):
    holder = {"family": "product", "params": {"alpha": 0.5},
              "domain": {"kind": "full_line"}}
    base = {"experiment": "dynamics", "seed": 17, "kernel": holder,
            "window": [-1, 1],
            "params": {"model": "distorted", "n_nodes": 100, "n_paths": 30,
                       "T": 0.05, "delta_sweep": [1e-3, 1e-2]}}
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
    # delta k runs on stream k << 32 whatever the sweep; each single-delta
    # reference builds its own decomposition, as every delta once did
    single = dict(base, params=dict(base["params"], delta_sweep=[1e-3]),
                  output=str(tmp_path / "one"))
    path = write_config(tmp_path, single, name="one.json")
    assert cli.main(["dynamics", "--config", path]) == 0
    assert json.loads((tmp_path / "one" / "probe.json").read_text()) == sweep[:1]
    fresh = decompose(dl.kernel_from_json(holder), (-1, 1), 100)
    rng = RngStream(17, 1 << 32)
    initials = dl.conditioned_pair_initials(dl.DppSampler(fresh), 30, rng)
    second = dl.distorted_pair_collision_probe(dl.PairDriftTable(fresh), initials,
                                               0.05, 1e-2, rng)
    assert json.loads(json.dumps(hitting_stats_json(second))) == sweep[1]


def test_dynamics_experiment_and_probe_json(tmp_path):
    path = write_config(tmp_path, {
        "experiment": "dynamics", "seed": 11,
        "params": {"model": "dyson", "N": 4, "n_paths": 60, "T": 0.05,
                   "delta": 1e-3, "example_trajectory": True},
        "output": str(tmp_path / "d")})
    code = cli.main(["dynamics", "--config", path])
    assert code == 0
    probes = json.loads((tmp_path / "d" / "probe.json").read_text())
    assert len(probes) == 1
    assert {"hit_fraction", "ci", "n_failures", "params"} <= set(probes[0])
    traj = (tmp_path / "d" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "time," + ",".join(f"x{i}" for i in range(4)) + ",min_gap"
    assert len(traj) > 10


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
