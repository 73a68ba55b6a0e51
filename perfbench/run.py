"""Benchmark of the dyson-lab CLI: one pinned workload, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one round: a fresh interpreter (child.py) imports
dysonlab, loads the workload's config and runs the experiment with
workers = 1 and one BLAS thread.  Rounds repeat until S seconds
have passed (at least one).  Every round's artifacts are checked against
references computed here (reference.py), and must be byte-identical to the
first round's, since config and seed are the same.

With --trace 0 the last stdout line reports, as medians over rounds, the
experiment's wall time, the set-up time of a fresh interpreter (at least
three samples, topped up with set-up-only launches) and peak resident
memory.  With --trace 1 rounds alternate untraced and traced; the traced
ones give the per-layer metrics (layers.py) and their span files, and the
difference of the medians gives the tracing overhead.  Metric names and
units come from BENCHMARK.json.  Work files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_SETUP_SAMPLES = 3
ROUND_TIMEOUT_S = 170
# One BLAS thread: a second thread waits on a second core that the host
# deschedules while it idles, which made the first round after a pause up
# to 1.8x slower.
BLAS_THREADS = 1


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DYSON_LAB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(cfg_path: Path, out: str, report: Path, log: Path,
           trace: Path | None = None) -> dict | None:
    """Run child.py once; its report plus the set-up time, or None if it failed."""
    argv = [sys.executable, str(CHILD), str(cfg_path), out, str(report)]
    if trace is not None:
        argv.append(str(trace))
    start = time.monotonic()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, env=child_env(), stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not report.is_file():
        return None
    result = json.loads(report.read_text())
    result["setup_s"] = result["setup_end"] - start
    return result


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.name != "manifest.json":
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "dysonlab" / "cli.py").is_file():
        fail(f"no dysonlab sources under {ROOT / 'src'}")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not 0 <= args.seed < 1 << 64:
        fail("seed must fit in 64 unsigned bits")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload.config(args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    refs = workload.references(cfg)

    untraced, traced, setups, problems = [], [], [], []
    attempted = failed = 0
    digest = None
    start = time.monotonic()
    # traced runs alternate untraced/traced rounds and end on a whole pair
    while (attempted == 0 or time.monotonic() - start < args.seconds
           or (args.trace and attempted % 2)):
        rnd = work / f"round{attempted}"
        trace = rnd / "trace.json" if args.trace and attempted % 2 else None
        rnd.mkdir()
        out = rnd / "out"
        res = launch(cfg_path, str(out), rnd / "report.json", rnd / "child.log", trace)
        attempted += 1
        if res is None or res["exit_code"] != 0:
            failed += 1
            print(f"perfbench: round {attempted - 1} failed, see {rnd}", file=sys.stderr)
            continue
        setups.append(res["setup_s"])
        try:
            found = workload.check(cfg, refs, out)
        except (OSError, LookupError, ValueError) as exc:
            found = [f"artifacts unreadable: {exc!r}"]
        d = artifact_digest(out)
        if digest is not None and d != digest:
            found.append("artifacts differ from the first round's")
        digest = digest or d
        problems += [f"round {attempted - 1}: {p}" for p in found]
        if trace is None:
            untraced.append(res)
        else:
            res["layers"] = layer_metrics(json.loads(trace.read_text())["spans"])
            traced.append(res)

    if not untraced or (args.trace and not traced):
        fail(f"no round completed; logs are under {work}")
    if args.trace:
        # median_low keeps counts whole; they repeat exactly between rounds
        values = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in untraced))
    else:
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = work / f"setup{len(setups)}"
            probe.mkdir()
            res = launch(cfg_path, "-", probe / "report.json", probe / "child.log")
            if res is None:
                fail(f"set-up probe failed, see {probe}")
            setups.append(res["setup_s"])
        values = {"wall_s": statistics.median(r["wall_s"] for r in untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        fail(f"metrics {sorted(missing)} were not measured")

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
