"""One experiment run in a fresh interpreter.

    python child.py CONFIG OUT_DIR REPORT [TRACE]

Imports dysonlab (with numpy and scipy) and loads CONFIG, which is the
set-up a user pays on every CLI run, then runs the experiment as
``dyson-lab <experiment> --config CONFIG --out OUT_DIR`` does.  REPORT
receives the monotonic time at which set-up ended, the experiment's wall
time, this process's peak resident memory and the CLI exit code.  With
TRACE, the run is traced (see tracing.py) and the spans go to that file.
With OUT_DIR ``-`` the process stops after set-up.
"""

import json
import resource
import sys
import time

from dysonlab import cli

cfg_path, out_dir, report_path = sys.argv[1:4]
cfg = cli.load_config(cfg_path)
report = {"setup_end": time.monotonic()}

if out_dir != "-":
    tracer = None
    if len(sys.argv) > 4:
        import tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    t0 = time.perf_counter()
    report["exit_code"] = cli.run(cfg, out_dir)
    report["wall_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(sys.argv[4])

with open(report_path, "w") as fh:
    json.dump(report, fh)
