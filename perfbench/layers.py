"""Per-layer metrics of one traced experiment run, from its span file.

A layer's time is the summed duration of its outermost spans (a span
nested in another of the same name is not counted twice); self time is a
span's duration minus that of its direct children.  Every metric is
reported for every workload: a layer a workload never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict

LOGGAS = ("sampler.sample_log_gas_batch", "sampler.sample_log_gas")
DPP_DRAW = "sampler.DppSampler.sample"
INITIALS = "dynamics.conditioned_pair_initials"
DRIFT_TABLE = "dynamics.PairDriftTable.__init__"
PROBE = "dynamics.distorted_pair_collision_probe"


class Trace:
    def __init__(self, spans: list):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, (name, _, _, parent, _) in enumerate(spans):
            self.children[parent].append(i)
            self.by_name[name].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def ancestors(self, i: int):
        p = self.spans[i][3]
        while p >= 0:
            yield p
            p = self.spans[p][3]

    def within(self, i: int, names) -> bool:
        return any(self.spans[a][0] in names for a in self.ancestors(i))

    def outer(self, *names: str) -> list[int]:
        """Spans of these names that no span of these names encloses."""
        return [i for n in names for i in self.by_name[n] if not self.within(i, names)]

    def time(self, idx) -> float:
        return sum(self.dur(i) for i in idx)

    def size(self, idx) -> int:
        return sum(self.spans[i][4] for i in idx)

    def self_time(self, i: int) -> float:
        return self.dur(i) - self.time(self.children[i])


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list) -> dict:
    t = Trace(spans)
    m = {}

    streams = t.outer("rng.RngStream.generator")
    m["rng.streams"] = len(streams)
    m["rng.us_per_stream"] = _per(t.time(streams), len(streams), 1e6)

    loggas = t.outer(*LOGGAS)
    draws = t.size(loggas)
    stream = t.time(i for i in streams if t.within(i, LOGGAS))
    eigen = t.time(i for i in t.outer("numpy.linalg.eigvalsh") if t.within(i, LOGGAS))
    m["sampler.loggas_draws"] = draws
    m["sampler.loggas_us_per_draw"] = _per(t.time(loggas), draws, 1e6)
    m["sampler.loggas_stream_us_per_draw"] = _per(stream, draws, 1e6)
    m["sampler.loggas_build_us_per_draw"] = _per(
        sum(t.self_time(i) for i in loggas), draws, 1e6)
    m["sampler.loggas_eigensolve_us_per_draw"] = _per(eigen, draws, 1e6)

    builds = t.outer("sampler.DppSampler.__init__")
    dpp = t.outer(DPP_DRAW)
    points = t.size(dpp)
    m["sampler.dpp_table_builds"] = len(builds)
    m["sampler.dpp_table_build_s"] = t.time(builds)
    m["sampler.dpp_draws"] = len(dpp)
    m["sampler.dpp_points"] = points
    m["sampler.dpp_us_per_draw"] = _per(t.time(dpp), len(dpp), 1e6)
    m["sampler.dpp_us_per_point"] = _per(t.time(dpp), points, 1e6)

    decomps = t.outer("spectral.nystrom_decompose")
    ext = t.outer("spectral.eigenfunction_values")
    m["spectral.decompositions"] = len(decomps)
    m["spectral.decompose_s"] = t.time(decomps)
    m["spectral.eigenfunction_values_calls"] = len(ext)
    m["spectral.eigenfunction_values_s"] = t.time(ext)

    evals = t.outer("kernels.Kernel.eval")
    values = t.size(evals)
    m["kernels.eval_calls"] = len(evals)
    m["kernels.values"] = values
    m["kernels.eval_s"] = t.time(evals)
    m["kernels.ns_per_value"] = _per(t.time(evals), values, 1e9)

    terms = t.outer("statistics.SeriesEvaluator.term")
    m["statistics.series_terms"] = len(terms)
    for k in range(1, 7):
        m[f"statistics.series_s.k{k}"] = t.time(i for i in terms if spans[i][4] == k)
    fred = t.outer("statistics.sigma_fredholm")
    m["statistics.sigma_fredholm_calls"] = len(fred)
    m["statistics.sigma_fredholm_s"] = t.time(fred)
    m["statistics.estimate_correlation_s"] = t.time(t.outer("statistics.estimate_correlation"))

    tables = t.outer(DRIFT_TABLE)
    initials = t.outer(INITIALS)
    attempted = [i for i in dpp if t.within(i, (INITIALS,))]
    probes = t.outer(PROBE)
    # the probe's own time, less the table build and the initial draws it waits on
    sde = t.time(probes) - t.time(i for i in tables + initials if t.within(i, (PROBE,)))
    drifts = t.outer("dynamics.PairDriftTable.drift")
    steps = t.size(drifts)
    m["dynamics.drift_table_builds"] = len(tables)
    m["dynamics.drift_table_build_s"] = t.time(tables)
    m["dynamics.conditioned_initials_s"] = t.time(initials)
    m["dynamics.conditioned_accept_ratio"] = _per(t.size(initials), len(attempted))
    m["dynamics.sde_s"] = sde
    m["dynamics.drift_calls"] = len(drifts)
    m["dynamics.path_steps"] = steps
    m["dynamics.path_steps_per_s"] = _per(steps, sde)

    # wall time of the run that no span of another module covers
    runs = t.outer("cli.run")
    covered = [i for i in range(len(spans)) if not spans[i][0].startswith("cli.")
               and all(spans[a][0].startswith("cli.") for a in t.ancestors(i))]
    m["cli.self_s"] = t.time(runs) - t.time(covered)
    return m
