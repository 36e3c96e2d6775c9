"""Per-layer metrics and the layer-sum table of one traced repetition.

Every figure is clipped to the study window (first ask → last tell
persisted), the interval ``study_s`` measures, except the set-up layers
(``setup.import_s``, ``scenario.build_s``) that precede it.
"""

from __future__ import annotations

import stats
from workloads import Rep

#: layers that partition a lane's time, per lane, in table order
LANE_LAYERS = {
    "study": (
        "sampler", "engine", "racing", "aggregate", "storage",
        "dispatch", "dispatch_wait", "lease",
    ),
    "worker": ("engine", "scenario", "worker_eval", "worker_objective", "worker_http"),
}

#: per-layer metric names, in BENCHMARK.json order
PER_LAYER = (
    "setup.import_s", "scenario.build_s", "scenario.members",
    "sampler.busy_s", "sampler.asks", "sampler.ask_p50_ms", "sampler.ask_p90_ms",
    "engine.busy_s", "engine.calls", "engine.candidates_per_call",
    "engine.member_evals", "engine.member_evals_per_s",
    "racing.self_s", "racing.member_evals", "racing.pruned", "racing.useful_frac",
    "aggregate.busy_s",
    "storage.busy_s", "storage.writes", "storage.reads", "storage.write_p90_ms",
    "dispatch.self_s", "dispatch.wait_s",
    "lease.grants", "lease.reclaimed", "lease.wait_p50_ms",
    "worker.eval_p50_ms", "worker.objective_build_s", "worker.empty_poll_frac",
    "remote.overhead_p50_ms",
    "http.status_busy_s",
    "status.samples", "status.late_max_ms",
    "trace.study_s", "trace.overhead_s", "trace.overhead_frac",
    "layers.sum_error_frac",
) + tuple(
    f"{lane}_share.{layer}"
    for lane, layers in LANE_LAYERS.items()
    for layer in layers + ("unattributed",)
)

#: unit by name suffix, most specific first
UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_frac", "frac"))


def unit_of(name: str) -> str:
    if "_share." in name:
        return "frac"
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _pct(values, q, refused: "list[str]", name: str) -> float:
    """A percentile, or 0.0 (noted in ``refused``) without enough samples."""
    if not values:
        return 0.0
    try:
        return stats.percentile(values, q)[0]
    except stats.TooFewSamples as exc:
        refused.append(f"{name}: {exc}")
        return 0.0


class TracedRep:
    """The spans of a traced rep, merged over its processes."""

    def __init__(self, rep: Rep) -> None:
        self.rep = rep
        self.window = rep.window
        self.spans = []
        for pid, record in enumerate(rep.records):
            for s in record["spans"]:
                # Ids are per process; make them globally unique.
                sid, parent = s[0] * 4 + pid, (s[1] * 4 + pid if s[1] else 0)
                self.spans.append((sid, parent, s[2], s[3], s[4], (pid, s[5]), s[6]))

    def layer(self, name: str) -> list:
        return stats.outermost(self.spans, name)

    def in_window(self, spans) -> list:
        lo, hi = self.window
        return [s for s in spans if lo <= s[3] <= hi]

    def lanes(self) -> "dict[str, list]":
        """The thread that runs the study loop in each process that has one.

        ``study``: the thread of the first sampler span (the CLI's main
        thread, or the service's coordinator thread); ``worker``: the
        remote worker's loop thread.
        """
        out = {}
        for name, layer in (("study", "sampler"), ("worker", "worker_eval")):
            first = min((s for s in self.spans if s[2] == layer), key=lambda s: s[3], default=None)
            if first is not None:
                out[name] = [s for s in self.spans if s[5] == first[5]]
        return out

    def table(self) -> "dict[str, tuple[dict[str, float], float]]":
        return {lane: stats.layer_table(spans, self.window) for lane, spans in self.lanes().items()}


def layer_metrics(rep: Rep, refused: "list[str]") -> "dict[str, float]":
    t = TracedRep(rep)
    window = t.window
    study_s = rep.study_s
    counters: "dict[str, float]" = {}
    for record in rep.records:
        for key, value in record["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    samples: "dict[str, list]" = {}
    for record in rep.records:
        for key, value in record["samples"].items():
            samples.setdefault(key, []).extend(value)
    m: "dict[str, float]" = {}

    primary = rep.records[0]
    m["setup.import_s"] = primary["import_s"]
    builds = [s for s in t.layer("scenario") if s[5][0] == 0]
    m["scenario.build_s"] = sum(s[4] - s[3] for s in builds)
    m["scenario.members"] = counters.get("scenario.members", 0.0) / max(
        counters.get("scenario.builds", 0.0), 1.0
    )

    sampler = t.in_window(t.layer("sampler"))
    m["sampler.busy_s"] = stats.busy(sampler, window)
    m["sampler.asks"] = len(sampler)
    ask_ms = [1e3 * (s[4] - s[3]) for s in sampler]
    m["sampler.ask_p50_ms"] = _pct(ask_ms, 50, refused, "sampler.ask_p50_ms")
    m["sampler.ask_p90_ms"] = _pct(ask_ms, 90, refused, "sampler.ask_p90_ms")

    engine = t.in_window(t.layer("engine"))
    m["engine.busy_s"] = stats.busy(engine, window)
    m["engine.calls"] = len(engine)
    candidates = sum(s[6][0] for s in engine)
    m["engine.candidates_per_call"] = candidates / len(engine) if engine else 0.0
    m["engine.member_evals"] = sum(s[6][1] for s in engine)
    m["engine.member_evals_per_s"] = (
        m["engine.member_evals"] / m["engine.busy_s"] if m["engine.busy_s"] else 0.0
    )

    selfs = stats.self_times(t.spans, window)

    def self_sum(layer: str) -> float:
        return sum(selfs[s[0]] for s in t.spans if s[2] == layer)

    m["racing.self_s"] = self_sum("racing")
    m["racing.member_evals"] = counters.get("racing.member_evals", 0.0)
    m["racing.pruned"] = counters.get("racing.pruned", 0.0)
    m["racing.useful_frac"] = (
        counters.get("racing.useful_member_evals", 0.0) / m["racing.member_evals"]
        if m["racing.member_evals"]
        else 0.0
    )
    m["aggregate.busy_s"] = stats.busy(t.in_window(t.layer("aggregate")), window)

    storage = t.in_window(t.layer("storage"))
    m["storage.busy_s"] = stats.busy(storage, window)
    writes = [1e3 * (s[4] - s[3]) for s in storage if s[6] == "write"]
    m["storage.writes"] = len(writes)
    m["storage.reads"] = sum(1 for s in storage if s[6] == "read")
    m["storage.write_p90_ms"] = _pct(writes, 90, refused, "storage.write_p90_ms")

    m["dispatch.self_s"] = self_sum("dispatch")
    m["dispatch.wait_s"] = self_sum("dispatch_wait")

    lo, hi = window
    submit = {key: ts for ts, key in samples.get("submit", [])}
    grant = {key: ts for ts, key in samples.get("grant", [])}
    complete = {key: ts for ts, key in samples.get("complete", [])}
    m["lease.grants"] = len(samples.get("grant", []))
    m["lease.reclaimed"] = counters.get("lease.reclaimed", 0.0)
    waits = [1e3 * (grant[k] - submit[k]) for k in submit if k in grant]
    m["lease.wait_p50_ms"] = _pct(waits, 50, refused, "lease.wait_p50_ms")

    evals = {s[6]: s[4] - s[3] for s in t.layer("worker_eval")}
    m["worker.eval_p50_ms"] = _pct(
        [1e3 * d for d in evals.values()], 50, refused, "worker.eval_p50_ms"
    )
    m["worker.objective_build_s"] = sum(s[4] - s[3] for s in t.layer("worker_objective"))
    polls = [empty for ts, empty in samples.get("worker_poll", []) if lo <= ts <= hi]
    m["worker.empty_poll_frac"] = sum(polls) / len(polls) if polls else 0.0
    # Cross-process join on the work item: what the coordinator waited
    # for a trial beyond the worker's evaluation of it.
    overhead = [
        1e3 * (complete[k] - submit[k] - evals[k])
        for k in submit
        if k in complete and k in evals
    ]
    m["remote.overhead_p50_ms"] = _pct(overhead, 50, refused, "remote.overhead_p50_ms")
    m["http.status_busy_s"] = stats.busy(t.in_window(t.layer("http_status")), window)

    tables = t.table()
    for lane, names in LANE_LAYERS.items():
        layers, unattributed = tables.get(lane, ({}, 0.0))
        for layer in names:
            m[f"{lane}_share.{layer}"] = layers.get(layer, 0.0) / study_s
        m[f"{lane}_share.unattributed"] = unattributed / study_s
    m["layers.sum_error_frac"] = max(
        abs(sum(lay.values()) + rest - study_s) / study_s for lay, rest in tables.values()
    ) if tables else 0.0
    m["trace.study_s"] = study_s
    return m
