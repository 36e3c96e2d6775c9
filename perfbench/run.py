"""The repository benchmark: time to a Pareto front, end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs repetitions of one workload (see ``workloads.py`` and README.md in
this directory) for about ``--seconds`` seconds, checks every
repetition's output, and prints a report followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions of the same study seeds and reports the
per-layer metrics, the layer-sum table and the tracing overhead.

``--record NAME`` instead runs each study seed a run of ``NAME`` can
take once and records its front hypervolume in ``expected.json``.

A run is made of whole cycles; a cycle runs each of the workload's
study seeds once or twice, in an order ``--seed`` gives.  ``expected.json``
records each one's front hypervolume, so every repetition's front is
checked exactly.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    BenchmarkError,
    Rep,
    clean,
    front_hv,
    probe_setup,
    program_hv,
    run_rep,
)

EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench_work"
#: a repetition still running this many seconds into the run fails it
HARD_LIMIT_S = 170.0
#: the largest mismatch the layer-sum check of a traced run allows
MAX_LAYER_SUM_ERROR = 0.05
now = time.monotonic


# -- host context (diagnostic only) --------------------------------------------


def host_context() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def reference_timing() -> dict:
    """Fixed work, timed: the median of five runs each of a pure-Python
    loop and of one numpy matmul."""
    import numpy as np

    def loop():
        total = 0
        for i in range(200_000):
            total += i * i

    a = np.random.default_rng(0).random((300, 300))
    out = {}
    for name, work in (("loop_ms", loop), ("matmul_ms", lambda: a @ a)):
        times = []
        for _ in range(5):
            start = now()
            work()
            times.append(1e3 * (now() - start))
        out[name] = round(stats.median(times), 3)
    return out


# -- runs ------------------------------------------------------------------------


def study_seeds(workload: str, seed: int, expected: dict) -> "list[int]":
    """The run's study seeds, in the order ``seed`` gives them."""
    pool = list(range(WORKLOADS[workload].studies))
    recorded = expected["front_hv"].get(workload, {})
    if any(str(s) not in recorded for s in pool):
        raise BenchmarkError(f"expected.json lacks study seeds {pool} of {workload}")
    random.Random(f"{workload}/{seed}").shuffle(pool)
    return pool


def check_rep(rep: Rep, expected: dict) -> "list[str]":
    """Output checks of one repetition; returns the failures."""
    w = WORKLOADS[rep.workload]
    problems = []
    n = sum(rep.states.values())
    if n != w.n_trials:
        problems.append(f"{n} trials, budget {w.n_trials}")
    if rep.states.get("failed"):
        problems.append(f"{rep.states['failed']} FAILED trials")
    if not rep.points:
        problems.append("empty front")
    reference = expected["reference"][rep.workload]
    hv = front_hv(rep, reference)
    want = expected["front_hv"][rep.workload].get(str(rep.study_seed))
    if hv != want:
        problems.append(f"front_hv {hv!r} != recorded {want!r}")
    if abs(hv - program_hv(rep, reference)) > 1e-12 * max(abs(hv), 1.0):
        problems.append("front_hv disagrees with repro's hypervolume_2d")
    if w.kind == "service":
        doc = rep.status_doc or {}
        leases = doc.get("leases") or {}
        if leases.get("completed") != n:
            problems.append(f"leases.completed {leases.get('completed')} != {n} trials")
        if leases.get("reclaimed", 0) != 0:
            problems.append(f"{leases.get('reclaimed')} leases reclaimed")
        if (doc.get("service") or {}).get("state") != "done":
            problems.append(f"service state {(doc.get('service') or {}).get('state')}")
    return problems


def run_reps(workload: str, seed: int, seconds: float, trace: bool, expected: dict):
    """The run's repetitions and set-up samples.

    A run is made of whole *cycles*.  A cycle runs every study seed of the
    workload ``w.repeats`` times, in the order ``seed`` gives, so every
    run measures the same studies the same number of times.  ``seconds``
    sets how many cycles: as many as fit at the workload's nominal cycle
    length, at least one.  Untraced, every repetition is one set-up
    sample and is followed by the workload's set-up probes, so set-up is
    sampled all through the run.  With ``trace``, each repetition runs as
    an untraced/traced pair instead, and there are no probes.
    """
    w = WORKLOADS[workload]
    seeds = study_seeds(workload, seed, expected)
    order = [s for i in range(w.repeats) for s in (seeds if i % 2 == 0 else seeds[::-1])]
    cycles = max(1, round(seconds / w.cycle_s))
    start = now()
    workdir = WORK / f"{workload}-{os.getpid()}"
    reps: "list[Rep]" = []
    setups: "list[float]" = []
    try:
        for study_seed in order * cycles:
            for traced in (False, True) if trace else (False,):
                remaining = HARD_LIMIT_S - (now() - start)
                rep = run_rep(w, study_seed, traced, workdir, remaining)
                reps.append(rep)
                if not traced:
                    setups.append(rep.setup_s)
            for _ in range(0 if trace else w.probes):
                remaining = HARD_LIMIT_S - (now() - start)
                setups.append(probe_setup(w, study_seed, workdir, remaining))
    finally:
        clean(workdir)
    return setups, reps


def end_to_end(setups: "list[float]", reps: "list[Rep]", expected: dict) -> "tuple[dict, dict]":
    reference = expected["reference"][reps[0].workload]
    polls = [p for r in reps for p in r.status_samples()]
    latency, lateness = stats.open_loop([p[:3] for p in polls if p[3]])
    p50, n = stats.percentile(latency, 50)
    p90, _ = stats.percentile(latency, 90)

    def per_seed(value) -> float:
        return stats.seed_balanced((r.study_seed, value(r)) for r in reps)

    metrics = {
        "setup_s": (stats.lower_quartile(setups), "s"),
        "study_s": (per_seed(lambda r: r.study_s), "s"),
        "status_p90_ms": (p90, "ms"),
        "peak_rss_mb": (per_seed(lambda r: r.peak_rss_mb), "MB"),
        "front_hv": (per_seed(lambda r: front_hv(r, reference)), "t2/day"),
    }
    diag = {
        "setup_samples": len(setups),
        "status_samples": n,
        "status_p50_ms": p50,
        "status_late_p50_ms": stats.median(lateness) if lateness else 0.0,
        "status_late_max_ms": max(lateness, default=0.0),
    }
    return metrics, diag


def per_layer(reps: "list[Rep]") -> "tuple[dict, list[str]]":
    from analysis import PER_LAYER, layer_metrics, unit_of

    refused: "list[str]" = []
    traced = [r for r in reps if r.traced]
    per_rep = [layer_metrics(r, refused) for r in traced]
    out = {name: stats.median(m[name] for m in per_rep) for name in per_rep[0]}
    # Tracing overhead: each traced rep against the untraced rep of the
    # same study seed that ran just before it.
    plain = [r for r in reps if not r.traced]
    overhead = [t.study_s - p.study_s for p, t in zip(plain, traced)]
    out["trace.overhead_s"] = stats.median(overhead)
    out["trace.overhead_frac"] = out["trace.overhead_s"] / stats.median(
        p.study_s for p in plain
    )
    polls = [p for r in traced for p in r.status_samples()]
    latency, lateness = stats.open_loop([p[:3] for p in polls if p[3]])
    out["status.samples"] = len(latency)
    out["status.late_max_ms"] = max(lateness, default=0.0)
    return {name: (out[name], unit_of(name)) for name in PER_LAYER}, refused


# -- report --------------------------------------------------------------------

#: the job each workload was chosen for, checked on its traced run:
#: workload -> (check of the per-layer metrics and the trial budget, text)
ROLE_CHECKS = {
    "canonical": (
        lambda m, n: 0.35 <= m["study_share.sampler"] <= 0.60
        and 0.35 <= m["study_share.engine"] <= 0.60,
        "sampler and engine each 35-60% of study_s",
    ),
    "raced_ensemble": (
        lambda m, n: m["study_share.engine"] + m["study_share.racing"] >= 0.75
        and m["study_share.sampler"] <= 0.10,
        "engine + racing >= 75%, sampler <= 10%",
    ),
    "service_remote": (
        lambda m, n: m["engine.candidates_per_call"] == 1 and m["lease.grants"] >= n,
        "one candidate per engine call, lease grants >= trials",
    ),
}


def print_layer_table(reps: "list[Rep]") -> None:
    from analysis import LANE_LAYERS, TracedRep

    for rep in (r for r in reps if r.traced):
        study_s = rep.study_s
        print(f"layer self time, seed {rep.study_seed}, study_s {study_s:.3f}s:")
        for lane, (layers, rest) in TracedRep(rep).table().items():
            cells = [
                f"{layer} {100 * layers.get(layer, 0.0) / study_s:.1f}%"
                for layer in LANE_LAYERS[lane]
            ]
            total = sum(layers.values()) + rest
            print(
                f"  {lane:>6}: " + ", ".join(cells)
                + f", unattributed {100 * rest / study_s:.1f}%"
                + f" | sum {total:.3f}s = {100 * total / study_s:.2f}% of study_s"
            )


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", choices=sorted(WORKLOADS), default=None)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.cli  # noqa: F401 - the checks and status reads use it

    # Objects that live for the whole run (modules, records) leave the
    # garbage collector's view, so its pauses in the status reads this
    # process times do not grow with the run.
    gc.freeze()
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {
        "reference": {}, "front_hv": {}
    }
    if args.record:
        return record(args.record, expected)
    if not args.workload:
        p.error("--workload is required")

    host = host_context()
    ref_before = reference_timing()
    setups, reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    ref_after = reference_timing()

    attempted = failed = 0
    correct = True
    for rep in reps:
        problems = check_rep(rep, expected)
        polls = rep.status_samples()
        reclaimed = ((rep.status_doc or {}).get("leases") or {}).get("reclaimed", 0)
        attempted += WORKLOADS[rep.workload].n_trials + len(polls) + 1
        failed += (
            rep.states.get("failed", 0)
            + sum(1 for p in polls if not p[3])
            + int(reclaimed or 0)
            + (1 if problems else 0)
        )
        correct = correct and not problems
        print(
            f"rep seed={rep.study_seed} traced={int(rep.traced)} "
            f"setup_s={rep.setup_s:.3f} study_s={rep.study_s:.3f} "
            f"rss_mb={rep.peak_rss_mb:.1f} polls={len(polls)} "
            f"check={'ok' if not problems else '; '.join(problems)}"
        )

    if args.trace:
        metrics, refused = per_layer(reps)
        print_layer_table(reps)
        for note in refused:
            print(f"percentile refused: {note}")
        check, text = ROLE_CHECKS[args.workload]
        values = {k: v for k, (v, _) in metrics.items()}
        role_ok = check(values, WORKLOADS[args.workload].n_trials)
        sum_ok = values["layers.sum_error_frac"] <= MAX_LAYER_SUM_ERROR
        print(f"role check ({'pass' if role_ok else 'FAIL'}): {text}")
        print(
            f"layer-sum check ({'pass' if sum_ok else 'FAIL'}): layers + unattributed "
            f"= study_s within {100 * MAX_LAYER_SUM_ERROR:.0f}% on every lane"
        )
        attempted += 2
        failed += (not role_ok) + (not sum_ok)
        correct = correct and role_ok and sum_ok
    else:
        metrics, diag = end_to_end(setups, reps, expected)
        print("status " + json.dumps(diag))
    print("host " + json.dumps(dict(host, ref_before=ref_before, ref_after=ref_after)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record(workload: str, expected: dict) -> int:
    """Run each of the workload's study seeds once; record its
    hypervolume in expected.json."""
    w = WORKLOADS[workload]
    reference = expected["reference"].get(workload)
    if reference is None:
        print(f"expected.json has no reference point for {workload}", file=sys.stderr)
        return 2
    table = expected["front_hv"][workload] = {}
    workdir = WORK / f"record-{os.getpid()}"
    for seed in range(w.studies):
        rep = run_rep(w, seed, False, workdir, 600.0)
        ops = [p[0] for p in rep.points]
        embs = [p[1] for p in rep.points]
        table[str(seed)] = front_hv(rep, reference)
        print(
            f"{workload} seed {seed}: hv {table[str(seed)]!r}, states {rep.states}, "
            f"max operational {max(ops):.4g}, max embodied {max(embs):.6g}"
        )
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
