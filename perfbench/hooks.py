"""Benchmark-side instrumentation of ``repro``: markers and layer spans.

Every hook wraps a *public* function or method of the program from the
outside (module attributes and class attributes are replaced); nothing
under ``src/`` is edited.  Two modes:

* untraced (``trace=False``): only the two markers the end-to-end
  metrics need are installed — the first ``Study.ask`` (end of set-up)
  and the end of the last ``record_trial_finish`` (the last tell
  persisted).  Each costs one clock read per call.
* traced (``trace=True``): every layer boundary below records a
  span ``(id, parent, layer, start, end, thread, key)``; the parent is
  the innermost open span on the same thread.  Counters and timestamped
  samples (lease submit/grant/complete times keyed by work item, worker
  polls) are recorded at the same boundaries.  Everything is kept in memory and written out
  once, by :func:`Recorder.dump`, when the process ends.

All times are ``time.monotonic()``: on Linux that is the system-wide
CLOCK_MONOTONIC, so stamps from the server and worker processes of the
``service_remote`` workload share one time axis and can be joined.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

now = time.monotonic


class Recorder:
    """In-memory span, counter, marker and event store of one process."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list = []
        self.counters: "defaultdict[str, float]" = defaultdict(float)
        self.samples: "defaultdict[str, list]" = defaultdict(list)
        self.first_ask: "float | None" = None
        self.last_finish: "float | None" = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, after=None, key=None):
        """``fn`` wrapped in a ``layer`` span.

        ``after(result, args, kwargs, start, end)`` runs once the call
        returns, outside the span, to record counters.  ``key`` tags the
        span: a constant (the storage operation kind) or ``key(args,
        kwargs)`` (the work item a worker span belongs to — the join
        key between processes).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                self.spans.append(
                    (
                        sid,
                        parent,
                        layer,
                        start,
                        end,
                        threading.get_ident(),
                        key(args, kwargs) if callable(key) else key,
                    )
                )
            if after is not None:
                after(result, args, kwargs, start, end)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "first_ask": self.first_ask,
            "last_finish": self.last_finish,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
            "spans": list(self.spans),
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def _patch(owner, name: str, make) -> None:
    original = getattr(owner, name)
    setattr(owner, name, make(original))


def install(rec: Recorder, ask_file: "str | None" = None) -> None:
    """Install the markers, and with ``rec.trace`` every layer span.

    With ``ask_file``, the first ask's time is also written there at
    once, so a set-up probe can read it and kill the process without
    waiting for the study.
    """
    from repro.blackbox import study as study_mod
    from repro.blackbox.storage.sqlite import SQLiteStorage

    def mark_ask(fn):
        @functools.wraps(fn)
        def ask(*args, **kwargs):
            if rec.first_ask is None:
                rec.first_ask = now()
                if ask_file is not None:
                    with open(ask_file + ".tmp", "w") as f:
                        f.write(repr(rec.first_ask))
                    os.replace(ask_file + ".tmp", ask_file)
            return fn(*args, **kwargs)

        return ask

    def mark_finish(fn):
        @functools.wraps(fn)
        def record_trial_finish(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.last_finish = now()
            return result

        return record_trial_finish

    _patch(study_mod.Study, "ask", mark_ask)
    _patch(SQLiteStorage, "record_trial_finish", mark_finish)
    if rec.trace:
        _install_layers(rec)


def _install_layers(rec: Recorder) -> None:
    from repro.blackbox import parallel
    from repro.blackbox.samplers.nsga2 import NSGA2Sampler
    from repro.blackbox.storage.sqlite import SQLiteStorage
    from repro.core import study_runner
    from repro.core.fidelity import FidelityRacingEvaluator
    from repro.core.parameterspace import ParameterSpace
    from repro.core.racing import RacingEvaluator
    from repro.core.study_spec import StudySpec
    from repro.service.lease import LeasedWorkQueue
    from repro.service.remote_worker import RemoteWorkerClient
    from repro.service.service import StudyService

    c = rec.counters

    def count(name, amount=1.0):
        c[name] += amount

    # -- scenario / ensemble build --------------------------------------------
    def after_build(runner, args, kwargs, start, end):
        count("scenario.builds")
        count("scenario.members", len(runner.scenarios))

    _patch(StudySpec, "build_runner", lambda fn: rec.wrap("scenario", fn, after_build))

    # -- sampler ----------------------------------------------------------------
    _patch(ParameterSpace, "suggest", lambda fn: rec.wrap("sampler", fn))
    _patch(NSGA2Sampler, "ask", lambda fn: rec.wrap("sampler", fn))

    # -- dispatch engine (bound by name in core.study_runner) -----------------
    # Key: (candidates, member-evals) of the call, so the work counts can
    # be clipped to the study window with the span.
    _patch(
        study_runner,
        "evaluate_across_scenarios",
        lambda fn: rec.wrap(
            "engine", fn, key=lambda a, k: (len(a[1]), len(a[0]) * len(a[1]))
        ),
    )
    _patch(
        study_runner,
        "evaluate_member_slice",
        lambda fn: rec.wrap(
            "engine", fn, key=lambda a, k: (len(a[2]), len(a[1]) * len(a[2]))
        ),
    )

    # -- racing and robust aggregation ----------------------------------------
    def after_race(outcome, args, kwargs, start, end):
        known = kwargs.get("known") if "known" in kwargs else (
            args[2] if len(args) > 2 else None
        )
        stats = outcome.stats
        count("racing.member_evals", stats.member_evals)
        count("racing.pruned", stats.pruned)
        survivors = len(outcome.evaluated) - len(known or {})
        count("racing.useful_member_evals", survivors * stats.n_members)

    for racer in (RacingEvaluator, FidelityRacingEvaluator):
        _patch(racer, "race", lambda fn: rec.wrap("racing", fn, after_race))
    _patch(study_runner, "robust_evaluations", lambda fn: rec.wrap("aggregate", fn))

    # -- storage backend -----------------------------------------------------------
    # Storage calls may nest (one public method calling another), so
    # operations are counted at analysis time from the outermost storage
    # span, tagged with its kind.
    ops = {
        "record_trial_start": "write",
        "record_trial_finish": "write",
        "update_metadata": "write",
        "create_study": "write",
        "load_study": "read",
        "load_all": "read",
    }
    for name, kind in ops.items():
        _patch(SQLiteStorage, name, lambda fn, kind=kind: rec.wrap("storage", fn, key=kind))

    # -- pipelined dispatcher ----------------------------------------------------
    _patch(parallel.PipelinedDispatcher, "optimize", lambda fn: rec.wrap("dispatch", fn))
    _patch(parallel, "wait", lambda fn: rec.wrap("dispatch_wait", fn))

    # -- service: lease queue, status reads, remote worker --------------------
    # The dispatcher submits trials in trial-number order from one
    # thread, and the queue names the n-th item "trial-n": the submit
    # count is the join key a worker's evaluate_item sees.
    submitted = itertools.count()

    def after_submit(future, args, kwargs, start, end):
        rec.samples["submit"].append((end, f"trial-{next(submitted)}"))

    def after_lease(granted, args, kwargs, start, end):
        for doc in granted:
            rec.samples["grant"].append((end, str(doc["item"])))

    def after_complete(accepted, args, kwargs, start, end):
        rec.samples["complete"].append((end, str(args[2])))

    def after_reclaim(n, args, kwargs, start, end):
        count("lease.reclaimed", n)

    _patch(LeasedWorkQueue, "submit_trial", lambda fn: rec.wrap("lease", fn, after_submit))
    _patch(LeasedWorkQueue, "lease", lambda fn: rec.wrap("lease", fn, after_lease))
    _patch(LeasedWorkQueue, "complete", lambda fn: rec.wrap("lease", fn, after_complete))
    _patch(
        LeasedWorkQueue,
        "reclaim_expired",
        lambda fn: rec.wrap("lease", fn, after_reclaim),
    )
    _patch(LeasedWorkQueue, "stats", lambda fn: rec.wrap("lease", fn))
    _patch(StudyService, "status", lambda fn: rec.wrap("http_status", fn))

    def after_worker_lease(grant, args, kwargs, start, end):
        empty = not (grant.get("study") and grant.get("items"))
        rec.samples["worker_poll"].append((end, empty))

    _patch(
        RemoteWorkerClient,
        "_lease",
        lambda fn: rec.wrap("worker_http", fn, after_worker_lease),
    )
    _patch(RemoteWorkerClient, "_result", lambda fn: rec.wrap("worker_http", fn))
    _patch(RemoteWorkerClient, "objective_for", lambda fn: rec.wrap("worker_objective", fn))
    _patch(
        RemoteWorkerClient,
        "evaluate_item",
        lambda fn: rec.wrap("worker_eval", fn, key=lambda a, k: str(a[2]["item"])),
    )
