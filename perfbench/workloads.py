"""The three workloads and how one repetition of each is run.

A *repetition* (rep) is one complete study at one study seed, in fresh
program processes started from ``child.py``.  While the study runs, an
operator's status reads are replayed from one client as an open loop at
:data:`POLL_HZ` polls per second: ``GET /studies/{name}`` on
``service_remote``, and on the CLI workloads the status document
``repro study status --json`` prints, loaded through one storage handle
held across the polls.  Then the store is reopened and the output
checked.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

POLL_HZ = 10.0
now = time.monotonic


@dataclass(frozen=True)
class Workload:
    name: str
    #: "cli" (one ``repro study run`` process) or "service" (``repro
    #: serve`` plus one ``repro worker``)
    kind: str
    n_trials: int
    #: every run measures study seeds ``0 .. studies - 1``, whatever its
    #: ``--seed``, so that every run measures the same studies
    studies: int
    #: runs of each study seed in one cycle of a run; the cycle runs the
    #: seeds forwards, then backwards, and so on, so each seed's
    #: repetitions spread over the cycle
    repeats: int
    #: set-up probes after each untraced repetition
    probes: int
    #: the nominal length of one cycle in seconds: a run makes
    #: ``round(--seconds / cycle_s)`` cycles, at least one, so the work a
    #: run measures never depends on the host's speed
    cycle_s: float
    #: ``repro study run`` arguments (cli) or the POST /studies body
    #: (service), both without the seed
    args: Any
    #: the study name the program gives it by default
    study: str = "houston-blackbox"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canonical",
            kind="cli",
            n_trials=350,
            studies=3,
            repeats=2,
            probes=0,
            cycle_s=30.0,
            args=["study", "run", "--site", "houston", "--trials", "350", "--population", "50"],
        ),
        Workload(
            name="raced_ensemble",
            kind="cli",
            n_trials=200,
            studies=2,
            repeats=2,
            probes=0,
            cycle_s=35.0,
            args=[
                "study", "run", "--site", "houston",
                "--ensemble", "years=2020-2029,severity=1.0:1.5",
                "--racing", "rungs=2,8,full",
                "--trials", "200", "--population", "50",
            ],
            study="houston-ensemble-blackbox",
        ),
        Workload(
            name="service_remote",
            kind="service",
            n_trials=350,
            studies=2,
            repeats=1,
            probes=1,
            cycle_s=35.0,
            args={
                "sites": ["houston"],
                "n_hours": 720,
                "n_trials": 350,
                "population": 50,
                "remote_slots": 2,
            },
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The run cannot produce a measurement (as opposed to a wrong one)."""


# -- the open-loop status poller ---------------------------------------------


class Poller(threading.Thread):
    """Calls ``read()`` at ``POLL_HZ`` on a fixed schedule.

    ``read`` returns ``(ok, doc)``: ``ok`` is True for a served status,
    False for a failed one.  A poll that starts late (the previous one
    overran) is still timed from when it was due.
    """

    def __init__(self, read: "Callable[[], tuple[bool, Any]]") -> None:
        super().__init__(daemon=True)
        self.read = read
        self.samples: "list[tuple[float, float, float, bool]]" = []
        self.last_doc: Any = None
        self._stop_event = threading.Event()

    def run(self) -> None:
        start = now()
        i = 0
        while not self._stop_event.is_set():
            due = start + i / POLL_HZ
            delay = due - now()
            if delay > 0 and self._stop_event.wait(delay):
                break
            sent = now()
            try:
                ok, doc = self.read()
            except Exception:
                ok, doc = False, None
            self.samples.append((due, sent, now(), ok))
            if doc is not None:
                self.last_doc = doc
            i += 1

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=30)


class StoreStatus:
    """The status document of one study, read from its store through one
    storage handle."""

    def __init__(self, path: Path, name: str) -> None:
        from repro.blackbox.storage import open_study_storage

        self._storage = open_study_storage(store_url(path))
        self.name = name

    def read(self) -> "tuple[bool, Any]":
        from repro.service import study_status_document

        stored = self._storage.load_study(self.name)
        if stored is None:
            return False, None
        return True, study_status_document(stored)

    def close(self) -> None:
        self._storage.close()


class HttpStatus:
    """``GET /studies/{name}`` through one HTTP client."""

    def __init__(self, host: str, port: int, name: str) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=30)
        self.name = name

    def read(self) -> "tuple[bool, Any]":
        self._conn.request("GET", f"/studies/{self.name}")
        response = self._conn.getresponse()
        body = response.read()
        if not 200 <= response.status < 300:
            return False, None
        return True, json.loads(body)

    def close(self) -> None:
        self._conn.close()


# -- one repetition --------------------------------------------------------------


@dataclass
class Rep:
    workload: str
    study_name: str
    study_seed: int
    traced: bool
    spawn: float
    #: per-process records written by child.py (primary process first)
    records: "list[dict]"
    #: status reads as (due, sent, done, ok)
    polls: "list[tuple[float, float, float, bool]]"
    status_doc: Any
    #: trial states and the COMPLETE trials' objective vectors, from the store
    states: "dict[str, int]" = field(default_factory=dict)
    points: "list[tuple[float, float]]" = field(default_factory=list)

    @property
    def window(self) -> "tuple[float, float]":
        primary = self.records[0]
        return primary["first_ask"], primary["last_finish"]

    @property
    def setup_s(self) -> float:
        return self.window[0] - self.spawn

    @property
    def study_s(self) -> float:
        lo, hi = self.window
        return hi - lo

    @property
    def peak_rss_mb(self) -> float:
        return sum(r["maxrss_kb"] for r in self.records) / 1024.0

    def status_samples(self) -> "list[tuple[float, float, float, bool]]":
        """The status reads that count: the polls that fell due while
        the study ran (first ask → last tell persisted)."""
        lo, hi = self.window
        return [p for p in self.polls if lo <= p[0] <= hi]


def _child_cmd(
    out: Path, traced: bool, cli_args: "list[str]", ask_file: "Path | None" = None
) -> "list[str]":
    cmd = [sys.executable, "-u", str(CHILD), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if ask_file is not None:
        cmd += ["--ask-file", str(ask_file)]
    return cmd + ["--"] + [str(a) for a in cli_args]


def _stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGINT (an operator's Ctrl-C), then SIGKILL if it will not end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _load_record(path: Path, log: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        raise BenchmarkError(f"program process left no record {path.name}:\n{tail}")


def store_url(path: Path) -> str:
    return f"sqlite:///{path}"


def _fresh(workdir: Path) -> Path:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return workdir


def _store_path(workload: Workload, workdir: Path) -> Path:
    return workdir / "study.db"


def run_rep(
    workload: Workload, study_seed: int, traced: bool, workdir: Path, timeout: float
) -> Rep:
    """Run one study end to end and read back its trials."""
    path = _store_path(workload, _fresh(workdir))
    try:
        if workload.kind == "cli":
            rep = _run_cli(workload, study_seed, traced, workdir, path, timeout)
        else:
            rep = _run_service(workload, study_seed, traced, workdir, path, timeout)
        _read_trials(rep, workload, path)
        return rep
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_setup(workload: Workload, study_seed: int, workdir: Path, timeout: float) -> float:
    """Start the workload exactly as a repetition does, and kill its
    processes the moment the first trial is asked: spawn → first ask,
    without paying for the study."""
    path = _store_path(workload, _fresh(workdir))
    ask_file = workdir / "first_ask"
    deadline = now() + timeout
    procs: "list[subprocess.Popen]" = []
    try:
        spawn = now()
        if workload.kind == "cli":
            with open(workdir / "child.log", "w") as log_file:
                procs.append(
                    subprocess.Popen(
                        _child_cmd(workdir / "rec.json", False, _cli_args(workload, study_seed, path), ask_file),
                        cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT,
                    )
                )
        else:
            _start_service(workload, study_seed, False, workdir, path, deadline, procs, ask_file)
        while now() < deadline:
            try:
                return float(ask_file.read_text()) - spawn
            except (OSError, ValueError):
                pass
            if any(p.poll() is not None for p in procs):
                raise BenchmarkError(f"{workload.name}: program exited before its first ask")
            time.sleep(0.005)
        raise BenchmarkError(f"{workload.name}: no first ask within {timeout:.0f}s")
    finally:
        for proc in procs:
            _kill(proc)
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_args(workload: Workload, seed: int, path: Path) -> "list[str]":
    return list(workload.args) + [
        "--storage", store_url(path), "--seed", str(seed),
    ]


def _run_cli(
    workload: Workload, seed: int, traced: bool, workdir: Path, path: Path, timeout: float
) -> Rep:
    """Run ``repro study run``; poll the store's status from the first
    ask (when the study exists in the store) until the process exits."""
    out, log, ask_file = workdir / "rec.json", workdir / "child.log", workdir / "first_ask"
    deadline = now() + timeout
    poller = status = None
    with open(log, "w") as log_file:
        spawn = now()
        proc = subprocess.Popen(
            _child_cmd(out, traced, _cli_args(workload, seed, path), ask_file),
            cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT,
        )
        try:
            while proc.poll() is None and now() < deadline:
                if poller is None and ask_file.exists():
                    status = StoreStatus(path, workload.study)
                    poller = Poller(status.read)
                    poller.start()
                time.sleep(0.005 if poller is None else 0.05)
            if proc.poll() is None:
                raise BenchmarkError(f"{workload.name} seed {seed} exceeded {timeout:.0f}s")
        finally:
            if poller is not None:
                poller.stop()
                status.close()
            _kill(proc)
    record = _load_record(out, log)
    if proc.returncode != 0 or record["first_ask"] is None or record["last_finish"] is None:
        raise BenchmarkError(
            f"{workload.name} seed {seed}: program exited {proc.returncode}:\n"
            + log.read_text(errors="replace")[-2000:]
        )
    polls = poller.samples if poller is not None else []
    return Rep(workload.name, workload.study, seed, traced, spawn, [record], polls, None)


def _start_service(
    workload: Workload,
    seed: int,
    traced: bool,
    workdir: Path,
    path: Path,
    deadline: float,
    procs: "list[subprocess.Popen]",
    ask_file: "Path | None" = None,
) -> "tuple[str, int, str]":
    """Start ``repro serve`` and one ``repro worker``, submit the study;
    returns the server's host, port and the study's name."""
    server = subprocess.Popen(
        _child_cmd(
            workdir / "server.json",
            traced,
            ["serve", "--storage", store_url(path), "--port", "0", "--workers", "1"],
            ask_file,
        ),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    procs.append(server)
    host, port = _await_listening(server, workdir / "server.log", deadline)
    with open(workdir / "worker.log", "w") as log_file:
        procs.append(
            subprocess.Popen(
                _child_cmd(
                    workdir / "worker.json",
                    traced,
                    [
                        "worker", "--connect", f"http://{host}:{port}",
                        "--poll", "0.02", "--lease-limit", "2",
                    ],
                ),
                cwd=ROOT, stdout=log_file, stderr=subprocess.STDOUT,
            )
        )
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request(
        "POST", "/studies", json.dumps(dict(workload.args, seed=seed)),
        {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    submitted = json.loads(response.read() or b"{}")
    conn.close()
    if response.status != 201:
        raise BenchmarkError(f"POST /studies answered {response.status}: {submitted}")
    return host, port, submitted["name"]


def _run_service(
    workload: Workload, seed: int, traced: bool, workdir: Path, path: Path, timeout: float
) -> Rep:
    deadline = now() + timeout
    procs: "list[subprocess.Popen]" = []
    poller = None
    try:
        spawn = now()
        host, port, name = _start_service(workload, seed, traced, workdir, path, deadline, procs)
        status = HttpStatus(host, port, name)
        poller = Poller(status.read)
        poller.start()
        while now() < deadline:
            state = ((poller.last_doc or {}).get("service") or {}).get("state")
            if state in ("done", "failed") or any(p.poll() is not None for p in procs):
                break
            time.sleep(0.05)
        else:
            raise BenchmarkError(f"{workload.name} seed {seed} exceeded {timeout:.0f}s")
    finally:
        if poller is not None:
            poller.stop()
            status.close()
        for proc in reversed(procs):
            _stop(proc)
    server_log = workdir / "server.log"
    records = [
        _load_record(workdir / "server.json", server_log),
        _load_record(workdir / "worker.json", workdir / "worker.log"),
    ]
    doc = poller.last_doc or {}
    if (doc.get("service") or {}).get("state") != "done" or records[0]["last_finish"] is None:
        raise BenchmarkError(
            f"{workload.name} seed {seed}: study ended as {doc.get('service')}:\n"
            + server_log.read_text(errors="replace")[-2000:]
        )
    return Rep(workload.name, name, seed, traced, spawn, records, poller.samples, doc)


def _await_listening(server: subprocess.Popen, log: Path, deadline: float) -> "tuple[str, int]":
    """Read ``repro serve``'s banner for the port the OS picked, then
    keep draining its output into ``log`` so the pipe never fills."""
    lines = []
    while now() < deadline:
        line = server.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("serving ") and " on http://" in line:
            address = line.split(" on http://", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)

            def drain():
                with open(log, "a") as f:
                    f.writelines(lines)
                    for rest in server.stdout:
                        f.write(rest)

            threading.Thread(target=drain, daemon=True).start()
            return host, int(port)
    raise BenchmarkError("repro serve did not start:\n" + "".join(lines)[-2000:])


def _read_trials(rep: Rep, workload: Workload, path: Path) -> None:
    from repro.blackbox.storage import open_study_storage
    from repro.blackbox.trial import TrialState

    storage = open_study_storage(store_url(path))
    try:
        stored = storage.load_study(rep.study_name)
    finally:
        storage.close()
    if stored is None:
        raise BenchmarkError(f"{workload.name} seed {rep.study_seed}: study missing from store")
    rep.states = {state.value: 0 for state in TrialState}
    for t in stored.trials:
        rep.states[t.state.value] += 1
        if t.state == TrialState.COMPLETE and t.values is not None:
            rep.points.append((float(t.values[0]), float(t.values[1])))


def front_hv(rep: Rep, reference: "list[float]") -> float:
    return stats.hypervolume_2d(rep.points, reference)


def program_hv(rep: Rep, reference: "list[float]") -> float:
    """The same hypervolume by the program's own ``hypervolume_2d``."""
    import numpy as np
    from repro.blackbox.multiobjective import hypervolume_2d

    if not rep.points:
        return 0.0
    return hypervolume_2d(np.asarray(rep.points), np.asarray(reference, dtype=float))


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(workdir.parent)
    except OSError:
        pass
