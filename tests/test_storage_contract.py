"""Shared storage-contract suite: every backend, one set of semantics.

Parametrized over the in-memory, JSONL-journal, and SQLite backends
(DESIGN.md §7): whatever one backend guarantees — round-trip fidelity,
last-write-wins per trial number, tombstone resets, crash-durable
records (a real ``kill -9`` mid-run), resume-equivalence of the final
Pareto front — every backend must guarantee.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.blackbox import (
    InMemoryStorage,
    JournalStorage,
    NSGA2Sampler,
    RandomSampler,
    SQLiteStorage,
    TrialState,
    create_study,
    storage_from_url,
)
from repro.blackbox.storage import resolve_storage
from repro.blackbox.trial import FrozenTrial
from repro.core.parameterspace import ParameterSpace
from repro.core.study_runner import OptimizationRunner
from repro.exceptions import OptimizationError

SMALL_SPACE = ParameterSpace(max_turbines=4, max_solar_increments=4, max_battery_units=3)

BACKENDS = ["memory", "journal", "sqlite"]


class _Substrate:
    """One backend's data substrate: fresh instances over shared state."""

    def __init__(self, kind: str, tmp_path: Path):
        self.kind = kind
        self.persistent = kind != "memory"
        self._memory = InMemoryStorage()
        self._path = tmp_path / f"store.{'jsonl' if kind == 'journal' else 'db'}"

    def open(self):
        if self.kind == "memory":
            return self._memory  # process-local: "reopen" is the same dict
        if self.kind == "journal":
            return JournalStorage(self._path)
        return SQLiteStorage(self._path)


@pytest.fixture(params=BACKENDS)
def substrate(request, tmp_path) -> _Substrate:
    return _Substrate(request.param, tmp_path)


def objective(trial):
    x = trial.suggest_float("x", -1.0, 1.0)
    k = trial.suggest_int("k", 0, 5)
    return x * x + k


class TestContract:
    def test_round_trip_through_driver(self, substrate):
        storage = substrate.open()
        study = create_study(
            direction="minimize",
            sampler=RandomSampler(seed=1),
            study_name="s",
            storage=storage,
            metadata={"site": "houston", "n_trials": 5},
        )
        study.optimize(objective, n_trials=5)

        stored = substrate.open().load_study("s")
        assert stored is not None
        assert stored.directions == ["minimize"]
        assert stored.metadata == {"site": "houston", "n_trials": 5}
        assert [t.number for t in stored.finished_trials()] == list(range(5))
        assert [t.params for t in stored.finished_trials()] == [
            t.params for t in study.trials
        ]
        assert [t.values for t in stored.finished_trials()] == [
            t.values for t in study.trials
        ]

    def test_duplicate_create_raises(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        with pytest.raises(OptimizationError, match="already exists"):
            substrate.open().create_study("s", ["minimize"], {})

    def test_unknown_study_loads_none(self, substrate):
        assert substrate.open().load_study("nope") is None

    def test_multiple_studies(self, substrate):
        storage = substrate.open()
        for name in ("a", "b"):
            storage.create_study(name, ["minimize"], {})
            storage.record_trial_finish(
                name, FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
            )
        assert substrate.open().study_names() == ["a", "b"]

    def test_last_write_wins_per_number(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        storage.record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(1.0,))
        )
        storage.record_trial_finish(
            "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(2.0,))
        )
        stored = substrate.open().load_study("s")
        assert len(stored.trials) == 1
        assert stored.trials[0].values == (2.0,)

    def test_start_after_finish_resets_to_running(self, substrate):
        # The tombstone move resume-renumbering relies on: a bare start
        # record written after a finish makes the number replay as
        # RUNNING, which the next resume discards.
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        storage.record_trial_finish(
            "s", FrozenTrial(number=3, state=TrialState.COMPLETE, values=(1.0,))
        )
        storage.record_trial_start("s", FrozenTrial(number=3))
        stored = substrate.open().load_study("s")
        assert stored.trials_by_number[3].state == TrialState.RUNNING
        assert stored.finished_trials() == []

    def test_loaded_trials_do_not_alias(self, substrate):
        storage = substrate.open()
        study = create_study(storage=storage, study_name="s", sampler=RandomSampler(seed=2))
        study.optimize(objective, n_trials=2)
        loaded = storage.load_study("s")
        loaded.trials[0].params["x"] = 999.0
        assert storage.load_study("s").trials[0].params["x"] != 999.0

    def test_persists_across_instances(self, substrate):
        if not substrate.persistent:
            pytest.skip("memory backend is process-local by design")
        with substrate.open() as storage:
            study = create_study(
                storage=storage, study_name="s", sampler=RandomSampler(seed=3)
            )
            study.optimize(objective, n_trials=3)
        reloaded = substrate.open().load_study("s")
        assert [t.values for t in reloaded.finished_trials()] == [
            t.values for t in study.trials
        ]

    def test_load_if_exists_resumes_numbering(self, substrate):
        first = create_study(
            storage=substrate.open(), study_name="s", sampler=RandomSampler(seed=4)
        )
        first.optimize(objective, n_trials=4)
        resumed = create_study(
            storage=substrate.open(),
            study_name="s",
            sampler=RandomSampler(seed=4),
            load_if_exists=True,
        )
        assert [t.number for t in resumed.trials] == [0, 1, 2, 3]
        resumed.optimize(objective, n_trials=2)
        assert len(substrate.open().load_study("s").finished_trials()) == 6


class TestResumeEquivalence:
    """A killed-and-resumed NSGA-II study reaches the identical final
    front as an uninterrupted run — on every backend."""

    N_TRIALS = 40
    POP = 10

    def _run(self, scenario, storage, n_trials, load_if_exists=False):
        return OptimizationRunner(scenario, space=SMALL_SPACE).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=self.POP, seed=42),
            storage=storage,
            study_name="resume-eq",
            load_if_exists=load_if_exists,
        )

    def test_resumed_front_identical(self, houston_month, substrate):
        if not substrate.persistent:
            pytest.skip("resume across processes needs a persistent backend")
        full_substrate = _Substrate(substrate.kind, substrate._path.parent / "full")
        full_substrate._path.parent.mkdir(exist_ok=True)
        full = self._run(houston_month, full_substrate.open(), self.N_TRIALS)

        self._run(houston_month, substrate.open(), 15)  # killed mid-gen 2
        resumed = self._run(
            houston_month, substrate.open(), self.N_TRIALS, load_if_exists=True
        )
        assert [t.params for t in resumed.study.trials] == [
            t.params for t in full.study.trials
        ]
        assert [t.values for t in resumed.study.trials] == [
            t.values for t in full.study.trials
        ]


KILL_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.blackbox import RandomSampler, create_study

    spec, kill_after = sys.argv[1], int(sys.argv[2])
    study = create_study(
        direction="minimize", sampler=RandomSampler(seed=9),
        study_name="k", storage=spec,
    )
    study.sampler.per_trial_seeding = True  # the resume-reproducible mode
    done = 0

    def objective(trial):
        global done
        x = trial.suggest_float("x", -1.0, 1.0)
        k = trial.suggest_int("k", 0, 5)
        if done >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)  # the real thing
        done += 1
        return x * x + k

    study.optimize(objective, n_trials=100)
    """
)


class TestKillDashNine:
    """A genuine ``kill -9`` mid-run: the process dies inside an
    objective, after start records were committed; the surviving records
    must replay cleanly and resume must re-ask the lost trials."""

    @pytest.mark.parametrize("kind", ["journal", "sqlite"])
    def test_sigkill_survivors_replay_and_resume(self, tmp_path, kind):
        spec = str(tmp_path / ("k.jsonl" if kind == "journal" else "k.db"))
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD)
        kill_after = 7
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), spec, str(kill_after)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        stored = storage_from_url(spec).load_study("k")
        assert stored is not None
        finished = stored.finished_trials()
        assert len(finished) == kill_after
        # The in-flight trial left a committed start record but no finish.
        assert stored.trials_by_number[kill_after].state == TrialState.RUNNING

        # Resume re-asks the lost number and runs to the full target; the
        # per-trial RNG streams make the draws identical to an
        # uninterrupted run of the same seeded study.
        resumed = create_study(
            direction="minimize",
            sampler=RandomSampler(seed=9),
            study_name="k",
            storage=spec,
            load_if_exists=True,
        )
        resumed.sampler.per_trial_seeding = True
        assert len(resumed.trials) == kill_after
        resumed.optimize(objective, n_trials=12 - len(resumed.trials))

        reference = create_study(
            direction="minimize", sampler=RandomSampler(seed=9), study_name="ref"
        )
        reference.sampler.per_trial_seeding = True
        reference.optimize(objective, n_trials=12)
        assert [t.params for t in resumed.trials] == [
            t.params for t in reference.trials
        ]


class TestRegistry:
    def test_scheme_resolution(self, tmp_path):
        assert isinstance(storage_from_url("memory://"), InMemoryStorage)
        j = storage_from_url(f"journal:///{tmp_path}/s.jsonl")
        assert isinstance(j, JournalStorage)
        s = storage_from_url(f"sqlite:///{tmp_path}/s.db")
        assert isinstance(s, SQLiteStorage)

    def test_sqlalchemy_style_paths(self):
        assert str(storage_from_url("journal:///rel.jsonl").path) == "rel.jsonl"
        assert str(storage_from_url("sqlite:////abs/s.db").path) == "/abs/s.db"

    def test_bare_path_extension_dispatch(self, tmp_path):
        assert isinstance(storage_from_url(tmp_path / "s.jsonl"), JournalStorage)
        assert isinstance(storage_from_url(tmp_path / "s.db"), SQLiteStorage)
        assert isinstance(storage_from_url(tmp_path / "s.sqlite3"), SQLiteStorage)

    def test_unknown_scheme_raises(self):
        with pytest.raises(OptimizationError, match="unknown storage scheme"):
            storage_from_url("redis://s")

    def test_resolve_passthrough_and_none(self):
        backend = InMemoryStorage()
        assert resolve_storage(backend) is backend
        assert resolve_storage(None) is None

    def test_create_study_accepts_spec_strings(self, tmp_path):
        spec = f"sqlite:///{tmp_path}/via-url.db"
        study = create_study(storage=spec, study_name="s", sampler=RandomSampler(seed=6))
        study.optimize(objective, n_trials=2)
        assert len(storage_from_url(spec).load_study("s").finished_trials()) == 2

class TestUpdateMetadata:
    def test_update_replaces_and_persists(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {"n_trials": 10})
        storage.update_metadata("s", {"n_trials": 10, "batch": 4})
        assert substrate.open().load_study("s").metadata == {
            "n_trials": 10,
            "batch": 4,
        }

    def test_update_unknown_study_raises(self, substrate):
        storage = substrate.open()
        storage.create_study("s", ["minimize"], {})
        with pytest.raises(OptimizationError, match="unknown study"):
            storage.update_metadata("nope", {"batch": 4})

    def test_journal_compaction_folds_meta_ops_into_create(self, tmp_path):
        storage = JournalStorage(tmp_path / "j.jsonl")
        storage.create_study("s", ["minimize"], {"n_trials": 10})
        storage.update_metadata("s", {"n_trials": 10, "batch": 4})
        before, after = storage.compact()
        assert before == 2 and after == 1
        assert JournalStorage(tmp_path / "j.jsonl").load_study("s").metadata == {
            "n_trials": 10,
            "batch": 4,
        }


class TestJournalStaleAppendHandle:
    def test_append_survives_concurrent_compaction(self, tmp_path):
        # Writer A holds an open append handle; another instance
        # compacts (atomic-replaces) the file.  A's next append must
        # land in the *new* inode, not the unlinked old one.
        path = tmp_path / "j.jsonl"
        writer = JournalStorage(path)
        writer.create_study("s", ["minimize"], {})
        for value in (1.0, 2.0):
            writer.record_trial_finish(
                "s", FrozenTrial(number=0, state=TrialState.COMPLETE, values=(value,))
            )
        JournalStorage(path).compact()
        writer.record_trial_finish(
            "s", FrozenTrial(number=1, state=TrialState.COMPLETE, values=(3.0,))
        )
        stored = JournalStorage(path).load_study("s")
        assert stored.trials_by_number[0].values == (2.0,)
        assert stored.trials_by_number[1].values == (3.0,)


class TestFidelityLadderContract:
    """The fidelity ladder spec (DESIGN.md §11) is resume identity, like
    the racing schedule: persisted in study metadata on every backend,
    round-tripping bit-exactly, and enforced with a hard error when a
    resume names a different (or no) ladder."""

    def _run(self, scenario, storage, n_trials, load=False, fidelity="fidelity=lo,full"):
        return OptimizationRunner(scenario, space=SMALL_SPACE, fidelity=fidelity).run_blackbox(
            n_trials=n_trials,
            sampler=NSGA2Sampler(population_size=10, seed=42),
            storage=storage,
            study_name="laddered",
            load_if_exists=load,
        )

    def test_ladder_persists_and_mismatch_is_hard_error(self, houston_month, substrate):
        self._run(houston_month, substrate.open(), 10)
        if substrate.persistent:
            stored = substrate.open().load_study("laddered")
            assert stored.metadata["fidelity"] == "fidelity=lo,full"
        for wrong in (None, "fidelity=lo,mid,full", "fidelity=lo,full,margin=0.9"):
            with pytest.raises(OptimizationError, match="fidelity"):
                self._run(houston_month, substrate.open(), 20, load=True, fidelity=wrong)
        # the identical ladder resumes cleanly
        resumed = self._run(houston_month, substrate.open(), 20, load=True)
        assert len(resumed.study.trials) == 20

    def test_ladder_cannot_be_added_on_resume(self, houston_month, substrate):
        self._run(houston_month, substrate.open(), 10, fidelity=None)
        with pytest.raises(OptimizationError, match="fidelity"):
            self._run(houston_month, substrate.open(), 20, load=True)
