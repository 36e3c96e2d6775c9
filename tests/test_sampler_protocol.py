"""Ask/tell sampler protocol (DESIGN.md §10).

Every in-tree sampler speaks two protocols over the same RNG draws:
define-by-run ``sample()`` (one parameter at a time, driven by the
objective) and ask/tell ``ask()``/``tell()`` (a complete candidate
planned up front, for the streaming drivers).  The contract: for a fixed
(seed, trial number, completed history) both protocols produce the
*identical* params — that equivalence is what lets the pipelined
dispatcher interchange with the define-by-run loop bit-for-bit.
"""

import warnings

import pytest

from repro.blackbox import (
    GridSampler,
    NSGA2Sampler,
    RandomSampler,
    ScalarizationSampler,
    Study,
    TPESampler,
    TrialState,
)
from repro.blackbox.distributions import (
    CategoricalDistribution,
    FloatDistribution,
    IntDistribution,
)
from repro.blackbox.parallel import materialize_params
from repro.blackbox.samplers.base import Sampler
from repro.exceptions import OptimizationError

SPACE = {
    "x": FloatDistribution(-2.0, 2.0),
    "k": IntDistribution(0, 5),
    "mode": CategoricalDistribution(("a", "b", "c")),
}

GRID_SPACE = {"x": [-1.0, 0.0, 1.0], "k": [0, 2, 4], "mode": ["a", "b"]}

_MODE_COST = {"a": 0.0, "b": 0.5, "c": 1.0}


def _values(params) -> tuple[float, float]:
    base = params["x"] ** 2 + params["k"] + _MODE_COST[params["mode"]]
    return (base, (params["x"] - 1.0) ** 2 + _MODE_COST[params["mode"]])


def _define_by_run_for(n_objectives: int):
    def objective(trial):
        params = {
            "x": trial.suggest_float("x", -2.0, 2.0),
            "k": trial.suggest_int("k", 0, 5),
            "mode": trial.suggest_categorical("mode", ("a", "b", "c")),
        }
        vals = _values(params)
        return vals[0] if n_objectives == 1 else vals

    return objective


def _grid_define_by_run(trial):
    params = {
        "x": trial.suggest_float("x", -2.0, 2.0),
        "k": trial.suggest_int("k", 0, 5),
        "mode": trial.suggest_categorical("mode", ("a", "b")),
    }
    return _values(params)


SAMPLERS = {
    "random": lambda: RandomSampler(seed=5),
    "nsga2": lambda: NSGA2Sampler(population_size=6, seed=5),
    "tpe": lambda: TPESampler(n_startup_trials=6, seed=5),
    "scalarization": lambda: ScalarizationSampler(n_startup_trials=6, seed=5),
    "grid": lambda: GridSampler(GRID_SPACE),
}

GRID_DIST_SPACE = {
    "x": FloatDistribution(-2.0, 2.0),
    "k": IntDistribution(0, 5),
    "mode": CategoricalDistribution(("a", "b")),
}


def _study_for(kind: str) -> Study:
    sampler = SAMPLERS[kind]()
    sampler.per_trial_seeding = True
    directions = ["minimize"] if kind == "tpe" else ["minimize", "minimize"]
    return Study(directions=directions, sampler=sampler)


def _run_define_by_run(kind: str, n_trials: int) -> list:
    study = _study_for(kind)
    objective = (
        _grid_define_by_run
        if kind == "grid"
        else _define_by_run_for(len(study.directions))
    )
    study.optimize(objective, n_trials)
    return [dict(t.params) for t in study.trials]


def _run_ask_tell(kind: str, n_trials: int) -> list:
    study = _study_for(kind)
    space = GRID_DIST_SPACE if kind == "grid" else SPACE
    for _ in range(n_trials):
        trial = study.ask()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            params = study.sampler.ask(study, trial.number, space)
        materialize_params(trial, params, space)
        vals = _values(params)
        study.tell(trial, vals[: len(study.directions)])
    return [dict(t.params) for t in study.trials]


class TestAskTellEquivalence:
    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_ask_matches_define_by_run_bit_for_bit(self, kind):
        """The protocol contract: same seed + history → same params."""
        n = 18  # three NSGA-II generations: startup AND bred trials
        assert _run_ask_tell(kind, n) == _run_define_by_run(kind, n)

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_native_ask_emits_no_deprecation_warning(self, kind):
        """The ask path runs warning-free on every in-tree sampler."""
        _run_ask_tell(kind, 4)  # simplefilter("error") inside would raise


class _SampleOnlySampler(Sampler):
    """A define-by-run-only subclass that never implemented ask()."""

    def sample(self, study, trial, name, distribution):
        return distribution.sample(self.rng)


class TestAbstractAsk:
    def test_sampler_without_native_ask_cannot_be_built(self):
        """ask() is abstract: a sampler must plan whole candidates itself."""
        with pytest.raises(TypeError, match="ask"):
            _SampleOnlySampler(seed=9)


class _RecordingSampler(RandomSampler):
    def __init__(self):
        super().__init__(seed=1)
        self.told = []

    def tell(self, study, trial):
        self.told.append((trial.number, trial.state))
        super().tell(study, trial)


class TestTellRouting:
    def test_study_tell_routes_through_sampler_tell(self):
        sampler = _RecordingSampler()
        study = Study(directions=["minimize"], sampler=sampler)
        t0 = study.ask()
        study.tell(t0, 1.0)
        t1 = study.ask()
        study.tell(t1, state=TrialState.PRUNED)
        assert sampler.told == [
            (0, TrialState.COMPLETE),
            (1, TrialState.PRUNED),
        ]


class TestMaterializeValidation:
    def test_missing_parameter_is_an_error(self):
        study = Study(directions=["minimize"], sampler=RandomSampler(seed=1))
        trial = study.ask()
        with pytest.raises(OptimizationError, match="planned no value"):
            materialize_params(trial, {"x": 0.0}, SPACE)

    def test_out_of_domain_value_is_an_error(self):
        study = Study(directions=["minimize"], sampler=RandomSampler(seed=1))
        trial = study.ask()
        bad = {"x": 99.0, "k": 2, "mode": "a"}
        with pytest.raises(OptimizationError, match="out-of-domain"):
            materialize_params(trial, bad, SPACE)
