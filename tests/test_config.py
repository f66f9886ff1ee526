import json

import pytest

from caplearn.abstraction import ConfigurationError
from caplearn.cli import main
from caplearn.config import RunConfig, load_config, make_bundle, parse_config
from caplearn.envs import vacuum_world
from caplearn.evaluation import EvalConfig
from caplearn.learner import LearnerConfig


def _doc(section: str = "learner", **fields) -> dict:
    return {"environment": {"name": "vacuum"}, section: fields}


class TestRoundTrip:
    def test_non_default_config_survives_to_json_and_back(self):
        learner = LearnerConfig(
            variant="sampled",
            runs_per_query=7,
            horizon=42,
            theta=3,
            mcts_iterations=123,
            kappa=0.75,
            depth=5,
            early_stop_window=9,
            max_queries=11,
            wall_clock_budget=12.5,
            random_policy_length=13,
            bootstrap_steps=0,
            seed=17,
        )
        evaluation = EvalConfig(episodes=21, min_len=2, max_len=8, seed=17)
        cfg = RunConfig(
            environment="roads",
            learner=learner,
            evaluation=evaluation,
            output_dir="elsewhere",
            seed=17,
        )
        back = parse_config(json.loads(cfg.to_json()))
        assert back.learner == learner
        assert back.evaluation == evaluation
        assert back == cfg

    def test_default_config_round_trips(self):
        cfg = RunConfig(environment="vacuum")
        assert parse_config(json.loads(cfg.to_json())) == cfg


class TestFieldTypes:
    def test_int_accepted_for_float_fields(self):
        cfg = parse_config(_doc(kappa=2, wall_clock_budget=30))
        assert cfg.learner.kappa == 2
        assert cfg.learner.wall_clock_budget == 30

    @pytest.mark.parametrize(
        "section,field,value",
        [("learner", "depth", True), ("learner", "theta", False),
         ("learner", "kappa", True), ("evaluation", "episodes", True)],
    )
    def test_bool_rejected(self, section, field, value):
        with pytest.raises(ConfigurationError, match="wrong type"):
            parse_config(_doc(section, **{field: value}))

    @pytest.mark.parametrize(
        "section,field",
        [("learner", "seed"), ("learner", "progress"), ("evaluation", "seed")],
    )
    def test_fields_set_outside_the_section_are_unknown(self, section, field):
        with pytest.raises(ConfigurationError, match=f"unknown {section} field"):
            parse_config(_doc(section, **{field: 1}))


class TestUnknownKeys:
    """A misspelt key is refused by name rather than silently defaulted."""

    @pytest.mark.parametrize(
        "doc,where,key",
        [({"environment": {"name": "vacuum"}, "sed": 3}, "top-level", "sed"),
         ({"environment": {"name": "vacuum"}, "learnr": {"variant": "bogus"}}, "top-level", "learnr"),
         ({"environment": {"name": "vacuum", "parms": {"x": 1}}}, "environment", "parms"),
         ({"environment": {"name": "vacuum", "parms": {"x": 1}}, "sed": 3,
           "learnr": {"variant": "bogus"}}, "top-level", "sed")],
    )
    def test_unknown_key_rejected(self, doc, where, key):
        with pytest.raises(ConfigurationError, match=f"unknown {where} field '{key}'"):
            parse_config(doc)


class TestLearnerBounds:
    """Non-finite or out-of-range numbers in a config file are refused on load."""

    def _load(self, tmp_path, text: str):
        path = tmp_path / "config.json"
        path.write_text('{"environment": {"name": "vacuum"}, "learner": {%s}}' % text)
        return load_config(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "-0.5"])
    def test_kappa_must_be_finite_and_non_negative(self, tmp_path, value):
        with pytest.raises(ConfigurationError, match="kappa"):
            self._load(tmp_path, f'"kappa": {value}')

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1", "0"])
    def test_wall_clock_budget_must_be_finite_and_positive(self, tmp_path, value):
        with pytest.raises(ConfigurationError, match="wall_clock_budget"):
            self._load(tmp_path, f'"wall_clock_budget": {value}')

    def test_nan_kappa_with_negative_budget_is_refused(self, tmp_path):
        with pytest.raises(ConfigurationError):
            self._load(tmp_path, '"kappa": NaN, "wall_clock_budget": -1')

    def test_boundary_values_load(self, tmp_path):
        cfg = self._load(tmp_path, '"kappa": 0, "wall_clock_budget": 0.5')
        assert cfg.learner.kappa == 0
        assert cfg.learner.wall_clock_budget == 0.5
        assert self._load(tmp_path, '"wall_clock_budget": null').learner.wall_clock_budget is None


def _vacuum_universe(**changes) -> dict:
    """The built-in vacuum world's universe as an inline definition, with `changes` applied."""
    u = vacuum_world().universe
    definition = {
        "predicates": {name: list(types) for name, types in u.predicates.items()},
        "objects": dict(u.objects),
    }
    for key, value in changes.items():
        if value is None:
            del definition[key]
        else:
            definition[key] = value
    return definition


class TestSectionsAndInlineUniverse:
    """Section shapes and the inline universe, from the file to the environment bundle."""

    def test_matching_inline_universe_loads(self):
        doc = {"environment": {"name": "vacuum"}, "universe": _vacuum_universe()}
        bundle = make_bundle(parse_config(doc))
        assert bundle.universe.atoms == vacuum_world().universe.atoms

    @pytest.mark.parametrize(
        "field,value,message",
        [("learner", [], "learner must be an object"),
         ("evaluation", 3, "evaluation must be an object"),
         ("universe", _vacuum_universe(objects=None), "needs object map 'objects'"),
         ("universe", _vacuum_universe(predicates=None), "needs object map 'predicates'"),
         ("universe", _vacuum_universe(objects={**vacuum_world().universe.objects, "l3": "room"}),
          "does not match")],
        ids=["learner", "evaluation", "no-objects", "no-predicates", "other-atoms"],
    )
    def test_refused_on_load_and_by_learn(self, tmp_path, field, value, message):
        doc = {"environment": {"name": "vacuum"}, field: value,
               "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigurationError, match=message):
            make_bundle(parse_config(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["learn", "--config", str(path), "--quiet"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "universe,message",
        [(_vacuum_universe(objects={**vacuum_world().universe.objects, "l1": ["room"]}),
          "object l1 has type"),
         (_vacuum_universe(objects={**vacuum_world().universe.objects, "l1": None}),
          "object l1 has type"),
         (_vacuum_universe(predicates={**_vacuum_universe()["predicates"], "clean": "room"}),
          "predicate clean needs a list of type names"),
         (_vacuum_universe(predicates={**_vacuum_universe()["predicates"], "clean": [["room"]]}),
          "predicate clean uses unknown type"),
         (_vacuum_universe(predicates=sorted(_vacuum_universe()["predicates"].items())),
          "needs object map 'predicates'"),
         (_vacuum_universe(objects=sorted(vacuum_world().universe.objects.items())),
          "needs object map 'objects'")],
        ids=["list-object-type", "null-object-type", "string-signature", "nested-signature",
             "predicate-list", "object-list"],
    )
    def test_malformed_universe_refused(self, tmp_path, capsys, universe, message):
        doc = {"environment": {"name": "vacuum"}, "universe": universe,
               "output_dir": str(tmp_path / "out")}
        with pytest.raises(ConfigurationError, match=message):
            make_bundle(parse_config(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["learn", "--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()
