import json

import pytest

from caplearn.abstraction import ConfigurationError
from caplearn.config import RunConfig, parse_config
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
