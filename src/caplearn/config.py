"""Run-configuration files: schema validation and construction of run pieces."""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .abstraction import AtomUniverse, ConfigurationError
from .envs import EnvironmentBundle, make_environment
from .evaluation import EvalConfig
from .learner import LearnerConfig

OUTPUT_ROOT_ENV = "CAPLEARN_OUT"


@dataclass
class RunConfig:
    environment: str
    env_params: dict = field(default_factory=dict)
    universe: str | dict = "builtin"
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    output_dir: str = "run"
    seed: int = 0

    def resolved_output_dir(self) -> Path:
        path = Path(self.output_dir)
        if path.is_absolute():
            return path
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        return Path(root) / path

    def to_json(self) -> str:
        doc = {
            "environment": {"name": self.environment, "params": self.env_params},
            "universe": self.universe,
            "learner": _section_json(self.learner),
            "evaluation": _section_json(self.evaluation),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The keys `RunConfig.to_json` writes, at the top level and under `environment`.
_TOP_LEVEL = ("environment", "universe", "learner", "evaluation", "output_dir", "seed")
_ENVIRONMENT = ("name", "params")


def _reject_unknown(where: str, doc: dict, known: typing.Container[str]) -> None:
    for key in doc:
        if key not in known:
            raise ConfigurationError(f"unknown {where} field {key!r}")


def _section_schema(cls: type) -> dict[str, tuple[type, ...]]:
    """Field name -> accepted JSON value types, read off the dataclass's hints.

    A `float` field also accepts a JSON integer.
    """
    schema = {}
    for name, hint in typing.get_type_hints(cls).items():
        if name == "seed":  # set from the run's top-level seed, never by a section
            continue
        types = typing.get_args(hint) or (hint,)
        schema[name] = types + (int,) if float in types else types
    return schema


def _section_json(section: LearnerConfig | EvalConfig) -> dict:
    return {name: getattr(section, name) for name in _section_schema(type(section))}


def _typed(section: str, data: dict, cls: type) -> dict:
    schema = _section_schema(cls)
    _reject_unknown(section, data, schema)
    for key, value in data.items():
        if not isinstance(value, schema[key]) or isinstance(value, bool):
            raise ConfigurationError(f"{section}.{key} has wrong type: {value!r}")
    return data


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    _reject_unknown("top-level", doc, _TOP_LEVEL)
    env = doc.get("environment")
    if not isinstance(env, dict) or not isinstance(env.get("name"), str):
        raise ConfigurationError("config needs environment.name")
    _reject_unknown("environment", env, _ENVIRONMENT)
    params = env.get("params", {})
    if not isinstance(params, dict):
        raise ConfigurationError("environment.params must be an object")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError("seed must be an integer")

    sections = {}
    for name, cls in (("learner", LearnerConfig), ("evaluation", EvalConfig)):
        section_doc = doc.get(name, {})
        if not isinstance(section_doc, dict):
            raise ConfigurationError(f"{name} must be an object")
        section = sections[name] = cls(**_typed(name, section_doc, cls), seed=seed)
        section.validate()

    universe = doc.get("universe", "builtin")
    if universe != "builtin" and not isinstance(universe, dict):
        raise ConfigurationError('universe must be "builtin" or an object')

    output_dir = doc.get("output_dir", "run")
    if not isinstance(output_dir, str):
        raise ConfigurationError("output_dir must be a string")

    return RunConfig(
        environment=env["name"],
        env_params=params,
        universe=universe,
        **sections,
        output_dir=output_dir,
        seed=seed,
    )


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def make_bundle(config: RunConfig) -> EnvironmentBundle:
    """Instantiate the configured environment, checking any inline universe."""
    try:
        bundle = make_environment(
            config.environment, seed=f"{config.seed}/env", **config.env_params
        )
    except TypeError as exc:
        raise ConfigurationError(f"bad environment params: {exc}") from exc
    definition = config.universe
    if isinstance(definition, dict):
        declared = AtomUniverse(definition.get("predicates"), definition.get("objects"))
        if declared.atoms != bundle.universe.atoms:
            raise ConfigurationError(
                "inline universe does not match the built-in environment's atom set"
            )
    return bundle
