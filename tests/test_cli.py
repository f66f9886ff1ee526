import csv
import json
from pathlib import Path

import pytest

from caplearn.cli import main
from caplearn.config import load_config, make_bundle
from caplearn.envs import vacuum_world
from caplearn.evaluation import (
    evaluation_filter,
    exact_vd,
    generate_eval_dataset,
    ground_truth_transitions,
    model_replay,
    reachable_states,
    sampled_vd,
)
from caplearn.learner import run
from caplearn.model import Capability, CapabilityModel, load_model, model_to_json


def _write_config(path: Path, **overrides) -> Path:
    doc = {
        "environment": {"name": "vacuum", "params": {}},
        "universe": "builtin",
        "learner": {
            "variant": "exact",
            "mcts_iterations": 50,
            "depth": 4,
            "max_queries": 4,
            "runs_per_query": 8,
        },
        "evaluation": {"episodes": 30, "min_len": 2, "max_len": 5},
        "output_dir": str(path.parent / "out"),
        "seed": 11,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


def _intent_achieving_rules(model: CapabilityModel) -> CapabilityModel:
    """`evaluation_filter` written out, with no memo: each capability's rules
    with an effect that achieves its intent, and no capability left empty."""
    caps = {}
    for name, cap in model.capabilities.items():
        pos, neg = cap.intent.positives, cap.intent.negatives
        rules = tuple(r for r in cap.rules if any(
            e.add & pos == pos and e.delete & neg == neg for _, e in r.effects))
        if rules:
            caps[name] = Capability(name, cap.intent, rules)
    return CapabilityModel(model.universe, caps, model.flavor)


class TestLearn:
    def test_writes_model_artifacts(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        for name in ("final_model.json", "final_model.txt", "dataset.jsonl",
                     "runlog.jsonl", "config.json"):
            assert (out / name).is_file(), name
        assert sorted((out / "snapshots").glob("query_*.json"))

    def test_progress_line_per_query_then_stop_line(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in (tmp_path / "out" / "runlog.jsonl").open()][:-1]
        assert len(records) == 4 and len(lines) == 5
        for line, r in zip(lines, records):
            assert line.startswith(f"query {r['index']:4d}  novel={r['novel']:3d}  "
                                   f"|D|={r['unique_transitions']:5d}  elapsed=")
        assert lines[-1].startswith("stopped: max_queries after 4 queries")

    def test_quiet_prints_nothing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_variant_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--variant", "random", "--quiet"]) == 0
        saved = json.loads((tmp_path / "out" / "config.json").read_text())
        assert saved["learner"]["variant"] == "random"

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["learn", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2

    def test_invalid_variant_exits_two(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", learner={"variant": "wat"})
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 2

    def test_unknown_learner_field_exits_two(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", learner={"mcts": 5})
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 2

    @pytest.mark.parametrize(
        "overrides,key",
        [({"sed": 3}, "sed"), ({"learnr": {"variant": "bogus"}}, "learnr"),
         ({"environment": {"name": "vacuum", "parms": {"x": 1}}}, "parms")],
    )
    def test_misspelt_key_exits_two(self, tmp_path, capsys, overrides, key):
        cfg = _write_config(tmp_path / "cfg.json", **overrides)
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_unknown_environment_exits_two(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", environment={"name": "minigrid", "params": {}})
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 2

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAPLEARN_OUT", str(tmp_path / "root"))
        cfg = _write_config(tmp_path / "cfg.json", output_dir="rel-run")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "root" / "rel-run" / "final_model.json").is_file()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = _write_config(tmp_path / "a.json", output_dir=str(tmp_path / "out_a"))
        cfg_b = _write_config(tmp_path / "b.json", output_dir=str(tmp_path / "out_b"))
        assert main(["learn", "--config", str(cfg_a), "--quiet"]) == 0
        assert main(["learn", "--config", str(cfg_b), "--quiet"]) == 0
        a = (tmp_path / "out_a" / "final_model.json").read_bytes()
        b = (tmp_path / "out_b" / "final_model.json").read_bytes()
        assert a == b


class TestEvaluate:
    def test_produces_checkpoint_csv(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        assert main(["evaluate", str(out), "--episodes", "20", "--quiet"]) == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {
            "checkpoint",
            "queries",
            "unique_transitions",
            "vd_sampled",
            "vd_exact_if_available",
            "wall_seconds",
        }
        assert rows[-1]["checkpoint"] == "final_model.json"
        assert float(rows[-1]["vd_exact_if_available"]) <= float(rows[0]["vd_exact_if_available"]) + 0.02

    def test_unique_transitions_come_from_the_runlog(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        records = [json.loads(line) for line in (out / "runlog.jsonl").read_text().splitlines()]
        learned = {r["snapshot"]: r["unique_transitions"] for r in records if "index" in r}
        assert len(learned) >= 3
        learned["final_model.json"] = records[-2]["unique_transitions"]
        assert main(["evaluate", str(out), "--episodes", "20", "--quiet"]) == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["checkpoint"]: int(r["unique_transitions"]) for r in rows} == learned

    def test_unique_transitions_blank_without_runlog(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        (out / "runlog.jsonl").unlink()
        assert main(["evaluate", str(out), "--episodes", "20", "--quiet"]) == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(r["unique_transitions"] == "" for r in rows)

    def test_checkpoints_in_query_order(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        snap = (out / "snapshots" / "query_0000.json").read_bytes()
        for name in ("query_9999.json", "query_10000.json"):
            (out / "snapshots" / name).write_bytes(snap)
        assert main(["evaluate", str(out), "--episodes", "20", "--quiet"]) == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.DictReader(fh))
        queries = [int(r["queries"]) for r in rows]
        assert queries == sorted(queries) and len(set(queries)) == len(queries)
        assert [r["checkpoint"] for r in rows[-3:]] == [
            "query_9999.json", "query_10000.json", "final_model.json"]

    def test_last_only_matches_last_row_of_full_evaluation(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        full, last = tmp_path / "full.csv", tmp_path / "last.csv"
        assert main(["evaluate", str(out), "--episodes", "20", "--csv", str(full), "--quiet"]) == 0
        assert main(["evaluate", str(out), "--episodes", "20", "--csv", str(last),
                     "--last-only", "--quiet"]) == 0
        with open(full) as fh:
            full_rows = list(csv.DictReader(fh))
        with open(last) as fh:
            last_rows = list(csv.DictReader(fh))
        assert len(full_rows) > 1
        assert [r["checkpoint"] for r in last_rows] == ["final_model.json"]
        for column in ("vd_sampled", "vd_exact_if_available"):
            assert last_rows[0][column] == full_rows[-1][column]

    def test_every_row_equals_its_checkpoint_evaluated_alone(self, tmp_path):
        """Capabilities carried from checkpoint to checkpoint change no VD value."""
        cfg = _write_config(
            tmp_path / "cfg.json",
            environment={"name": "roads", "params": {}},
            learner={"max_queries": 24, "runs_per_query": 10},
            evaluation={"episodes": 150, "min_len": 10, "max_len": 30},
            seed=0,
        )
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        assert main(["evaluate", str(out), "--quiet"]) == 0
        with open(out / "evaluation.csv") as fh:
            rows = list(csv.DictReader(fh))
        paths = [out / r["checkpoint"] if r["checkpoint"] == "final_model.json"
                 else out / "snapshots" / r["checkpoint"] for r in rows]
        assert len(paths) == 25

        config = load_config(out / "config.json")
        bundle = make_bundle(config)
        truth = bundle.ground_truth
        start = bundle.abstraction(bundle.simulator.reset())
        transitions = ground_truth_transitions(
            truth, sorted(reachable_states(truth, start), key=lambda s: s.bits)
        )
        agent_ds, sequences = generate_eval_dataset(
            bundle, dict(truth.capabilities), config.evaluation,
            theta=config.learner.theta, horizon=config.learner.horizon,
        )
        # The run both carries capabilities over and rebuilds changed ones.
        carried = rebuilt = 0
        previous = None
        for path in paths:
            model = load_model(path, bundle.universe, previous=previous)
            for name, cap in model.capabilities.items():
                if previous is not None and cap is previous.capabilities.get(name):
                    carried += 1
                else:
                    rebuilt += 1
            previous = model
        assert carried > 0 and rebuilt > len(model.capabilities)

        for row, path in zip(rows, paths):
            model = load_model(path, bundle.universe)
            filtered = _intent_achieving_rules(model)
            assert evaluation_filter(model).capabilities == filtered.capabilities
            model_ds = model_replay(filtered, sequences, start, seed=config.seed)
            assert float(row["vd_sampled"]) == sampled_vd(agent_ds, model_ds), row["checkpoint"]
            assert float(row["vd_exact_if_available"]) == exact_vd(model, truth, transitions)

    def test_empty_run_dir_exits_one(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", str(empty), "--quiet"]) == 1

    def test_run_dir_without_snapshots_exits_one(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        out = tmp_path / "out"
        for p in sorted((out / "snapshots").glob("*.json")):
            p.unlink()
        (out / "final_model.json").unlink()
        assert main(["evaluate", str(out), "--quiet"]) == 1


class TestInspect:
    def test_ground_truth_pretty_print(self, capsys):
        assert main(["inspect", "--ground-truth", "vacuum"]) == 0
        out = capsys.readouterr().out
        assert "Capability Name: achieve__clean(l1)" in out
        assert "Intent: clean(l1)" in out
        assert "Effects:" in out

    def test_model_file_pretty_print(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        model_path = tmp_path / "out" / "final_model.json"
        assert main(["inspect", "--model", str(model_path)]) == 0
        assert "Capability Name:" in capsys.readouterr().out

    def test_model_with_malformed_universe_is_an_error(self, tmp_path, capsys):
        doc = json.loads(model_to_json(vacuum_world().ground_truth))
        doc["universe"]["objects"]["l1"] = ["room"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: object l1 has type")

    def test_model_whose_universe_is_not_an_object_is_an_error(self, tmp_path, capsys):
        doc = json.loads(model_to_json(vacuum_world().ground_truth))
        doc["universe"] = []
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model universe must be an object, got []\n"

    def test_string_in_place_of_atom_list_is_refused_by_field(self, tmp_path, capsys):
        doc = json.loads(model_to_json(vacuum_world().ground_truth))
        cap = doc["capabilities"][0]
        cap["intent"]["pos"] = "clean(l1)"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--model", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: capability {cap['name']}: intent pos must be a list of atom names,"
            " got 'clean(l1)'\n"
        )

    def test_dataset_dump(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--dataset", str(tmp_path / "out" / "dataset.jsonl")]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        record = json.loads(first)
        assert set(record) == {"s", "c", "s_next", "count"}

    def test_last_query_dump(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json")
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["inspect", "--last-query", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        doc = json.loads(printed)
        assert doc["kind"] in ("state", "sequence")
        lines = (tmp_path / "out" / "runlog.jsonl").read_text().splitlines()
        last = json.loads(lines[-2])  # the closing summary follows the last record
        assert printed == json.dumps(last["policy"], indent=2, sort_keys=True) + "\n"

    def test_last_query_of_an_interrupted_run(self, tmp_path, capsys):
        config = load_config(_write_config(tmp_path / "cfg.json"))
        policies = []

        def hook(idx, model, log, dataset):
            policies.append(log.records[-1].policy)
            if idx == 1:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            run(config.learner, vacuum_world(seed="11/env"), tmp_path / "out", hook)
        capsys.readouterr()
        assert main(["inspect", "--last-query", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == json.dumps(policies[-1], indent=2, sort_keys=True) + "\n"

    def test_last_query_without_records_exits_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", learner={"max_queries": 0})
        assert main(["learn", "--config", str(cfg), "--quiet"]) == 0
        assert main(["inspect", "--last-query", str(tmp_path / "out")]) == 1
        assert "no last query" in capsys.readouterr().err
        assert main(["inspect", "--last-query", str(tmp_path / "missing")]) == 1

    def test_unknown_target_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--nonsense"])
        assert exc.value.code == 2

    def test_missing_model_file_exits_one(self, tmp_path):
        assert main(["inspect", "--model", str(tmp_path / "none.json")]) == 1
