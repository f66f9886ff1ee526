import json
import math
from collections import Counter
from dataclasses import asdict
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caplearn.learner as learner_module
from caplearn.abstraction import AtomUniverse, ConfigurationError, LiteralConjunction
from caplearn.dataset import TransitionDataset, Transition
from caplearn.envs import make_environment, vacuum_world
from caplearn.evaluation import reachable_states
from caplearn.learner import (
    PHASES,
    LearnerConfig,
    RunResult,
    discover_capabilities,
    execute_query,
    random_walk,
    run,
    run_capability,
    sample_initial_state,
    tally_segments,
)
from caplearn.model import (
    build_models,
    entails,
    entailed_successors,
    load_model,
    model_to_json,
    predict,
)
from caplearn.synthesis import Query, SequencePolicy, StatePolicy


class TestLearnerConfig:
    def test_defaults_follow_hyperparameter_table(self):
        cfg = LearnerConfig()
        assert cfg.runs_per_query == 25
        assert cfg.horizon == 100
        assert cfg.mcts_iterations == 1000
        assert cfg.kappa == pytest.approx(math.sqrt(2))
        assert cfg.depth == 20
        assert cfg.early_stop_window == 20
        assert cfg.random_policy_length == 30

    def test_invalid_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            LearnerConfig(variant="clever").validate()

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            LearnerConfig(runs_per_query=0).validate()


class TestRandomWalk:
    def test_zero_steps_single_state(self):
        b = vacuum_world(seed=1)
        walk = random_walk(b.simulator, 0, Random(0))
        assert walk == [b.simulator.reset()]

    def test_seeded_reproducibility(self):
        w1 = random_walk(vacuum_world(seed=4).simulator, 50, Random("w"))
        w2 = random_walk(vacuum_world(seed=4).simulator, 50, Random("w"))
        assert w1 == w2

    def test_abstraction_changes_with_high_probability(self):
        changed = 0
        for seed in range(100):
            b = vacuum_world(seed=seed)
            walk = random_walk(b.simulator, 100, Random(seed))
            states = {b.abstraction(x) for x in walk}
            changed += len(states) > 1
        assert changed >= 99


def _abstract(bundle, traj):
    return [bundle.abstraction(x) for x in traj]


class ScriptedAgent:
    """Returns a fixed trajectory and, like a real agent, leaves the simulator at its end."""

    def __init__(self, traj):
        self.traj = traj

    def attempt(self, intent, simulator, start, horizon):
        if self.traj:
            simulator.current = self.traj[-1]
        return list(self.traj)


class StubSimulator:
    def __init__(self, current):
        self.current = current

    def revert(self, state):
        self.current = state


class TestRunCapability:
    def setup_method(self):
        self.u = AtomUniverse({"p": ["x"], "q": ["x"], "r": ["x"]}, {"a": "x"})

    def run(self, traj, theta):
        sim = StubSimulator(traj[0] if traj else set())
        intent = LiteralConjunction(self.u.mask_of(["p(a)"]), 0)
        states, steps = run_capability(
            ScriptedAgent(traj), sim, intent, self.u.encode, theta, 100, self.u.encode(sim.current)
        )
        return states, steps, sim.current

    def test_constant_trajectory_collapses(self):
        states, steps, _ = self.run([{"p(a)"}] * 3, None)
        assert states == [self.u.encode(["p(a)"])]
        assert steps == 2

    def test_truncation_after_theta_distinct_states(self):
        traj = [set(), set(), {"p(a)"}, {"p(a)"}, {"q(a)"}]
        states, steps, current = self.run(traj, 2)
        assert states == [self.u.encode([]), self.u.encode(["p(a)"])]
        assert steps == 2
        assert current == {"p(a)"}

    def test_unbounded_keeps_all_changes(self):
        states, steps, current = self.run([set(), {"p(a)"}, {"q(a)"}], None)
        assert len(states) == 3
        assert steps == 2
        assert current == {"q(a)"}

    @pytest.mark.parametrize("theta, abstracted", [(None, 3), (2, 2), (1, 0)])
    def test_start_is_not_abstracted_again(self, theta, abstracted):
        traj = [set(), set(), {"p(a)"}, {"q(a)"}]
        calls = []

        def abstraction(x):
            calls.append(x)
            return self.u.encode(x)

        sim = StubSimulator(traj[0])
        intent = LiteralConjunction(self.u.mask_of(["p(a)"]), 0)
        states, _ = run_capability(
            ScriptedAgent(traj), sim, intent, abstraction, theta, 100, self.u.encode(traj[0])
        )
        assert calls == traj[1 : 1 + abstracted]
        assert states == [self.u.encode(x) for x in ([], ["p(a)"], ["q(a)"])][: theta or 3]

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            self.run([], None)

    def test_theta_below_one_rejected(self):
        with pytest.raises(ValueError):
            self.run([set()], 0)


class TestDiscoverCapabilities:
    def test_constant_trajectory_yields_nothing(self):
        b = vacuum_world(seed=1)
        walk = [b.simulator.reset()] * 5
        assert discover_capabilities([_abstract(b, walk)], b.universe) == {}

    def test_positive_delta_regrounds_over_locations(self):
        b = vacuum_world(seed=1)
        traj = [frozenset({"charged(robot)"}), frozenset({"charged(robot)", "clean(l1)"})]
        caps = discover_capabilities([_abstract(b, traj)], b.universe)
        assert "achieve__clean(l1)" in caps
        assert "achieve__clean(l2)" in caps

    def test_negative_delta_gets_negative_polarity(self):
        b = vacuum_world(seed=1)
        traj = [frozenset({"charged(robot)"}), frozenset()]
        caps = discover_capabilities([_abstract(b, traj)], b.universe)
        assert set(caps) == {"achieve__!charged(robot)"}
        cap = caps["achieve__!charged(robot)"]
        assert cap.intent.negatives == b.universe.mask_of(["charged(robot)"])
        assert cap.intent.positives == 0


_TALLY_UNIVERSE = AtomUniverse(
    {"clean": ["room"], "at": ["room"], "holding": ["item"]},
    {"l1": "room", "l2": "room", "key": "item"},
)


def _random_segments(rng, n, caps=("a", "b", "c")):
    """Segments of 1-4 abstract states over few states, so triples repeat."""
    u = _TALLY_UNIVERSE
    pool = [u.encode(names) for names in ([], ["clean(l1)"], ["at(l2)"], ["holding(key)", "at(l1)"],
                                          ["clean(l1)", "clean(l2)"])]
    segments = []
    for _ in range(n):
        states = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        segments.append((rng.choice(caps), states))
    return segments


class TestTallySegments:
    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_same_dataset_as_one_record_per_segment(self, seed):
        rng = Random(seed)
        prior = _random_segments(rng, rng.randint(0, 12))
        queries = [_random_segments(rng, rng.randint(0, 25)) for _ in range(3)]
        one, tallied = TransitionDataset(), TransitionDataset()
        for cap_name, states in prior:
            one.record(states, cap_name)
            tallied.record(states, cap_name)
        for segments in queries:
            caps = sorted({c for c, _ in prior + segments} | {"unseen"})
            rev_one = {c: one.revision(c) for c in caps}
            rev_tallied = {c: tallied.revision(c) for c in caps}
            novel_one = sum(int(one.record(states, c)[1]) for c, states in segments)
            tally, _ = tally_segments(segments)
            novel_tallied = sum(int(tallied.record(states, c, n)[1]) for c, states, n in tally)
            assert novel_tallied == novel_one
            assert sum(n for _, _, n in tally) == len(segments)
            assert list(tallied.counts.items()) == list(one.counts.items())
            for c in caps:
                assert list(tallied.observed_states(c)) == list(one.observed_states(c))
                assert (tallied.revision(c) != rev_tallied[c]) == (one.revision(c) != rev_one[c])
            states = {s for _, seq in prior + segments for s in seq}
            for s in states:
                assert tallied.state_visit_count(s) == one.state_visit_count(s)
            assert tallied.observed_state_count() == one.observed_state_count()

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_discovery_over_distinct_moves(self, seed):
        rng = Random(seed)
        segments = _random_segments(rng, rng.randint(0, 30))
        _, moves = tally_segments(segments)
        assert all(len(states) > 1 for states in moves)
        got = discover_capabilities(moves, _TALLY_UNIVERSE)
        want = discover_capabilities([states for _, states in segments], _TALLY_UNIVERSE)
        assert list(got.items()) == list(want.items())

    def test_first_occurrence_order_and_counts(self):
        u = _TALLY_UNIVERSE
        s0, s1, s2 = u.encode([]), u.encode(["clean(l1)"]), u.encode(["at(l1)"])
        segments = [("a", [s0, s1]), ("b", [s0]), ("a", [s0, s2, s1]), ("a", [s1, s0]), ("b", [s0])]
        tally, moves = tally_segments(segments)
        assert tally == [["a", [s0, s1], 2], ["b", [s0], 2], ["a", [s1, s0], 1]]
        assert moves == [[s0, s1], [s0, s2, s1], [s1, s0]]


class TestExecuteQuery:
    def test_policy_undefined_at_start_yields_trivial_runs(self):
        b = vacuum_world(seed=1)
        start = b.simulator.reset()
        caps = discover_capabilities(
            [_abstract(b, [frozenset({"charged(robot)"}),
                           frozenset({"charged(robot)", "has(robot,vacuum)"})])],
            b.universe,
        )
        ds = TransitionDataset()
        query = Query(start, StatePolicy(()), 4)
        results = execute_query(b.agent, b.simulator, query, caps, b.abstraction, None, 100, 20)
        assert len(results) == 4
        assert all(r.segments == [] for r in results)

    def test_sequence_policy_runs_in_order(self):
        b = vacuum_world(seed=2)
        start = b.simulator.reset()
        full = discover_capabilities(
            [_abstract(b, [frozenset(), frozenset({"has(robot,vacuum)"}),
                           frozenset({"has(robot,vacuum)", "at(charger,robot)"})])],
            b.universe,
        )
        seq = ("achieve__has(robot,vacuum)", "achieve__at(charger,robot)")
        query = Query(start, SequencePolicy(seq), 2)
        results = execute_query(b.agent, b.simulator, query, full, b.abstraction, None, 100, 20)
        for r in results:
            assert [c for c, _ in r.segments] == list(seq)
            assert "has(robot,vacuum)" in r.final_state
            assert "at(charger,robot)" in r.final_state

    def test_agent_exception_recorded_not_raised(self):
        b = vacuum_world(seed=2)
        start = b.simulator.reset()

        class ExplodingAgent:
            def attempt(self, intent, simulator, start, horizon):
                raise RuntimeError("boom")

        caps = discover_capabilities(
            [_abstract(b, [frozenset(), frozenset({"has(robot,vacuum)"})])], b.universe
        )
        query = Query(start, SequencePolicy(("achieve__has(robot,vacuum)",)), 3)
        results = execute_query(
            ExplodingAgent(), b.simulator, query, caps, b.abstraction, None, 100, 20
        )
        assert all(r.error and "boom" in r.error for r in results)

    @pytest.mark.parametrize("theta", [None, 2])
    def test_state_policy_matches_re_abstracting_reference(self, theta):
        def counted(calls, bundle):
            def abstraction(x):
                calls[0] += 1
                return bundle.abstraction(x)
            return abstraction

        visited = []
        for seed in range(3):
            b = vacuum_world(seed=seed)
            start = b.simulator.reset()
            caps = dict(b.ground_truth.capabilities)
            names = sorted(caps)
            reach = sorted(
                reachable_states(b.ground_truth, b.abstraction(start)), key=lambda s: s.bits
            )

            def pick(i, s):
                # A capability that can change the state, so runs visit many states.
                moving = [n for n in names if set(predict(b.ground_truth, s, n)) - {s}]
                return moving[(i + seed) % len(moving)]

            policy = StatePolicy.from_dict({s: pick(i, s) for i, s in enumerate(reach)})
            query = Query(start, policy, 12)
            got_calls, want_calls = [0], [0]
            got_b, want_b = vacuum_world(seed=seed), vacuum_world(seed=seed)
            got = execute_query(
                got_b.agent, got_b.simulator, query, caps, counted(got_calls, got_b), theta, 100, 20
            )
            want = _reference_execute_state_policy(
                want_b.agent, want_b.simulator, query, caps, counted(want_calls, want_b),
                theta, 100, 20,
            )
            assert got == want
            assert got_calls[0] < want_calls[0]
            visited.append(max(len({x for _, states in r.segments for x in states}) for r in got))
        assert min(visited) >= 5  # each query's runs pass through several states


def _reference_execute_state_policy(agent, simulator, query, capabilities, abstraction,
                                    theta, horizon, max_policy_steps):
    """`execute_query` for a state policy, abstracting the simulator's state before every step."""
    results = []
    for _ in range(query.n):
        simulator.revert(query.x0)
        segments, steps, error = [], 0, None
        for _ in range(max_policy_steps):
            cap = capabilities.get(query.policy.lookup(abstraction(simulator.current)))
            if cap is None:
                break
            try:
                states, env_steps = run_capability(
                    agent, simulator, cap.intent, abstraction, theta, horizon,
                    abstraction(simulator.current),
                )
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc}"
                break
            segments.append((cap.name, states))
            steps += env_steps
        results.append(
            RunResult(segments, simulator.current, abstraction(simulator.current), steps, error)
        )
    return results


def _reset_start(b):
    """The `(env state, distance, abstract state)` start triple of `b`'s reset state."""
    start = b.simulator.reset()
    return (start, 0, b.abstraction(start))


class TestSampleInitialState:
    def test_stale_outcomes_return_reset(self):
        b = vacuum_world(seed=1)
        start = b.simulator.reset()
        ds = TransitionDataset()
        chosen = sample_initial_state(
            [(start, 3, b.abstraction(start))], (start, 3, b.abstraction(start)), ds,
            _reset_start(b), 100, Random(0),
        )
        assert chosen == _reset_start(b)

    def test_far_outcomes_return_reset(self):
        b = vacuum_world(seed=1)
        start = b.simulator.reset()
        far = frozenset({"has(robot,vacuum)"})
        chosen = sample_initial_state(
            [(far, 500, b.abstraction(far))], (start, 490, b.abstraction(start)),
            ds := TransitionDataset(), _reset_start(b), 100, Random(0),
        )
        assert chosen == _reset_start(b)

    def test_inverse_visit_count_weights(self):
        b = vacuum_world(seed=1)
        u = b.universe
        s1 = frozenset({"has(robot,vacuum)"})
        s2 = frozenset({"has(robot,vacuum)", "at(charger,robot)"})
        ds = TransitionDataset()
        a2 = b.abstraction(s2)
        for _ in range(4):
            ds.add(Transition(a2, "c", a2), 1)
        # counts: s1 -> 0, s2 -> 4, reset -> 0; n_max = 4 gives weights
        # s1 -> 5, s2 -> 1, reset -> 5, i.e. probabilities 5/11, 1/11, 5/11
        start = b.simulator.reset()
        rng = Random("weights")
        counts = Counter()
        for _ in range(12_000):
            chosen, _, _ = sample_initial_state(
                [(s1, 1, b.abstraction(s1)), (s2, 1, a2)], (start, 0, b.abstraction(start)),
                ds, _reset_start(b), 100, rng,
            )
            counts[chosen] += 1
        assert counts[s1] / 12_000 == pytest.approx(5 / 11, abs=0.02)
        assert counts[s2] / 12_000 == pytest.approx(1 / 11, abs=0.02)

    def test_formula_on_two_candidates_without_reset_overlap(self):
        """Verify the (n_max + 1 - count) weighting: counts {0, 4} -> 5/6, 1/6."""
        b = vacuum_world(seed=1)
        s1 = frozenset({"has(robot,vacuum)"})
        s2 = frozenset({"has(robot,vacuum)", "at(charger,robot)"})
        ds = TransitionDataset()
        a2 = b.abstraction(s2)
        ds.add(Transition(a2, "c", a2), 4)
        reset_abs = b.abstraction(b.simulator.reset())
        ds.add(Transition(reset_abs, "c", reset_abs), 9)  # park reset at weight 0 share
        rng = Random("formula")
        counts = Counter()
        n = 20_000
        for _ in range(n):
            chosen, _, _ = sample_initial_state(
                [(s1, 1, b.abstraction(s1)), (s2, 1, a2)], (s1, 1, b.abstraction(s1)),
                ds, _reset_start(b), 100, rng,
            )
            counts[chosen] += 1
        # weights: s1 -> 10, s2 -> 6, reset -> 1 (n_max=9): check s1:s2 ratio 5:3
        ratio = counts[s1] / counts[s2]
        assert ratio == pytest.approx(10 / 6, rel=0.1)

    def test_returns_a_given_triple_and_leaves_the_simulator(self):
        b = vacuum_world(seed=1)
        reset = _reset_start(b)
        s1 = frozenset({"has(robot,vacuum)"})
        s2 = frozenset({"has(robot,vacuum)", "at(charger,robot)"})
        outcomes = [(s1, 1, b.abstraction(s1)), (s2, 2, b.abstraction(s2))]
        previous = (s1, 1, b.abstraction(s1))
        b.simulator.revert(s2)
        rng = Random("identity")
        picked = set()
        for _ in range(200):
            chosen = sample_initial_state(outcomes, previous, TransitionDataset(), reset, 100, rng)
            assert any(chosen is t for t in [*outcomes, previous, reset])
            picked.add(chosen[2])
        assert picked == {t[2] for t in [*outcomes, reset]}
        assert sample_initial_state([], previous, TransitionDataset(), reset, 100, rng) is reset
        assert b.simulator.current == s2


class TestRun:
    def _config(self, **kw):
        base = dict(
            variant="exact",
            mcts_iterations=60,
            depth=4,
            max_queries=8,
            runs_per_query=10,
            seed=5,
        )
        base.update(kw)
        return LearnerConfig(**base)

    def test_zero_query_budget_gives_bootstrap_model(self):
        b = vacuum_world(seed="5/env")
        model, log = run(self._config(max_queries=0), b)
        assert log.records == []
        assert all(cap.rules == () for cap in model.capabilities.values())
        assert model.capabilities  # discovery itself ran

    def test_outcome_states_are_their_env_states_abstracted(self, monkeypatch):
        """An attempt that moves the simulator and then raises still hands the
        next-start sampler the abstraction of the env state the run ended in."""
        b = vacuum_world(seed="5/env")
        agent, attempts = b.agent, [0]

        class MovingFlakyAgent:
            def attempt(self, intent, simulator, start, horizon):
                attempts[0] += 1
                traj = agent.attempt(intent, simulator, start, horizon)
                if attempts[0] % 7 == 0 and len(traj) > 1:
                    raise RuntimeError("moved, then failed")
                return traj

        b.agent = MovingFlakyAgent()
        sample = learner_module.sample_initial_state
        checked = []

        def checked_sample(outcomes, previous_initial, *args):
            for env_state, _, state in [*outcomes, previous_initial]:
                assert state == b.abstraction(env_state)
            checked.append(len(outcomes))
            return sample(outcomes, previous_initial, *args)

        monkeypatch.setattr(learner_module, "sample_initial_state", checked_sample)
        _, log = run(self._config(), b)
        assert sum(r.failures for r in log.records) > 0
        assert len(checked) == len(log.records)

    def test_run_end_is_the_final_state_abstracted(self, monkeypatch):
        """`RunResult.end` is the abstraction of the env state each run ended in,
        including runs whose agent moved the simulator and then raised."""
        b = vacuum_world(seed="5/env")
        agent, attempts = b.agent, [0]

        class MovingFlakyAgent:
            def attempt(self, intent, simulator, start, horizon):
                attempts[0] += 1
                traj = agent.attempt(intent, simulator, start, horizon)
                if attempts[0] % 5 == 0 and len(traj) > 1:
                    raise RuntimeError("moved, then failed")
                return traj

        b.agent = MovingFlakyAgent()
        execute = learner_module.execute_query
        moved_failures = [0]

        def checked_execute(agent, simulator, query, *args):
            results = execute(agent, simulator, query, *args)
            for res in results:
                assert res.end == b.abstraction(res.final_state)
                moved_failures[0] += res.error is not None and res.final_state != query.x0
            return results

        monkeypatch.setattr(learner_module, "execute_query", checked_execute)
        run(self._config(), b)
        assert moved_failures[0] > 0

    def test_unique_transitions_monotone(self):
        b = vacuum_world(seed="5/env")
        _, log = run(self._config(), b)
        uniques = [r.unique_transitions for r in log.records]
        assert uniques == sorted(uniques)

    def test_full_run_determinism(self):
        cfg1 = self._config()
        cfg2 = self._config()
        m1, log1 = run(cfg1, vacuum_world(seed="5/env"))
        m2, log2 = run(cfg2, vacuum_world(seed="5/env"))
        assert model_to_json(m1) == model_to_json(m2)
        assert [r.unique_transitions for r in log1.records] == [
            r.unique_transitions for r in log2.records
        ]
        assert [r.novel for r in log1.records] == [r.novel for r in log2.records]

    def test_encode_memo_leaves_model_unchanged(self):
        cached = vacuum_world(seed="5/env")
        uncached = vacuum_world(seed="5/env")
        uncached.abstraction = lambda x: uncached.universe.encode(list(x))
        m1, _ = run(self._config(), cached)
        m2, _ = run(self._config(), uncached)
        assert model_to_json(m1) == model_to_json(m2)

    def test_models_stay_sound_and_complete_after_every_rebuild(self):
        b = vacuum_world(seed="9/env")
        checked = [0]

        def hook(idx, model, log, dataset):
            for t in dataset.counts:
                assert entails(model, t), "completeness after rebuild"
            for name in model.capabilities:
                for s in dataset.observed_states(name):
                    for s2 in entailed_successors(model, s, name):
                        assert Transition(s, name, s2) in dataset.counts, "soundness"
            checked[0] += 1

        cfg = self._config(seed=9, max_queries=6)
        run(cfg, b, checkpoint_hook=hook)
        assert checked[0] == 6

    def test_run_writes_artifacts(self, tmp_path):
        b = vacuum_world(seed="5/env")
        model, log = run(self._config(max_queries=3), b, out_dir=tmp_path)
        assert (tmp_path / "final_model.json").is_file()
        assert (tmp_path / "final_model.txt").is_file()
        assert (tmp_path / "dataset.jsonl").is_file()
        assert (tmp_path / "runlog.jsonl").is_file()
        assert not (tmp_path / "last_query.json").exists()
        snapshots = sorted((tmp_path / "snapshots").glob("query_*.json"))
        assert len(snapshots) == 3
        lines = (tmp_path / "runlog.jsonl").read_text().splitlines()
        assert len(lines) == 4  # three query records plus the closing summary
        assert json.loads(lines[0])["index"] == 0

    def test_interrupted_run_keeps_every_record_in_the_runlog(self, tmp_path):
        b = vacuum_world(seed="5/env")
        seen = []

        def hook(idx, model, log, dataset):
            seen.append(json.dumps(asdict(log.records[-1]), sort_keys=True))
            if idx == 3:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            run(self._config(), b, out_dir=tmp_path, checkpoint_hook=hook)
        lines = (tmp_path / "runlog.jsonl").read_text().splitlines()
        assert len(lines) == 4  # queries 0-3, and no closing summary
        assert lines == seen
        assert all("index" in json.loads(line) for line in lines)

    def test_rerun_truncates_the_runlog(self, tmp_path):
        run(self._config(max_queries=3), vacuum_world(seed="5/env"), out_dir=tmp_path)
        run(self._config(max_queries=2), vacuum_world(seed="5/env"), out_dir=tmp_path)
        lines = (tmp_path / "runlog.jsonl").read_text().splitlines()
        assert [json.loads(line).get("index") for line in lines] == [0, 1, None]

    def test_snapshots_compact_final_model_indented(self, tmp_path):
        b = vacuum_world(seed="5/env")
        run(self._config(max_queries=3), b, out_dir=tmp_path)
        last = (tmp_path / "snapshots" / "query_0002.json").read_text()
        final = (tmp_path / "final_model.json").read_text()
        assert last.endswith("}\n") and "\n" not in last[:-1]
        assert model_to_json(load_model(tmp_path / "snapshots" / "query_0002.json")) == final
        assert final.startswith("{\n  ")

    @pytest.mark.parametrize("variant", ["exact", "sampled", "random"])
    def test_runlog_records_source_and_phases(self, tmp_path, variant):
        b = vacuum_world(seed="5/env")
        _, log = run(self._config(variant=variant), b, out_dir=tmp_path)
        lines = (tmp_path / "runlog.jsonl").read_text().splitlines()[:-1]
        records = [json.loads(line) for line in lines]
        assert records == [json.loads(json.dumps(asdict(r))) for r in log.records]
        for rec in records:
            assert sorted(rec["phases"]) == sorted(PHASES)
            assert all(t >= 0.0 for t in rec["phases"].values())
            if variant == "random":
                assert (rec["source"], rec["score"]) == ("random", None)
            else:
                assert rec["source"] == ("synthesized" if rec["score"] > 0.0 else "fallback")
            kind = "state" if rec["source"] == "synthesized" else "sequence"
            assert rec["policy"]["kind"] == kind
        if variant != "random":
            assert {r["source"] for r in records} == {"synthesized", "fallback"}

    def test_empty_agent_trajectory_counts_as_failure(self):
        b = vacuum_world(seed="5/env")
        inner = b.agent
        calls = [0]

        class EverySeventhEmpty:
            def attempt(self, intent, simulator, start, horizon):
                calls[0] += 1
                if calls[0] % 7 == 0:
                    return []
                return inner.attempt(intent, simulator, start, horizon)

        b.agent = EverySeventhEmpty()
        _, log = run(self._config(max_queries=3), b)
        assert len(log.records) == 3
        assert sum(r.failures for r in log.records) > 0

    def test_early_stop_fires(self):
        b = vacuum_world(seed="5/env")
        cfg = self._config()
        cfg.max_queries = None
        cfg.early_stop_window = 5
        model, log = run(cfg, b)
        assert log.stop_reason == "early_stop"
        assert all(r.novel == 0 for r in log.records[-5:])
        # It stops at the first query whose trailing window holds nothing new.
        assert len(log.records) == 5 or log.records[-6].novel > 0

    def test_converged_run_is_equivalent_to_ground_truth(self):
        from caplearn.evaluation import reachable_states
        from caplearn.model import CapabilityModel, equivalent

        b = vacuum_world(seed="3/env")
        cfg = LearnerConfig(
            variant="exact", mcts_iterations=120, depth=6, max_queries=200, seed=3
        )
        model, log = run(cfg, b)
        assert log.stop_reason == "early_stop"
        start = b.abstraction(b.simulator.reset())
        reach = sorted(reachable_states(b.ground_truth, start), key=lambda s: s.bits)
        # project onto the declared capability set: the learner also models
        # discovered-but-unachievable intents (as no-ops), which the ground
        # truth does not enumerate
        projected = CapabilityModel(
            model.universe,
            {n: c for n, c in model.capabilities.items() if n in b.ground_truth.capabilities},
            model.flavor,
        )
        assert equivalent(projected, b.ground_truth, reach)


class TestIncrementalRefit:
    """The loop's refit keeps unchanged capabilities and equals a full rebuild."""

    @pytest.mark.parametrize(
        "env,variant",
        [("roads", "exact"), ("roads", "sampled"), ("roads", "random"), ("blocks", "exact")],
    )
    def test_pair_equals_from_scratch_build_after_every_query(self, monkeypatch, env, variant):
        rebuilt_counts = []

        def checked_build(capabilities, dataset, universe, previous=None):
            capabilities = list(capabilities)
            pair = build_models(capabilities, dataset, universe, previous)
            scratch = build_models(capabilities, dataset, universe)
            for got, want in zip(pair, scratch):
                assert got.capabilities == want.capabilities
                assert model_to_json(got, indent=None) == model_to_json(want, indent=None)
                for name, cap in got.capabilities.items():
                    # Memo entries carried over from earlier queries.
                    for s, dist in cap.memo.predictions.items():
                        assert dist == predict(want, s, name)
            kept = {} if previous is None else previous[0].capabilities
            rebuilt_counts.append(
                sum(cap is not kept.get(name) for name, cap in pair[0].capabilities.items())
            )
            return pair

        held = []
        coverage = []

        def hook(index, m_pess, log, dataset):
            held.append((m_pess, model_to_json(m_pess, indent=None)))
            coverage.append(len({t.s for t in dataset.counts}))

        monkeypatch.setattr(learner_module, "build_models", checked_build)
        config = LearnerConfig(
            variant=variant, mcts_iterations=60, depth=4, max_queries=80, seed=1
        )
        model, log = run(config, make_environment(env, seed="1/env"), checkpoint_hook=hook)
        assert len(log.records) == 80
        assert [r.rebuilt for r in log.records] == rebuilt_counts[1:]
        assert [r.observed_states for r in log.records] == coverage
        # Most capabilities are carried over on most queries.
        assert sum(rebuilt_counts[1:]) < len(model.capabilities) * len(log.records) / 2
        # Models held from earlier queries still serialize as they did then.
        for m_pess, text in held:
            assert model_to_json(m_pess, indent=None) == text

    def test_runlog_carries_refit_and_coverage_fields(self, tmp_path):
        b = vacuum_world(seed="5/env")
        run(LearnerConfig(variant="exact", mcts_iterations=60, depth=4, max_queries=6, seed=5),
            b, out_dir=tmp_path)
        records = [json.loads(line) for line in (tmp_path / "runlog.jsonl").read_text().splitlines()[:-1]]
        assert len(records) == 6
        for rec in records:
            assert isinstance(rec["rebuilt"], int) and rec["rebuilt"] >= 0
            assert isinstance(rec["observed_states"], int) and rec["observed_states"] >= 1
        states = [r["observed_states"] for r in records]
        assert states == sorted(states)
