import hashlib
from bisect import bisect_right
from collections import Counter
from random import Random

import pytest

from caplearn.abstraction import ConfigurationError, literal_string, parse_literal
from caplearn.dataset import Transition
from caplearn.envs import (
    ActionDef,
    ActionOutcome,
    AtomSimulator,
    TableAgent,
    make_environment,
    road_world,
    stochastic_blocks,
    vacuum_world,
)
from caplearn.envs.base import clause, dnf
from caplearn.distributions import cumulative
from caplearn.envs.roads import EDGES, LOCATIONS
from caplearn.evaluation import reachable_states
from caplearn.model import capability_name, entails, model_to_json, predict


def _attempt_outcomes(bundle, intent_text, start_atoms, runs, horizon=100):
    intent = parse_literal(intent_text, bundle.universe)
    start = frozenset(start_atoms)
    counts = Counter()
    for _ in range(runs):
        bundle.simulator.revert(start)
        traj = bundle.agent.attempt(intent, bundle.simulator, start, horizon)
        counts[bundle.abstraction(traj[-1])] += 1
    return counts


class TestVacuum:
    def test_clean_outcome_frequencies(self):
        b = vacuum_world(seed="freq")
        counts = _attempt_outcomes(
            b, "clean(l1)", {"has(robot,vacuum)", "charged(robot)"}, 10_000
        )
        freqs = sorted((n / 10_000 for n in counts.values()), reverse=True)
        assert len(freqs) == 3
        assert abs(freqs[0] - 0.50) <= 0.02
        assert abs(freqs[1] - 0.25) <= 0.02
        assert abs(freqs[2] - 0.25) <= 0.02

    def test_condition_violated_no_abstract_change(self):
        b = vacuum_world(seed=1)
        start = frozenset({"charged(robot)"})  # no vacuum in hand
        b.simulator.revert(start)
        intent = parse_literal("clean(l1)", b.universe)
        traj = b.agent.attempt(intent, b.simulator, start, 100)
        assert {b.abstraction(x) for x in traj} == {b.abstraction(start)}

    def test_charge_succeeds_deterministically_from_dock(self):
        b = vacuum_world(seed=2)
        counts = _attempt_outcomes(b, "charged(robot)", {"at(charger,robot)"}, 50)
        [(outcome, n)] = counts.items()
        assert n == 50
        assert outcome == b.universe.encode(["at(charger,robot)", "charged(robot)"])

    def test_exact_five_atom_universe(self):
        b = vacuum_world(seed=0)
        assert {str(a) for a in b.universe.atoms} == {
            "charged(robot)",
            "at(charger,robot)",
            "has(robot,vacuum)",
            "clean(l1)",
            "clean(l2)",
        }


class TestRoads:
    def test_flat_frequency_on_first_edge(self):
        b = road_world(seed="flats")
        counts = _attempt_outcomes(b, "at(l2)", {"at(l1)"} | {f"spare_at({l})" for l in ("l2", "l5")}, 10_000)
        flat = sum(n for s, n in counts.items() if "flat(tire)" in b.universe.atom_names(s))
        assert abs(flat / 10_000 - 0.80) <= 0.02

    def test_non_edge_is_constant(self):
        b = road_world(seed=1)
        start = b.simulator.reset()
        intent = parse_literal("at(l5)", b.universe)  # no edge l1 -> l5
        traj = b.agent.attempt(intent, b.simulator, start, 100)
        assert traj == [start]

    def test_reachability_matches_transitive_closure(self):
        b = road_world(seed=3)
        closure = {l: {l} for l in LOCATIONS}
        changed = True
        while changed:
            changed = False
            for src, dst in EDGES:
                for l in LOCATIONS:
                    if src in closure[l] and dst not in closure[l]:
                        closure[l].add(dst)
                        changed = True

        from caplearn.evaluation import reachable_states

        for loc in LOCATIONS:
            start = b.universe.encode(
                [f"at({loc})"] + [f"spare_at({l})" for l in ("l2", "l5")]
            )
            seen = reachable_states(b.ground_truth, start)
            seen_locs = {
                name[3:-1]
                for s in seen
                for name in b.universe.atom_names(s)
                if name.startswith("at(")
            }
            assert seen_locs == closure[loc], loc

    def test_l1_unreachable_from_elsewhere(self):
        b = road_world(seed=3)
        assert "achieve__at(l1)" not in b.ground_truth.capabilities


class TestBlocks:
    def test_zero_slip_is_deterministic(self):
        b = stochastic_blocks(3, slip=0.0, seed=1)
        start = frozenset({"holding(b1)", "clear(b2)", "ontable(b2)", "ontable(b3)", "clear(b3)"})
        counts = _attempt_outcomes(b, "on(b1,b2)", start, 200)
        [(outcome, n)] = counts.items()
        assert n == 200
        assert "on(b1,b2)" in b.universe.atom_names(outcome)

    def test_default_slip_frequency(self):
        b = stochastic_blocks(3, seed="slips")
        start = frozenset({"holding(b1)", "clear(b2)", "ontable(b2)", "ontable(b3)", "clear(b3)"})
        counts = _attempt_outcomes(b, "on(b1,b2)", start, 10_000)
        stacked = sum(
            n for s, n in counts.items() if "on(b1,b2)" in b.universe.atom_names(s)
        )
        assert abs(stacked / 10_000 - 0.75) <= 0.02

    def test_pick_blocked_by_cover(self):
        b = stochastic_blocks(3, seed=2)
        start = frozenset(
            {"on(b2,b1)", "clear(b2)", "ontable(b1)", "ontable(b3)", "clear(b3)"}
        )
        b.simulator.revert(start)
        intent = parse_literal("holding(b1)", b.universe)
        traj = b.agent.attempt(intent, b.simulator, start, 100)
        assert traj == [start]

    def test_block_count_bounds(self):
        with pytest.raises(ConfigurationError):
            stochastic_blocks(2)
        with pytest.raises(ConfigurationError):
            stochastic_blocks(6)


class TestContracts:
    @pytest.mark.parametrize("name", ["vacuum", "roads", "blocks"])
    def test_seeded_determinism(self, name):
        def trajectory(bundle):
            rng = Random("drive")
            sim = bundle.simulator
            out = [sim.reset()]
            for _ in range(60):
                actions = sim.available_actions()
                if not actions:
                    break
                out.append(sim.step(rng.choice(sorted(actions))))
            return out

        t1 = trajectory(make_environment(name, seed=99))
        t2 = trajectory(make_environment(name, seed=99))
        assert t1 == t2

    @pytest.mark.parametrize("name", ["vacuum", "roads", "blocks"])
    def test_revert_with_rng_snapshot_reproduces_suffix(self, name):
        b = make_environment(name, seed=7)
        sim = b.simulator
        rng = Random("suffix")
        sim.reset()
        prefix_actions = []
        for _ in range(5):
            actions = sim.available_actions()
            if not actions:
                break
            a = rng.choice(sorted(actions))
            prefix_actions.append(a)
            sim.step(a)
        mid_state = sim.current
        mid_rng = sim.rng_state()
        suffix = []
        replay_actions = []
        for _ in range(20):
            actions = sim.available_actions()
            if not actions:
                break
            a = sorted(actions)[0]
            replay_actions.append(a)
            suffix.append(sim.step(a))
        sim.revert(mid_state)
        sim.set_rng_state(mid_rng)
        again = [sim.step(a) for a in replay_actions]
        assert again == suffix

    @pytest.mark.parametrize(
        "name,params",
        [
            ("vacuum", {}),
            ("roads", {}),
            ("blocks", {"n_blocks": 3}),
            ("blocks", {"n_blocks": 4}),
            ("blocks", {"n_blocks": 5}),
        ],
    )
    def test_ground_truth_consistency(self, name, params):
        """10,000 sampled agent transitions per pair all entailed by its truth."""
        b = make_environment(name, seed="consistency", **params)
        truth = b.ground_truth
        caps = sorted(truth.capabilities)
        rng = Random("consistency-drive")
        start = b.abstraction(b.simulator.reset())
        reach = sorted(reachable_states(truth, start), key=lambda s: s.bits)
        decoded = {s: frozenset(b.universe.atom_names(s)) for s in reach}
        for _ in range(10_000):
            s = rng.choice(reach)
            cap = rng.choice(caps)
            atoms = decoded[s]
            b.simulator.revert(atoms)
            intent = truth.capabilities[cap].intent
            traj = b.agent.attempt(intent, b.simulator, atoms, 100)
            t = Transition(s, cap, b.abstraction(traj[-1]))
            assert entails(truth, t), (b.universe.atom_names(s), cap)

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            make_environment("minigrid")


# sha256 over `repr((s.bits, c, sorted((s2.bits, p), ...)))` for every state
# (vacuum, roads) or every state reachable from reset (blocks) and every
# capability in name order, and of each truth's `model_to_json`. Recorded from
# the hand-written truths the derived ones replaced; vacuum's JSON is not
# pinned because its `has`, `at` and `!at` rules changed shape (not meaning).
TRUTH_DIGESTS = {
    "vacuum": (
        "vacuum", {}, 192,
        "80f5338af8b83a55fe265959e5074ec628a71531b6b35f742647d68c72283f0a",
        None,
    ),
    "roads": (
        "roads", {}, 114_688,
        "0d8400d0e13218359f31899429f4d1ef11229d6b5d137bb702272b80a8b3c928",
        "9ecd7e897d79354e2511e129a7b598d8e541780bc6b8dfd5a5965d09030bca49",
    ),
    "blocks-3-0.25": (
        "blocks", {"n_blocks": 3, "slip": 0.25}, 264,
        "d59c9a708a59e31a66f6cad5e7b59f260481ea386c9378b5cb568e4fbc624876",
        "f2339932e0089c1f205c2da995043c9f23d0deba0ec0b607121ab394809a0924",
    ),
    "blocks-4-0.0": (
        "blocks", {"n_blocks": 4, "slip": 0.0}, 2_500,
        "5b64bd4ba6f256187da5c4f4da82c7697e2be290d38f36a94875695d1566498f",
        "5e81c39b20773f8e533063118b353224aa53be56de0d3108ca46e79331ff3172",
    ),
    "blocks-5-0.5": (
        "blocks", {"n_blocks": 5, "slip": 0.5}, 25_980,
        "0afbdebe90b7b638387c354e0f059181ac7a6c5ce8988710a15627cd2d15f708",
        "5857584417732b190e67f05f15608b05980978e661e88e1f549235d34b37dc6a",
    ),
}


def _attempt_distribution(bundle, agent, intent, atoms):
    """What `agent.attempt` does from `atoms`, as an exact successor distribution."""
    u = bundle.universe
    s = u.encode(atoms)
    if not intent.satisfied_by(s.bits):
        for name in agent.table.get(literal_string(intent, u), ()):
            if bundle.simulator.applicable(name, atoms):
                dist = {}
                for o in bundle.simulator.actions[name].outcomes:
                    s2 = u.encode(atoms - o.delete | o.add)
                    dist[s2] = dist.get(s2, 0.0) + o.prob
                return dist
    return {s: 1.0}


class TestDerivedGroundTruth:
    @pytest.mark.parametrize("variant", sorted(TRUTH_DIGESTS))
    def test_truth_semantics_pinned(self, variant):
        name, params, pairs, predict_digest, json_digest = TRUTH_DIGESTS[variant]
        b = make_environment(name, seed=0, **params)
        truth = b.ground_truth
        if name == "blocks":
            start = b.abstraction(b.simulator.reset())
            states = sorted(reachable_states(truth, start), key=lambda s: s.bits)
        else:
            states = list(b.universe.all_states())
        h = hashlib.sha256()
        n = 0
        for s in states:
            for c in sorted(truth.capabilities):
                dist = predict(truth, s, c)
                h.update(repr((s.bits, c, sorted((s2.bits, p) for s2, p in dist.items()))).encode())
                n += 1
        assert (n, h.hexdigest()) == (pairs, predict_digest)
        if json_digest is not None:
            assert hashlib.sha256(model_to_json(truth).encode()).hexdigest() == json_digest

    @pytest.mark.parametrize(
        "table",
        [
            None,
            # Overlapping candidates: the first applicable one must win.
            {"charged(robot)": ("dock", "dock_and_charge"), "clean(l1)": ("clean_l2", "clean_l1")},
            # A negative intent, and a candidate that does not serve its intent.
            {"!charged(robot)": ("undock", "drain"), "!clean(l1)": ("grab",)},
            {"has(robot,vacuum)": ()},
        ],
    )
    def test_truth_matches_attempt_on_every_state(self, table):
        b = vacuum_world(seed=0)
        agent = b.agent if table is None else TableAgent(b.universe, table)
        truth = agent.ground_truth(b.simulator.actions)
        assert len(truth.capabilities) == len(agent.table)
        for s in b.universe.all_states():
            atoms = frozenset(b.universe.atom_names(s))
            for cap in truth.capabilities.values():
                expected = _attempt_distribution(b, agent, cap.intent, atoms)
                assert predict(truth, s, cap.name) == expected, (atoms, cap.name)

    @pytest.mark.parametrize(
        "key", ["clean(l1) & clean(l2)", "!charged(robot) & clean(l1)", "true", " clean(l1)"]
    )
    def test_table_key_must_be_one_literal(self, key):
        b = vacuum_world(seed=0)
        agent = TableAgent(b.universe, {key: ("clean_l1",)})
        with pytest.raises(ConfigurationError, match="not one literal"):
            agent.ground_truth(b.simulator.actions)

    def test_negated_precondition_rejected(self):
        b = vacuum_world(seed=0)
        u = b.universe
        grab = ActionDef(
            "grab",
            dnf(u, [clause(u, pos=["has(robot,vacuum)"])], negated=True),
            (ActionOutcome(1.0, frozenset({"has(robot,vacuum)"}), frozenset()),),
        )
        agent = TableAgent(u, {"has(robot,vacuum)": ("grab",)})
        with pytest.raises(ConfigurationError, match="negated precondition"):
            agent.ground_truth({"grab": grab})

    def test_outcomes_sharing_an_edit_merge(self):
        """Two 0.5 outcomes with one edit derive one effect of probability 1.0."""
        b = vacuum_world(seed=0)
        u = b.universe
        has = "has(robot,vacuum)"
        edit = (frozenset({has}), frozenset())
        grab = ActionDef(
            "grab",
            dnf(u, [clause(u, neg=[has])]),
            (ActionOutcome(0.5, *edit), ActionOutcome(0.5, *edit)),
        )
        actions = dict(b.simulator.actions, grab=grab)
        sim = AtomSimulator(u, b.simulator.reset(), tuple(actions.values()), seed=0)
        truth = b.agent.ground_truth(sim.actions)
        cap_has = capability_name(parse_literal(has, u), u)
        for s in u.all_states():
            atoms = frozenset(u.atom_names(s))
            if has not in atoms:
                assert predict(truth, s, cap_has) == {u.encode(atoms | {has}): 1.0}
            for cap in truth.capabilities.values():
                sim.revert(atoms)
                traj = b.agent.attempt(cap.intent, sim, atoms, 100)
                assert entails(truth, Transition(s, cap.name, u.encode(traj[-1]))), (atoms, cap.name)


def _reachable_env_states(sim):
    """Every env state reachable from reset, by the uncached precondition test."""
    u = sim.universe
    seen = {sim.reset()}
    frontier = list(seen)
    while frontier:
        atoms = frontier.pop()
        for adef in sim.actions.values():
            if adef.precondition.accepts_bits(u.encode(atoms).bits):
                for o in adef.outcomes:
                    nxt = frozenset(atoms - o.delete | o.add)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen, key=lambda atoms: u.encode(atoms).bits)


def _uncached_step(sim, atoms, action, rng):
    """What `step(action)` from `atoms` yields, drawing from `rng`, computed afresh."""
    adef = sim.actions[action]
    if not adef.precondition.accepts_bits(sim.universe.encode(atoms).bits):
        return atoms
    cum = cumulative(o.prob for o in adef.outcomes)
    chosen = adef.outcomes[bisect_right(cum, rng.random())]
    return frozenset(atoms - chosen.delete | chosen.add)


def _uncached_attempt(agent, intent, sim, start, horizon, rng):
    """`TableAgent.attempt` computed afresh, its step drawing from `rng`."""
    u = agent.universe
    traj = [start]
    if intent.satisfied_by(u.encode(start).bits) or horizon < 1:
        return traj
    for action in agent.table.get(literal_string(intent, u), ()):
        if sim.actions[action].precondition.accepts_bits(u.encode(start).bits):
            traj.append(_uncached_step(sim, start, action, rng))
            break
    return traj


_WORLDS = {"vacuum": vacuum_world, "roads": road_world, "blocks": stochastic_blocks}


class TestSimulatorAndAgentMemos:
    @pytest.mark.parametrize("world", sorted(_WORLDS))
    def test_applicable_and_step_match_uncached(self, world):
        sim = _WORLDS[world](seed=world).simulator
        states = _reachable_env_states(sim)
        assert len(states) > 5
        rng = Random(world)
        for visit in range(2):  # the second visit of each pair reads the memo
            for atoms in states:
                bits = sim.universe.encode(atoms).bits
                want_actions = [n for n, a in sim.actions.items() if a.precondition.accepts_bits(bits)]
                assert sim.available_actions(atoms) == want_actions
                for action in sim.actions:
                    precondition = sim.actions[action].precondition
                    want = precondition.accepts_bits(sim.universe.encode(atoms).bits)
                    assert sim.applicable(action, atoms) is want
                    sim.revert(atoms)
                    assert sim.applicable(action) is want
                    before = Random(rng.random()).getstate()
                    sim.set_rng_state(before)
                    ref = Random()
                    ref.setstate(before)
                    got = sim.step(action)
                    assert got == _uncached_step(sim, atoms, action, ref)
                    assert sim.current is got
                    assert sim.rng_state() == ref.getstate()

    @pytest.mark.parametrize("world", sorted(_WORLDS))
    def test_attempt_matches_uncached_agent(self, world):
        b = _WORLDS[world](seed=world)
        sim, agent = b.simulator, b.agent
        intents = [parse_literal(key, b.universe) for key in sorted(agent.table)]
        states = _reachable_env_states(sim)
        rng = Random(world)
        for visit in range(2):
            for i, atoms in enumerate(states):
                for intent in intents:
                    # Start away from `atoms` half the time, so `attempt` must revert.
                    sim.revert(states[i - 1] if rng.random() < 0.5 else atoms)
                    start = frozenset(set(atoms)) if visit else atoms
                    before = Random(rng.random()).getstate()
                    sim.set_rng_state(before)
                    ref = Random()
                    ref.setstate(before)
                    traj = agent.attempt(intent, sim, start, 100)
                    assert traj == _uncached_attempt(agent, intent, sim, start, 100, ref)
                    assert traj[0] is start
                    assert sim.current == traj[-1]
                    assert sim.rng_state() == ref.getstate()
                    assert agent.attempt(intent, sim, start, 0) == [start]

    def test_one_agent_keeps_each_simulators_choices(self):
        b = vacuum_world(seed=0)
        u, agent = b.universe, b.agent
        grab = b.simulator.actions["grab"]
        never = ActionDef("grab", dnf(u, []), grab.outcomes)
        always = ActionDef("grab", dnf(u, [clause(u)]), grab.outcomes)
        others = [a for name, a in b.simulator.actions.items() if name != "grab"]
        reset = b.simulator.reset()
        sims = [b.simulator, AtomSimulator(u, reset, [never, *others]), AtomSimulator(u, reset, [always, *others])]
        intent = parse_literal("has(robot,vacuum)", u)
        for atoms in _reachable_env_states(b.simulator) * 2:
            for sim in sims:
                ref = Random()
                ref.setstate(sim.rng_state())
                traj = agent.attempt(intent, sim, atoms, 100)
                assert traj == _uncached_attempt(agent, intent, sim, atoms, 100, ref)
                assert sim.rng_state() == ref.getstate()
