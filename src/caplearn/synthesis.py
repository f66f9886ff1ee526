"""Distinguishing-query synthesis via MCTS over paired model predictions.

Two synthesizers solve the same planning problem: find a capability policy
whose predicted outcome distributions diverge between the pessimistic and
optimistic models.

- `synthesize_exact` searches over nodes holding exact distribution pairs and
  scores them with total-variation distance.
- `synthesize_sampled` searches over single sampled states and scores with an
  indicator for landing in the symmetric difference of the two models'
  one-step successor supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Mapping, Sequence

from .abstraction import AbstractState, AtomUniverse, satisfies
from .distributions import StateDistribution, draw, push_distribution, tv_distance
from .model import CapabilityModel, predict


def uct_score(q: float, log_n_parent: float, n_edge: int, kappa: float) -> float:
    """UCT score given log N(parent); an unvisited edge ranks above every visited one."""
    if n_edge == 0:
        return math.inf
    return q + kappa * math.sqrt(log_n_parent / n_edge)


@dataclass(frozen=True)
class StatePolicy:
    """Partial policy: abstract state -> capability name."""

    mapping: tuple[tuple[AbstractState, str], ...]

    @cached_property
    def _table(self) -> dict[AbstractState, str]:
        return dict(self.mapping)

    def lookup(self, state: AbstractState) -> str | None:
        return self._table.get(state)

    @classmethod
    def from_dict(cls, d: Mapping[AbstractState, str]) -> "StatePolicy":
        return cls(tuple(sorted(d.items(), key=lambda kv: kv[0].bits)))


@dataclass(frozen=True)
class SequencePolicy:
    """Policy that ignores the state and follows a fixed capability sequence."""

    sequence: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    """Initial environment state, partial policy, and repetition count."""

    x0: object
    policy: StatePolicy | SequencePolicy
    n: int


@dataclass(frozen=True)
class SynthesisResult:
    policy: StatePolicy
    score: float


def policy_to_json(policy: StatePolicy | SequencePolicy, universe: AtomUniverse) -> dict:
    if isinstance(policy, SequencePolicy):
        return {"kind": "sequence", "sequence": list(policy.sequence)}
    return {
        "kind": "state",
        "mapping": [
            {"state": universe.atom_names(s), "capability": c}
            for s, c in policy.mapping
        ],
    }


def random_policy_query(
    x0: object, capabilities: Sequence[str], length: int, n: int, rng: Random
) -> Query:
    """Uniform capability sequence of the given length, wrapped as a query."""
    caps = sorted(capabilities)
    if not caps:
        raise ValueError("capability set is empty")
    seq = tuple(rng.choice(caps) for _ in range(length))
    return Query(x0, SequencePolicy(seq), n)


# -- exact variant: compact distribution pairs -------------------------------


class _DistNode:
    __slots__ = ("dist_p", "dist_o", "reward", "children", "untried", "n", "n_edge", "q", "value")

    def __init__(self, dist_p: StateDistribution, dist_o: StateDistribution, caps: Sequence[str]) -> None:
        self.dist_p = dist_p
        self.dist_o = dist_o
        self.reward = tv_distance(dist_p, dist_o)
        self.children: dict[str, _DistNode] = {}
        self.untried: list[str] = list(caps)
        self.n = 0
        self.n_edge: dict[str, int] = {}
        self.q: dict[str, float] = {}
        self.value = self.reward


def synthesize_exact(
    s0: AbstractState,
    m_pess: CapabilityModel,
    m_opt: CapabilityModel,
    iterations: int,
    kappa: float,
    depth: int,
    rng: Random,
    rollouts: int = 3,
    expand_per_visit: int = 3,
) -> SynthesisResult:
    """MCTS over exact distribution pairs, rewarded by total-variation distance.

    Newly generated children whose support pair duplicates an existing node's
    are pruned (the capability is dropped at that node), which also removes
    no-op self edges. Values back up as node reward plus best child value,
    undiscounted.
    """
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    if not caps or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)
    root = _DistNode(StateDistribution.point(s0), StateDistribution.point(s0), caps)
    seen_supports = {(root.dist_p.support(), root.dist_o.support())}

    def rollout_value(node: _DistNode, used_depth: int) -> float:
        total = 0.0
        for _ in range(rollouts):
            ret = node.reward
            dp, do = node.dist_p, node.dist_o
            for _ in range(depth - used_depth):
                cap = rng.choice(caps)
                dp = push_distribution(dp, m_pess, cap)
                do = push_distribution(do, m_opt, cap)
                ret += tv_distance(dp, do)
            total += ret
        return total / rollouts

    for _ in range(iterations):
        node = root
        path: list[tuple[_DistNode, str, _DistNode]] = []
        fresh = None
        while len(path) < depth:
            for _ in range(expand_per_visit):
                if not node.untried:
                    break
                cap = node.untried.pop(0)
                child_p = push_distribution(node.dist_p, m_pess, cap)
                child_o = push_distribution(node.dist_o, m_opt, cap)
                key = (child_p.support(), child_o.support())
                if key in seen_supports:
                    continue
                seen_supports.add(key)
                node.children[cap] = _DistNode(child_p, child_o, caps)
                node.n_edge[cap] = 0
            if not node.children:
                break
            best_cap = None
            best = -math.inf
            log_n = math.log(max(node.n, 1))
            for cap in node.children:
                score = uct_score(node.q.get(cap, 0.0), log_n, node.n_edge[cap], kappa)
                if score > best:
                    best, best_cap = score, cap
            child = node.children[best_cap]
            path.append((node, best_cap, child))
            if node.n_edge[best_cap] == 0:
                fresh = child
                break
            node = child
        if fresh is not None:
            fresh.value = rollout_value(fresh, len(path))
        for parent, cap, child in reversed(path):
            parent.n += 1
            parent.n_edge[cap] += 1
            parent.q[cap] = parent.reward + child.value
            parent.value = max(parent.q.values())

    score = root.value if root.q else 0.0
    mapping: dict[AbstractState, str] = {}
    node = root
    for _ in range(depth):
        visited = {c: q for c, q in node.q.items() if node.n_edge.get(c, 0) > 0}
        if not visited:
            break
        best_cap = min(visited, key=lambda c: (-visited[c], c))
        for s in node.dist_p.support() | node.dist_o.support():
            mapping.setdefault(s, best_cap)
        node = node.children[best_cap]
    return SynthesisResult(StatePolicy.from_dict(mapping), score)


# -- sampled variant: set-of-support state samples ---------------------------


class _SampleNode:
    __slots__ = ("state", "reward", "children", "n", "n_edge", "w_edge", "q", "value")

    def __init__(self, state: AbstractState, reward: float) -> None:
        self.state = state
        self.reward = reward
        self.children: dict[str, dict[AbstractState, _SampleNode]] = {}
        self.n = 0
        self.n_edge: dict[str, int] = {}
        self.w_edge: dict[str, float] = {}
        self.q: dict[str, float] = {}
        self.value = reward


def synthesize_sampled(
    s0: AbstractState,
    m_pess: CapabilityModel,
    m_opt: CapabilityModel,
    iterations: int,
    kappa: float,
    depth: int,
    rng: Random,
    rollouts: int = 1,
) -> SynthesisResult:
    """Sample-based MCTS over single states with symmetric-difference rewards.

    At a node with state s only capabilities with a firing rule in either
    model are applicable. Successors are sampled from the half/half mixture of
    the two models' predictions; reaching a state in the symmetric difference
    of the two one-step supports earns reward 1. Q values back up from the
    single observed successor, undiscounted.
    """
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    if not caps or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)

    valid_cache: dict[AbstractState, list[str]] = {}
    step_cache: dict[tuple[AbstractState, str], tuple[list[tuple[AbstractState, float]], frozenset[AbstractState]]] = {}

    def valid_caps(state: AbstractState) -> list[str]:
        got = valid_cache.get(state)
        if got is None:
            got = [
                c
                for c in caps
                if any(satisfies(state, r.condition) for r in m_pess.rules_for(c))
                or any(satisfies(state, r.condition) for r in m_opt.rules_for(c))
            ]
            valid_cache[state] = got
        return got

    def step_info(state: AbstractState, cap: str):
        """Mixture successor list in state order and the symmetric difference."""
        key = (state, cap)
        got = step_cache.get(key)
        if got is None:
            p1 = predict(m_pess, state, cap)
            p2 = predict(m_opt, state, cap)
            mix: dict[AbstractState, float] = {}
            for s2, p in p1.items():
                mix[s2] = mix.get(s2, 0.0) + 0.5 * p
            for s2, p in p2.items():
                mix[s2] = mix.get(s2, 0.0) + 0.5 * p
            ordered = sorted(mix.items(), key=lambda kv: kv[0].bits)
            delta = frozenset(p1) ^ frozenset(p2)
            got = (ordered, delta)
            step_cache[key] = got
        return got

    def sample_step(state: AbstractState, cap: str) -> tuple[AbstractState, float]:
        ordered, delta = step_info(state, cap)
        chosen = draw(ordered, rng.random())
        return chosen, (1.0 if chosen in delta else 0.0)

    def rollout_return(state: AbstractState, used_depth: int) -> float:
        total = 0.0
        for _ in range(rollouts):
            ret = 0.0
            cur = state
            for _ in range(depth - used_depth):
                vc = valid_caps(cur)
                if not vc:
                    break
                cap = rng.choice(vc)
                cur, r = sample_step(cur, cap)
                ret += r
            total += ret
        return total / rollouts

    root = _SampleNode(s0, 0.0)
    all_nodes: list[_SampleNode] = [root]

    for _ in range(iterations):
        node = root
        path: list[tuple[_SampleNode, str, _SampleNode]] = []
        fresh = None
        while len(path) < depth:
            vc = valid_caps(node.state)
            if not vc:
                break
            cap = None
            for c in vc:
                if node.n_edge.get(c, 0) == 0:
                    cap = c
                    break
            if cap is None:
                best = -math.inf
                log_n = math.log(node.n)
                for c in vc:
                    score = uct_score(node.q[c], log_n, node.n_edge[c], kappa)
                    if score > best:
                        best, cap = score, c
            s2, r = sample_step(node.state, cap)
            kids = node.children.setdefault(cap, {})
            child = kids.get(s2)
            if child is None:
                child = _SampleNode(s2, r)
                kids[s2] = child
                all_nodes.append(child)
                path.append((node, cap, child))
                fresh = child
                break
            path.append((node, cap, child))
            node = child
        if fresh is not None:
            fresh.value = fresh.reward + rollout_return(fresh.state, len(path))
        for parent, cap, child in reversed(path):
            parent.n += 1
            parent.n_edge[cap] = parent.n_edge.get(cap, 0) + 1
            parent.w_edge[cap] = parent.w_edge.get(cap, 0.0) + child.value
            parent.q[cap] = parent.reward + parent.w_edge[cap] / parent.n_edge[cap]
            parent.value = max(parent.q.values())

    score = root.value if root.q else 0.0
    # Q(s, c) is state-indexed; pool edge statistics across tree positions
    # sharing the same abstract state before the greedy argmax.
    pooled: dict[AbstractState, dict[str, tuple[int, float]]] = {}
    for nd in all_nodes:
        per_state = pooled.setdefault(nd.state, {})
        for c, n_e in nd.n_edge.items():
            if n_e < 1:
                continue
            n0, w0 = per_state.get(c, (0, 0.0))
            per_state[c] = (n0 + n_e, w0 + nd.w_edge[c])
    mapping: dict[AbstractState, str] = {}
    for state, stats in pooled.items():
        if stats:
            mapping[state] = min(stats, key=lambda c: (-(stats[c][1] / stats[c][0]), c))
    return SynthesisResult(StatePolicy.from_dict(mapping), score)
