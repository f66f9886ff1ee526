"""Distinguishing-query synthesis via MCTS over paired model predictions.

Two synthesizers solve the same planning problem: find a capability policy
whose predicted outcome distributions diverge between the pessimistic and
optimistic models.

- `synthesize_exact` searches over nodes holding exact distribution pairs,
  plain probability dicts like those `predict` returns, and scores them with
  total-variation distance.
- `synthesize_sampled` searches over single sampled states and scores with an
  indicator for landing in the symmetric difference of the two models'
  one-step successor supports.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from operator import add
from random import Random
from typing import Iterable, Mapping, Sequence

from .abstraction import AbstractState, AtomUniverse
from .distributions import cumulative, tv_distance
from .model import CapabilityModel, predict

# `synthesize_exact`'s random rollouts per new leaf, and children generated per node visit.
EXACT_ROLLOUTS = 3
EXPAND_PER_VISIT = 3


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
    """Tree position over one distribution pair, shared (one dict) or not.

    `caps` and `children` list the generated children in order; `n_edge` and
    `q` list the visited ones. Selection takes the first unvisited child, so
    the visited children are always a prefix of `children`. `value` is the
    reward (the rollout value, for a fresh leaf) until the first backup, and
    `max(q)` from then on.
    """

    __slots__ = ("dist_p", "dist_o", "reward", "tried", "caps", "children", "n", "n_edge", "q", "value")

    def __init__(
        self, dist_p: dict[AbstractState, float], dist_o: dict[AbstractState, float], reward: float
    ) -> None:
        self.dist_p = dist_p
        self.dist_o = dist_o
        self.reward = reward
        self.tried = 0  # the call's capabilities expanded here so far
        self.caps: list[str] = []
        self.children: list[_DistNode] = []
        self.n = 0
        self.n_edge: list[int] = []
        self.q: list[float] = []
        self.value = reward


class _PairTable:
    """One call's predictions of a model pair under one capability, by state.

    Each entry holds both models' `predict` results as item tuples and
    whether the two are equal in content and order (the entry is shared).
    """

    __slots__ = ("m_pess", "m_opt", "capability", "entries")

    def __init__(self, m_pess: CapabilityModel, m_opt: CapabilityModel, capability: str) -> None:
        self.m_pess = m_pess
        self.m_opt = m_opt
        self.capability = capability
        self.entries: dict[AbstractState, tuple[tuple, tuple, bool]] = {}

    def entry(self, state: AbstractState) -> tuple[tuple, tuple, bool]:
        got = self.entries.get(state)
        if got is None:
            p1 = tuple(predict(self.m_pess, state, self.capability).items())
            p2 = tuple(predict(self.m_opt, state, self.capability).items())
            got = self.entries[state] = (p1, p2, p1 == p2)
        return got

    def push_pair(
        self, dist_p: dict[AbstractState, float], dist_o: dict[AbstractState, float]
    ) -> tuple[dict[AbstractState, float], dict[AbstractState, float]]:
        """Both models' one-step images of a distribution pair.

        When `dist_p is dist_o` and every state's entry is shared, the two
        images are one dict. Successors reached from several states have
        their masses summed in the order they are first reached; a state no
        condition accepts keeps its mass, and a product that underflows to
        0.0 keeps its state.
        """
        entries, entry = self.entries, self.entry
        rows_p = [entries.get(s) or entry(s) for s in dist_p]
        if dist_p is dist_o:
            for row in rows_p:
                if not row[2]:
                    break
            else:
                out = _image(dist_p.values(), rows_p, 0)
                return out, out
            rows_o = rows_p
        else:
            rows_o = [entries.get(s) or entry(s) for s in dist_o]
        return _image(dist_p.values(), rows_p, 0), _image(dist_o.values(), rows_o, 1)


def _image(masses: Iterable[float], rows: list[tuple], side: int) -> dict[AbstractState, float]:
    """Sum `mass * p` over each state's row of successors, in first-reached order."""
    out: dict[AbstractState, float] = {}
    get = out.get
    for mass, row in zip(masses, rows):
        for s2, p in row[side]:
            out[s2] = get(s2, 0.0) + mass * p
    return out


def synthesize_exact(
    s0: AbstractState,
    m_pess: CapabilityModel,
    m_opt: CapabilityModel,
    iterations: int,
    kappa: float,
    depth: int,
    rng: Random,
) -> SynthesisResult:
    """MCTS over exact distribution pairs, rewarded by total-variation distance.

    Each node visit generates up to `EXPAND_PER_VISIT` children, one per
    capability in name order. A child whose support pair duplicates an
    existing node's is pruned (the capability is dropped at that node), which
    also removes no-op self edges. Selection takes the first unvisited child,
    else the first maximum of `q + kappa * sqrt(log N / n)`. A new leaf's
    value is the mean return of `EXACT_ROLLOUTS` random rollouts, whose
    capabilities are drawn as `synthesize_sampled` draws them (the stream of
    `rng.choice(caps)`). Values back up as node reward plus best child value,
    undiscounted; `value` is kept incrementally as in `synthesize_sampled`.

    Within one call each (capability, state) is predicted once per model. Its
    table entry holds both predictions as item tuples and whether the two are
    equal. A pair whose sides are one dict, pushed through entries that are
    all equal, is pushed once and its children share one dict; the reward of
    such a pair is 0.0, which is what `tv_distance(d, d)` returns. Every
    distribution has the values and key order of a one-step image computed
    state by state from `predict`, so the TV sums match term for term.
    """
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    if not caps or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)
    k, bits_k = len(caps), len(caps).bit_length()
    getrandbits, sqrt = rng.getrandbits, math.sqrt
    tables = [_PairTable(m_pess, m_opt, c) for c in caps]

    def rollout_value(node: _DistNode, steps: int) -> float:
        total = 0.0
        for _ in range(EXACT_ROLLOUTS):
            ret = node.reward
            dp, do = node.dist_p, node.dist_o
            for _ in range(steps):
                c = getrandbits(bits_k)
                while c >= k:
                    c = getrandbits(bits_k)
                dp, do = tables[c].push_pair(dp, do)
                if dp is not do:
                    ret += tv_distance(dp, do)
            total += ret
        return total / EXACT_ROLLOUTS

    point = {s0: 1.0}
    root = _DistNode(point, point, 0.0)
    seen_supports = {(frozenset(point),) * 2}

    for _ in range(iterations):
        node = root
        path: list[tuple[_DistNode, int, _DistNode]] = []
        fresh = None
        while len(path) < depth:
            if node.tried < k:
                stop = min(node.tried + EXPAND_PER_VISIT, k)
                for j in range(node.tried, stop):
                    child_p, child_o = tables[j].push_pair(node.dist_p, node.dist_o)
                    support = frozenset(child_p)
                    key = (support, support if child_o is child_p else frozenset(child_o))
                    if key in seen_supports:
                        continue
                    seen_supports.add(key)
                    reward = 0.0 if child_o is child_p else tv_distance(child_p, child_o)
                    node.caps.append(caps[j])
                    node.children.append(_DistNode(child_p, child_o, reward))
                node.tried = stop
            children, q = node.children, node.q
            if len(q) < len(children):
                fresh = children[len(q)]
                path.append((node, len(q), fresh))
                break
            if len(children) > 1:
                log_n = math.log(node.n)
                scores = [qi + kappa * sqrt(log_n / n) for qi, n in zip(q, node.n_edge)]
                i = scores.index(max(scores))
            elif children:
                i = 0
            else:
                break
            path.append((node, i, children[i]))
            node = children[i]
        if fresh is not None:
            fresh.value = rollout_value(fresh, depth - len(path))
        for parent, i, child in reversed(path):
            parent.n += 1
            q = parent.q
            new = parent.reward + child.value
            if i == len(q):
                old = -math.inf
                q.append(new)
                parent.n_edge.append(1)
            else:
                old = q[i]
                q[i] = new
                parent.n_edge[i] += 1
            if new >= parent.value or parent.n == 1:
                parent.value = new
            elif old == parent.value:
                parent.value = max(q)

    score = root.value if root.n else 0.0
    mapping: dict[AbstractState, str] = {}
    node = root
    for _ in range(depth):
        q, names = node.q, node.caps
        if not q:
            break
        best = min(range(len(q)), key=lambda i: (-q[i], names[i]))
        for s in node.dist_p.keys() | node.dist_o.keys():
            mapping.setdefault(s, names[best])
        node = node.children[best]
    return SynthesisResult(StatePolicy.from_dict(mapping), score)


# -- sampled variant: set-of-support state samples ---------------------------


class _StateTable:
    """Per-call facts about one abstract state: its steps, one per capability.

    `steps[i]`, built on the first step taken with the call's `i`-th
    capability, holds in successor bit order the `distributions.cumulative`
    mixture weights, so that `bisect_right(cum, u)` is the successor picked
    for the uniform `u` (None when there is one successor), and
    `(successor table, reward)` pairs. The owning call clears `steps` on
    return, which breaks the cycles between tables.
    """

    __slots__ = ("state", "steps")

    def __init__(self, state: AbstractState, k: int) -> None:
        self.state = state
        self.steps: list[_Step | None] | None = [None] * k


_Step = tuple[list[float] | None, list[tuple[_StateTable, float]]]


class _SampleNode:
    """Tree position over one state table; edge lists exist once it is expanded.

    `value` is the reward (plus the rollout return, for a fresh node) until
    the node's first backup, and `max(q)` from then on. `n_edge`, `w_edge`,
    `q` and `children` are indexed like the call's capabilities and allocated
    when the node is first expanded (`n == 0`); most nodes stay leaves.
    `children[i]` is indexed like the successors of `table.steps[i]`.
    `positive` lists the edges with Q > 0 in index order, and the next zero-Q
    edge is searched for from `zero` (-1 before the first UCT choice).
    """

    __slots__ = ("table", "reward", "value", "n", "n_edge", "w_edge", "q", "children", "zero", "positive")

    def __init__(self, table: _StateTable, reward: float) -> None:
        self.table = table
        self.reward = reward
        self.value = reward
        self.n = 0


def _exploration_falls(kappa: float, iterations: int) -> bool:
    """Whether `t(c) = kappa * sqrt(log(N) / c)` falls strictly in c <= N <= `iterations`.

    For N >= 2 (log 1 is 0). Both sides of `t(c) > t(c + 1)` share `log(N)`,
    then round three times each (divide, `sqrt`, multiply), by at most half
    an ulp while the values are normal floats. Exactly, `t(c) / t(c + 1) =
    sqrt(1 + 1/c) >= 1 + 1/(3N)`, which outweighs six such roundings for
    N < 2**40. Rounding is monotone, so every term is normal when the least
    and the greatest, `kappa * sqrt(log 2 / (iterations + 1))` and
    `kappa * sqrt(log(iterations))`, are.
    """
    return (
        iterations < 1 << 40
        and sys.float_info.min <= kappa * math.sqrt(math.log(2) / (iterations + 1))
        and kappa * math.sqrt(math.log(iterations)) <= sys.float_info.max
    )


def synthesize_sampled(
    s0: AbstractState,
    m_pess: CapabilityModel,
    m_opt: CapabilityModel,
    iterations: int,
    kappa: float,
    depth: int,
    rng: Random,
) -> SynthesisResult:
    """Sample-based MCTS over single states with symmetric-difference rewards.

    The actions, at every state, are the capabilities with at least one rule
    in either model, in name order; with none the result is the empty policy
    and no draw is made. Where neither model's rules accept a state, both
    predict no change, so such a step earns 0. (For a pair `build_models`
    fits, some optimistic rule of each capability with data accepts every
    state.) Successors are sampled from the half/half mixture of the two
    models' predictions; reaching a state in the symmetric difference of the
    two one-step supports earns reward 1. Q values back up from the single
    observed successor, undiscounted. Selection takes the first unvisited
    edge, else the first maximum of `q + kappa * sqrt(log N / n)`. Each new
    leaf gets one random rollout.

    Within one call every state seen gets one `_StateTable`, holding per
    capability a step entry built on first use from one `predict` per model.
    The RNG stream is one `rng.random()` per sampled step (also with a single
    successor) and, per rollout step, `getrandbits(k.bit_length())` until
    the value is below the number `k` of capabilities, which is how
    `rng.randrange(k)` consumes the RNG on CPython 3.10 to 3.13. So result
    and stream are those of a search that picks each successor by inverse
    CDF over its mixture weights and each rollout capability by `rng.choice`.

    Selection pays only for what can change its choice, and each rule
    below picks the first maximum of the full score list:

    - Visits 0 to k-1 of a node take edges 0 to k-1 in order.
    - Rewards are 0 or 1 and `w` only grows, so every Q is >= 0 and a
      node's `value` (`max(q)`, kept incrementally) never returns to 0.0
      once positive. At value 0.0 every score is the exploration term
      alone, so selection is round robin, edge `N % k`.
    - At a positive node zero-Q edges still win only as the first
      least-visited of them, so the one that can win is the next zero-Q
      edge after the last one taken there (`zero`), cyclically. It is
      scored with the positive-Q edges, first maximum in index order.
    - Backing up a 0.0 value along a zero-Q edge changes only the counts.

    The round-robin rules need the exploration term to fall strictly with
    the visit count, which `_exploration_falls` checks once per call;
    where it fails (kappa 0 or subnormal, say) every choice after a node's
    first k visits scores the full list.
    """
    named = m_pess.capabilities.keys() | m_opt.capabilities
    caps = sorted(c for c in named if m_pess.rules_for(c) or m_opt.rules_for(c))
    if not caps or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)
    k, bits_k = len(caps), len(caps).bit_length()
    round_robin = _exploration_falls(kappa, iterations)

    tables: dict[int, _StateTable] = {}

    def table_of(state: AbstractState) -> _StateTable:
        table = tables.get(state.bits)
        if table is None:
            table = tables[state.bits] = _StateTable(state, k)
        return table

    def make_step(table: _StateTable, i: int) -> _Step:
        state, cap = table.state, caps[i]
        p1 = predict(m_pess, state, cap)
        p2 = predict(m_opt, state, cap)
        mix: dict[AbstractState, float] = {}
        for s2, p in p1.items():
            mix[s2] = mix.get(s2, 0.0) + 0.5 * p
        for s2, p in p2.items():
            mix[s2] = mix.get(s2, 0.0) + 0.5 * p
        ordered = sorted(mix.items(), key=lambda kv: kv[0].bits)
        cum = cumulative(w for _, w in ordered) if len(ordered) > 1 else None
        outs = [(table_of(s2), 1.0 if (s2 in p1) != (s2 in p2) else 0.0) for s2, _ in ordered]
        step = table.steps[i] = (cum, outs)
        return step

    random, getrandbits, sqrt, log = rng.random, rng.getrandbits, math.sqrt, math.log
    root = _SampleNode(table_of(s0), 0.0)
    all_nodes: list[_SampleNode] = [root]

    for _ in range(iterations):
        node = root
        path: list[tuple[_SampleNode, int, _SampleNode]] = []
        fresh = None
        while len(path) < depth:
            table = node.table
            n = node.n
            if not n:
                node.n_edge = [0] * k
                node.w_edge = [0.0] * k
                node.q = [-math.inf] * k  # unvisited edges never win max(q)
                node.children = [None] * k
                node.zero = -1
                node.positive = []
                i = 0
            elif n < k or (round_robin and node.value == 0.0):
                i = n % k
            else:
                q, n_edge, log_n = node.q, node.n_edge, log(n)
                if round_robin:
                    positive, best = node.positive, -1.0
                    for j in positive:  # a loop beats a comprehension here
                        score = q[j] + kappa * sqrt(log_n / n_edge[j])
                        if score > best:
                            best, i = score, j
                    if len(positive) < k:
                        start = node.zero if node.zero >= 0 else n % k
                        z = q.index(0.0, start) if 0.0 in q[start:] else q.index(0.0)
                        t = kappa * sqrt(log_n / n_edge[z])  # its q is 0.0
                        if t > best or (t == best and z < i):
                            i = z
                            start = z + 1
                        node.zero = start
                else:
                    scores = [qi + kappa * sqrt(log_n / ni) for qi, ni in zip(q, n_edge)]
                    i = scores.index(max(scores))
            cum, outs = table.steps[i] or make_step(table, i)
            u = random()
            j = bisect_right(cum, u) if cum else 0
            kids = node.children[i]
            if kids is None:
                kids = node.children[i] = [None] * len(outs)
            child = kids[j]
            if child is None:
                child = kids[j] = fresh = _SampleNode(*outs[j])
                all_nodes.append(child)
            path.append((node, i, child))
            if fresh is not None:
                break
            node = child
        if fresh is not None:
            ret = 0.0
            table = fresh.table
            for _ in range(depth - len(path)):
                c = getrandbits(bits_k)
                while c >= k:
                    c = getrandbits(bits_k)
                cum, outs = table.steps[c] or make_step(table, c)
                u = random()
                table, r = outs[bisect_right(cum, u) if cum else 0]
                ret += r
            fresh.value = fresh.reward + ret
        for parent, i, child in reversed(path):
            parent.n += 1
            q = parent.q
            if child.value == 0.0 and q[i] == 0.0:
                parent.n_edge[i] += 1
                continue
            n = parent.n_edge[i] = parent.n_edge[i] + 1
            w = parent.w_edge[i] = parent.w_edge[i] + child.value
            old = q[i]
            new = q[i] = parent.reward + w / n
            if old <= 0.0 < new:
                insort(parent.positive, i)
            if new >= parent.value or parent.n == 1:
                parent.value = new
            elif old == parent.value:
                parent.value = max(q)

    for table in tables.values():
        table.steps = None

    score = root.value if root.n else 0.0
    # Q(s, c) is state-indexed; pool edge statistics across tree positions
    # sharing the same abstract state before the greedy argmax.
    pooled: dict[int, tuple[list[int], list[float]]] = {}
    for nd in all_nodes:
        if not nd.n:
            continue
        bits = nd.table.state.bits
        got = pooled.get(bits)
        pooled[bits] = (nd.n_edge, nd.w_edge) if got is None else (
            list(map(add, got[0], nd.n_edge)), list(map(add, got[1], nd.w_edge))
        )
    mapping: dict[AbstractState, str] = {}
    for bits, (n_sum, w_sum) in pooled.items():
        # caps are in name order, so the first maximum of the mean is the
        # best edge with ties broken by name; unvisited edges never win
        means = [w / n if n else -1.0 for w, n in zip(w_sum, n_sum)]
        mapping[tables[bits].state] = caps[means.index(max(means))]
    return SynthesisResult(StatePolicy.from_dict(mapping), score)
