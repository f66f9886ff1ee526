"""Capability models: conditional probabilistic effect rules built from data.

A capability model pairs each capability with rules ``(condition, effects)``
where effects is a probability distribution over add/delete masks. Learned
models come in two flavors built from the same state partition of the
dataset: the pessimistic model accepts exactly the observed states of each
partition, the optimistic model accepts every state not claimed by another
partition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    ConfigurationError,
    LiteralConjunction,
    literal_of,
    literal_string,
    satisfies,
)
from .dataset import EffectPair, Transition, TransitionDataset, effects_of

PROB_TOL = 1e-9


def apply_effect(state: AbstractState, effect: EffectPair) -> AbstractState:
    """Clear the deleted atoms, then set the added atoms."""
    return AbstractState(state.bits & ~effect.delete | effect.add, state.num_atoms)


@dataclass(frozen=True)
class ConditionalEffectRule:
    """One condition with a normalized distribution over effect pairs."""

    condition: Condition
    effects: tuple[tuple[float, EffectPair], ...]

    def __post_init__(self) -> None:
        total = sum(p for p, _ in self.effects)
        if self.effects and abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"effect probabilities sum to {total}, not 1")
        if any(p <= 0.0 or p > 1.0 for p, _ in self.effects):
            raise ValueError("effect probabilities must lie in (0, 1]")
        if len({e for _, e in self.effects}) != len(self.effects):
            raise ValueError("duplicate effect pair within one rule")


class _CapabilityMemo:
    """Facts that depend only on one capability, filled on first use.

    `predictions` maps a state to `predict`'s result; `json` is
    `(universe, text)` of the capability's compact `model_to_json` fragment.
    `filtered` is `intent_achieving`'s copy of the capability.
    `entry` is `(universe, parsed JSON entry)` for a capability that
    `model_from_json` built, so a later load can tell it is unchanged.
    """

    __slots__ = ("predictions", "json", "filtered", "entry")

    def __init__(self) -> None:
        self.predictions: dict[AbstractState, dict[AbstractState, float]] = {}
        self.json: tuple[AtomUniverse, str] | None = None
        self.filtered: Capability | None = None
        self.entry: tuple[AtomUniverse, dict] | None = None


@dataclass(frozen=True)
class Capability:
    """A named intent plus the conditional effect rules modeling it.

    `memo` caches what `predict` and `model_to_json` compute from the
    rules. It is neither compared nor copied by `dataclasses.replace`, and
    it travels with the object: every model holding this capability,
    including the pairs `build_models` refits from it, shares it.
    """

    name: str
    intent: LiteralConjunction
    rules: tuple[ConditionalEffectRule, ...] = ()
    memo: _CapabilityMemo = field(
        default_factory=_CapabilityMemo, init=False, compare=False, repr=False
    )


def intent_achieving(cap: Capability) -> Capability:
    """`cap` with only its intent-achieving rules; made once, then shared through `cap.memo`."""
    filtered = cap.memo.filtered
    if filtered is None:
        pos, neg = cap.intent
        rules = tuple(
            r
            for r in cap.rules
            if any(eff.add & pos == pos and eff.delete & neg == neg for _, eff in r.effects)
        )
        filtered = cap.memo.filtered = Capability(cap.name, cap.intent, rules)
    return filtered


class CapabilityModel:
    """Immutable bundle of capabilities over one universe.

    `flavor` is "pessimistic", "optimistic", or "ground-truth". Neither the
    model nor its capabilities may be mutated after construction; memoized
    predictions live in each `Capability`, so they outlive the model when a
    refit keeps the capability. `fitted_to` is `(dataset, revisions)` for a
    pair made by `build_models` and None otherwise.
    """

    def __init__(
        self,
        universe: AtomUniverse,
        capabilities: Mapping[str, Capability],
        flavor: str,
        fitted_to: tuple[TransitionDataset, dict[str, int]] | None = None,
    ) -> None:
        self.universe = universe
        self.capabilities: dict[str, Capability] = dict(capabilities)
        self.flavor = flavor
        self.fitted_to = fitted_to

    def rules_for(self, name: str) -> tuple[ConditionalEffectRule, ...]:
        cap = self.capabilities.get(name)
        return cap.rules if cap is not None else ()


@dataclass(frozen=True)
class Partition:
    """States sharing one observed effect set, with aggregated effect counts."""

    states: frozenset[AbstractState]
    effects: frozenset[EffectPair]
    effect_counts: tuple[tuple[EffectPair, int], ...]

    @property
    def total_count(self) -> int:
        return sum(n for _, n in self.effect_counts)


def partition(dataset: TransitionDataset, capability: str) -> list[Partition]:
    """Group observed initial states of `capability` by equal effect sets.

    Returned in canonical order (by sorted effects, which order as their
    `(add, delete)` tuples, then member states) so downstream rule lists are
    deterministic.
    """
    groups: dict[frozenset[EffectPair], set[AbstractState]] = {}
    for s in dataset.observed_states(capability):
        groups.setdefault(dataset.effect_set(capability, s), set()).add(s)

    parts = []
    for effs, states in groups.items():
        counts: dict[EffectPair, int] = {e: 0 for e in effs}
        for s in states:
            for t in dataset.transitions_from(capability, s):
                counts[effects_of(t)] += dataset.counts[t]
        ordered = tuple(sorted(counts.items()))
        parts.append(Partition(frozenset(states), effs, ordered))
    # No-op-only partitions sort last so that prediction for states accepted
    # by several optimistic conditions generalizes an informative partition.
    parts.sort(
        key=lambda p: (
            all(e.is_noop for e in p.effects),
            sorted(p.effects),
            min(s.bits for s in p.states),
        )
    )
    return parts


def pessimistic_condition(part: Partition, universe: AtomUniverse) -> Condition:
    """Disjunction of the full literal representations of the member states."""
    clauses = tuple(
        literal_of(s) for s in sorted(part.states, key=lambda s: s.bits)
    )
    return Condition(clauses, universe.num_atoms, negated=False)


def optimistic_condition(
    all_parts: Sequence[Partition], target: Partition, universe: AtomUniverse
) -> Condition:
    """Negated disjunction of every state observed in the other partitions.

    `partition` returns one partition per distinct effect set, so the effect
    set alone tells `target` apart from the others.
    """
    others = {s for p in all_parts if p.effects != target.effects for s in p.states}
    clauses = tuple(literal_of(s) for s in sorted(others, key=lambda s: s.bits))
    return Condition(clauses, universe.num_atoms, negated=True)


def _mle_effects(part: Partition) -> tuple[tuple[float, EffectPair], ...]:
    total = part.total_count
    return tuple((n / total, e) for e, n in part.effect_counts)


def build_models(
    capabilities: Iterable[Capability],
    dataset: TransitionDataset,
    universe: AtomUniverse,
    previous: tuple[CapabilityModel, CapabilityModel] | None = None,
) -> tuple[CapabilityModel, CapabilityModel]:
    """Build the pessimistic/optimistic model pair from the dataset.

    Capabilities without data get an empty rule list in both models; by the
    self-loop convention of predict() they then predict no change.

    `previous`, a pair this function built earlier from the same dataset
    object and universe, lets the refit keep both flavors' `Capability`
    objects (rules and memo) for each capability whose intent and
    `dataset.revision` are unchanged; the rest are rebuilt with fresh memos.
    The result equals a build without `previous`.
    """
    old_pess: Mapping[str, Capability] = {}
    old_revisions: Mapping[str, int] = {}
    if previous is not None and previous[0].fitted_to is not None:
        old_dataset, old_revisions = previous[0].fitted_to
        if old_dataset is dataset and previous[0].universe is universe:
            old_pess = previous[0].capabilities
    revisions: dict[str, int] = {}
    pess: dict[str, Capability] = {}
    opt: dict[str, Capability] = {}
    for cap in capabilities:
        revision = revisions[cap.name] = dataset.revision(cap.name)
        kept = old_pess.get(cap.name)
        if kept is not None and old_revisions.get(cap.name) == revision and kept.intent == cap.intent:
            pess[cap.name], opt[cap.name] = kept, previous[1].capabilities[cap.name]
            continue
        parts = partition(dataset, cap.name)
        pess_rules = []
        opt_rules = []
        for part in parts:
            effects = _mle_effects(part)
            pess_rules.append(
                ConditionalEffectRule(pessimistic_condition(part, universe), effects)
            )
            opt_rules.append(
                ConditionalEffectRule(optimistic_condition(parts, part, universe), effects)
            )
        pess[cap.name] = Capability(cap.name, cap.intent, tuple(pess_rules))
        opt[cap.name] = Capability(cap.name, cap.intent, tuple(opt_rules))
    fitted_to = (dataset, revisions)
    return (
        CapabilityModel(universe, pess, "pessimistic", fitted_to),
        CapabilityModel(universe, opt, "optimistic", fitted_to),
    )


def predict(
    model: CapabilityModel, state: AbstractState, capability: str
) -> dict[AbstractState, float]:
    """Successor distribution for executing `capability` in `state`.

    The first rule whose condition accepts the state fires; its effect masses
    are summed per successor. With no accepting rule the model predicts no
    change (point mass on `state`). Results are memoized in the capability.
    """
    cap = model.capabilities.get(capability)
    if cap is None:
        return {state: 1.0}
    memo = cap.memo.predictions
    dist = memo.get(state)
    if dist is not None:
        return dist
    dist = {}
    for rule in cap.rules:
        if satisfies(state, rule.condition):
            for p, eff in rule.effects:
                s2 = apply_effect(state, eff)
                dist[s2] = dist.get(s2, 0.0) + p
            break
    if not dist:
        dist = {state: 1.0}
    memo[state] = dist
    return dist


def entailed_successors(
    model: CapabilityModel, state: AbstractState, capability: str
) -> set[AbstractState]:
    """Successors reachable through any accepting rule (entailment support)."""
    out: set[AbstractState] = set()
    for rule in model.rules_for(capability):
        if satisfies(state, rule.condition):
            out.update(apply_effect(state, eff) for _, eff in rule.effects)
    return out


def entails(model: CapabilityModel, transition: Transition) -> bool:
    """Whether some accepting rule has an effect that maps s to s'."""
    return transition.s_next in entailed_successors(model, transition.s, transition.c)


def equivalent(
    model1: CapabilityModel,
    model2: CapabilityModel,
    states: Iterable[AbstractState],
) -> bool:
    """Functional equivalence: entailment agrees on every checked transition.

    For each state in `states` and each capability known to either model,
    both models must entail the same successor set.
    """
    caps = sorted(set(model1.capabilities) | set(model2.capabilities))
    return all(
        entailed_successors(model1, s, c) == entailed_successors(model2, s, c)
        for s in states
        for c in caps
    )


# -- serialization ---------------------------------------------------------


def _condition_to_json(cond: Condition, universe: AtomUniverse) -> dict:
    return {
        "negated": cond.negated,
        "clauses": [
            {
                "pos": universe.names_of(cl.positives),
                "neg": universe.names_of(cl.negatives),
            }
            for cl in cond.clauses
        ],
    }


def _mask_from_json(universe: AtomUniverse, capability: str, names: object, field: str) -> int:
    """`universe.mask_of(names)`, refusing anything but a list by field name."""
    if not isinstance(names, list):
        raise ConfigurationError(
            f"capability {capability}: {field} must be a list of atom names, got {names!r}"
        )
    return universe.mask_of(names)


def _condition_from_json(data: dict, num_atoms: int, mask: Callable[..., int]) -> Condition:
    clauses = tuple(
        LiteralConjunction(mask(cl["pos"], "clause pos"), mask(cl["neg"], "clause neg"))
        for cl in data["clauses"]
    )
    return Condition(clauses, num_atoms, negated=bool(data["negated"]))


def _capability_json(cap: Capability, u: AtomUniverse) -> str:
    """The capability as compact sorted-key JSON, memoized per universe."""
    memo = cap.memo
    if memo.json is None or memo.json[0] is not u:
        doc = {
            "name": cap.name,
            "intent": {
                "pos": u.names_of(cap.intent.positives),
                "neg": u.names_of(cap.intent.negatives),
            },
            "rules": [
                {
                    "condition": _condition_to_json(r.condition, u),
                    "effects": [
                        {"p": p, "add": u.names_of(e.add), "del": u.names_of(e.delete)}
                        for p, e in r.effects
                    ],
                }
                for r in cap.rules
            ],
        }
        memo.json = (u, json.dumps(doc, sort_keys=True))
    return memo.json[1]


def model_to_json(model: CapabilityModel, indent: int | None = 2) -> str:
    """The model as sorted-key JSON ending in a newline.

    `indent=None` writes one line: `json.dumps` of the whole document, with
    each capability's memoized fragment spliced in. The C encoder's compact
    output for a value does not depend on where the value sits, and
    "capabilities" is the first key in sorted order. Any other `indent`
    reparses that line and dumps it again; floats survive the round trip.
    """
    u = model.universe
    caps = ", ".join(_capability_json(model.capabilities[n], u) for n in sorted(model.capabilities))
    rest = json.dumps(
        {
            "flavor": model.flavor,
            "universe": {
                "predicates": {n: list(t) for n, t in sorted(u.predicates.items())},
                "objects": dict(sorted(u.objects.items())),
            },
        },
        sort_keys=True,
    )
    text = f'{{"capabilities": [{caps}], {rest[1:]}'
    if indent is not None:
        text = json.dumps(json.loads(text), indent=indent, sort_keys=True)
    return text + "\n"


def model_from_json(
    text: str,
    universe: AtomUniverse | None = None,
    previous: CapabilityModel | None = None,
) -> CapabilityModel:
    """Parse a model written by `model_to_json`, over `universe` if given.

    A capability of `previous` whose JSON entry equals this text's entry for
    the same name, parsed over the same universe object, is returned as is
    (rules and memo); every other capability is built afresh. Without
    `universe` a new universe is parsed from the text, so nothing is reused.
    A `universe` that is not an object, or an atom-name field (intent,
    clause or effect) that is not a list, raises `ConfigurationError`.
    """
    doc = json.loads(text)
    if universe is None:
        udoc = doc["universe"]
        if not isinstance(udoc, dict):
            raise ConfigurationError(f"model universe must be an object, got {udoc!r}")
        universe = AtomUniverse(udoc.get("predicates"), udoc.get("objects"))
    old = previous.capabilities if previous is not None else {}
    caps: dict[str, Capability] = {}
    for cdoc in doc["capabilities"]:
        name = cdoc["name"]
        kept = old.get(name)
        if kept is not None and kept.memo.entry is not None:
            entry_universe, entry = kept.memo.entry
            if entry_universe is universe and entry == cdoc:
                caps[kept.name] = kept
                continue
        mask = partial(_mask_from_json, universe, name)
        intent = LiteralConjunction(
            mask(cdoc["intent"]["pos"], "intent pos"), mask(cdoc["intent"]["neg"], "intent neg")
        )
        rules = tuple(
            ConditionalEffectRule(
                _condition_from_json(r["condition"], universe.num_atoms, mask),
                tuple(
                    (eff["p"], EffectPair(mask(eff["add"], "effect add"), mask(eff["del"], "effect del")))
                    for eff in r["effects"]
                ),
            )
            for r in cdoc["rules"]
        )
        cap = caps[name] = Capability(name, intent, rules)
        cap.memo.entry = (universe, cdoc)
    return CapabilityModel(universe, caps, doc.get("flavor", "ground-truth"))


def load_model(
    path: str | Path,
    universe: AtomUniverse | None = None,
    previous: CapabilityModel | None = None,
) -> CapabilityModel:
    """`model_from_json` of the file at `path`."""
    return model_from_json(Path(path).read_text(), universe, previous)


def _effect_string(e: EffectPair, universe: AtomUniverse) -> str:
    if e.is_noop:
        return "(no change)"
    return literal_string(LiteralConjunction(e.add, e.delete), universe)


def _condition_string(cond: Condition, universe: AtomUniverse) -> str:
    if not cond.clauses:
        return "true" if cond.negated else "false"
    body = " | ".join(f"({literal_string(cl, universe)})" for cl in cond.clauses)
    return f"not[{body}]" if cond.negated else body


def model_to_text(model: CapabilityModel) -> str:
    """Human-readable rendering: name, intent, then each rule's condition/effects."""
    u = model.universe
    out = [f"# {model.flavor} capability model over {u.num_atoms} atoms", ""]
    for name in sorted(model.capabilities):
        cap = model.capabilities[name]
        out.append(f"Capability Name: {cap.name}")
        out.append(f"Intent: {literal_string(cap.intent, u)}")
        if not cap.rules:
            out.append("  (no rules learned)")
        for k, rule in enumerate(cap.rules, start=1):
            out.append(f"Conditional Effect r{k}:")
            out.append(f"  Condition: {_condition_string(rule.condition, u)}")
            out.append("  Effects:")
            for p, e in rule.effects:
                out.append(f"    {p:.4f}: {_effect_string(e, u)}")
        out.append("")
    return "\n".join(out)


def capability_name(intent: LiteralConjunction, universe: AtomUniverse) -> str:
    """Canonical capability id for an intent, e.g. ``achieve__clean(l1)``."""
    return f"achieve__{literal_string(intent, universe)}"
