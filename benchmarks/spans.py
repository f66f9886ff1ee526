"""Spans around calls into caplearn's modules, installed from outside `src/`.

A `Tracer` replaces public module attributes, one method and a bundle's
callables with wrappers that time each call. Every span has a name, a start,
an end, a parent and the id of the query (learner) or checkpoint (evaluate)
it belongs to. Calls made hundreds of thousands of times per run (the
`LEAF` names) are aggregated per (name, parent name) instead of being kept
one by one; every span, kept or not, adds to that aggregate. Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter

from caplearn import cli, evaluation, learner, synthesis
from caplearn.dataset import TransitionDataset

LEAF = frozenset({
    "abstraction.encode",
    "dataset.record",
    "envs.agent_attempt",
    "envs.sim_step",
    "model.predict.synthesis",
    "model.predict.evaluation",
    "distributions.tv_distance",
})


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open frames: [span id, name, seconds covered by children]
        self.spans: list[tuple] = []  # kept spans: (id, parent id, query, name, start, end)
        self.aggregate: dict[tuple[str, str | None], list] = {}  # -> [calls, total s, self s]
        self.counters: Counter = Counter()
        self.query: object = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; `after(result)` updates counters."""
        stack, aggregate, spans = self.stack, self.aggregate, self.spans
        keep = name not in LEAF
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                key = (name, parent[1] if parent is not None else None)
                entry = aggregate.get(key)
                if entry is None:
                    entry = aggregate[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if keep:
                    spans.append((frame[0], parent[0] if parent is not None else None,
                                  self.query, name, start, end))
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the module-level names the learner and `evaluate` call."""
        count = self.counters

        def synthesized(result) -> None:
            count["synthesize.calls"] += 1
            # The learner's own rule for using a synthesized policy.
            count["synthesize.useful"] += int(result.score > 0.0 and bool(result.policy.mapping))

        def serialized(text: str) -> None:
            count["model_to_json.bytes"] += len(text.encode())

        def recorded(result) -> None:
            count["record.novel"] += int(result[1])

        for owner, attr, name, after in (
            (learner, "synthesize_exact", "synthesis.synthesize_exact", synthesized),
            (learner, "synthesize_sampled", "synthesis.synthesize_sampled", synthesized),
            (learner, "execute_query", "learner.execute_query", None),
            (learner, "build_models", "model.build_models", None),
            (learner, "discover_capabilities", "learner.discover_capabilities", None),
            (learner, "sample_initial_state", "learner.sample_initial_state", None),
            (learner, "model_to_json", "model.model_to_json", serialized),
            (synthesis, "predict", "model.predict.synthesis", None),
            (synthesis, "tv_distance", "distributions.tv_distance", None),
            (evaluation, "predict", "model.predict.evaluation", None),
            (cli, "model_replay", "evaluation.model_replay", None),
            (cli, "generate_eval_dataset", "evaluation.generate_eval_dataset", None),
            (cli, "exact_vd", "evaluation.exact_vd", None),
            (cli, "sampled_vd", "evaluation.sampled_vd", None),
            (TransitionDataset, "record", "dataset.record", recorded),
        ):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

        load_model = self.wrap("model.load_model", cli.load_model)

        def load_checkpoint(*args, **kwargs):
            # `evaluate` loads each checkpoint once; its spans share its id.
            count["checkpoints"] += 1
            self.query = ("checkpoint", count["checkpoints"])
            return load_model(*args, **kwargs)

        self._patch(cli, "load_model", load_checkpoint)
        make_bundle = cli.make_bundle
        self._patch(cli, "make_bundle", lambda config: self.instrument(make_bundle(config)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def instrument(self, bundle):
        """Wrap one environment bundle's abstraction, agent and simulator."""
        bundle.abstraction = self.wrap("abstraction.encode", bundle.abstraction)
        bundle.agent.attempt = self.wrap("envs.agent_attempt", bundle.agent.attempt)
        bundle.simulator.step = self.wrap("envs.sim_step", bundle.simulator.step)
        return bundle

    # -- derived metrics ------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (n, _), e in self.aggregate.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.aggregate.items() if n == name)

    def layer_metrics(self, coverage: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        `coverage` carries what the learner's own outputs say about the traced
        pass: queries, agent executions, unique transitions, observed states.
        """
        c = self.counters
        out: dict[str, tuple[float, str]] = {}

        def span(name: str, with_calls: bool = True) -> None:
            if with_calls:
                out[f"{name}.calls"] = (self.calls(name), "count")
            out[f"{name}.self_s"] = (self.self_s(name), "s")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        span("abstraction.encode")
        span("dataset.record")
        out["dataset.record.novel_ratio"] = (ratio(c["record.novel"], self.calls("dataset.record")), "ratio")
        out["dataset.unique_transitions"] = (coverage["unique_transitions"], "count")
        out["dataset.observed_states"] = (coverage["observed_states"], "count")
        span("learner.run")
        out["learner.queries"] = (coverage["queries"], "count")
        out["learner.agent_executions"] = (coverage["agent_executions"], "count")
        span("learner.execute_query")
        span("learner.discover_capabilities")
        span("learner.sample_initial_state")
        span("envs.agent_attempt")
        out["envs.sim_step.calls"] = (self.calls("envs.sim_step"), "count")
        span("synthesis.synthesize_exact")
        span("synthesis.synthesize_sampled")
        out["synthesis.useful_ratio"] = (ratio(c["synthesize.useful"], c["synthesize.calls"]), "ratio")
        span("model.build_models")
        span("model.predict.synthesis")
        span("model.predict.evaluation")
        out["model.predict.calls"] = (
            self.calls("model.predict.synthesis") + self.calls("model.predict.evaluation"), "count")
        out["model.predict.self_s"] = (
            self.self_s("model.predict.synthesis") + self.self_s("model.predict.evaluation"), "s")
        span("model.model_to_json")
        out["model.snapshot_bytes"] = (c["model_to_json.bytes"], "bytes")
        span("model.load_model")
        span("distributions.tv_distance")
        out["evaluation.checkpoints"] = (c["checkpoints"], "count")
        span("evaluation.generate_eval_dataset", with_calls=False)
        span("evaluation.model_replay")
        span("evaluation.exact_vd", with_calls=False)
        span("evaluation.sampled_vd", with_calls=False)
        span("cli.evaluate")
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing out once the run ends."""
        return {
            "aggregate": [
                {"name": n, "parent": p, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (n, p), e in sorted(self.aggregate.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "spans": [
                {"id": i, "parent": p, "query": q, "name": n, "start": s, "end": e}
                for i, p, q, n, s, e in self.spans
            ],
        }
