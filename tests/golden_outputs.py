"""Pinned output digests of a few short learning runs.

Each config runs `learner.run` into a fresh directory and hashes the bytes of
`final_model.json` and `dataset.jsonl`, and the concatenated bytes of every
`snapshots/query_*.json` in query order, which pins each intermediate model
too. A change that must leave the learner's
outputs byte-identical (a performance change) keeps these digests; a change to
the method updates them on purpose.

Run it as a script, without pytest, under any supported Python:

    PYTHONPATH=src python tests/golden_outputs.py

It prints the digests as JSON and exits 1 if any differs from `EXPECTED`.
`tests/test_golden_outputs.py` runs it under two hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from caplearn.envs import make_environment
from caplearn.learner import LearnerConfig, run

# name: (environment, variant, mcts_iterations, max_queries, seed)
CONFIGS = {
    "vacuum-exact": ("vacuum", "exact", 120, 60, 3),
    "vacuum-sampled": ("vacuum", "sampled", 300, 30, 4),
    "roads-exact": ("roads", "exact", 120, 40, 1),
    "roads-sampled": ("roads", "sampled", 300, 40, 2),
    "roads-random": ("roads", "random", 60, 40, 5),
    "blocks-exact": ("blocks", "exact", 120, 40, 0),
    "blocks-sampled": ("blocks", "sampled", 300, 30, 1),
}

OUTPUTS = ("final_model.json", "dataset.jsonl")

# The same under CPython 3.10, 3.11, 3.12 and 3.13 and under every hash seed tried.
EXPECTED = {
    "vacuum-exact": {
        "final_model.json": "d0be9b62c0c587f778544a55aa6d6e9d2e4ab4e605ac05b1d897453b95dd7b3d",
        "dataset.jsonl": "7435273c46df8844b1be481149fc2486e42cb5a5faf67e2b5b7fb18f64a6f2a8",
        "snapshots": "98d5f1e4ee19a8785052184f26f2b98e5dae29b490b3f794dc8fb5d0cdc1edbd",
    },
    "vacuum-sampled": {
        "final_model.json": "75e8cdb055a2a98f75e2c97e86c6f62d874b42489418e6b2c468c54ff0a331ec",
        "dataset.jsonl": "81ed8ef0d568ee11419b9201df03c8a96ab77f04e77e5d2d8a4c3d64100029e7",
        "snapshots": "6f21633230baf19264179955bc1e464630bd294d9af0343d011945b1e99ec1d0",
    },
    "roads-exact": {
        "final_model.json": "74f7cbd715b8ae63933242633d34c560229141fe916705ee9fdd254153182272",
        "dataset.jsonl": "d0a60c04c922d6d69bec3c844c559c8f513eda83bbf20200432e44aa1540fb55",
        "snapshots": "25714c91217b564361a8cf59e3218d8e12db37ad49af78d682f57b8ca874f9ee",
    },
    "roads-sampled": {
        "final_model.json": "fecfebac402b8a4189a934e5b25e6eb562cc6f85874713e3cd814112be2c27bb",
        "dataset.jsonl": "41cd2a612b82ac0794823d07f52ca98756eee32874a3803002a90247e20fb64a",
        "snapshots": "8211a335aab26878993cb2a589a66464420b345be2d29d57d44edffd2a610e61",
    },
    "roads-random": {
        "final_model.json": "a809c36d46e8013abd8f1a4741048e27ff66ef41ba40ae3ac0ec6f7f991cd28b",
        "dataset.jsonl": "71df0023730953b42d49a683196d604fef094c03ec132049449473fab36ac69c",
        "snapshots": "ae4737e2985a4e9bc5a9f3c516380c451eed44fbddb74219ce4d0cc9d5d0381b",
    },
    "blocks-exact": {
        "final_model.json": "015405c10b4bd8fe7e28006db065d759761a8ccc16510b3cd90592d804df7d30",
        "dataset.jsonl": "6ebc64c906bae715913ef92895892b1b063ba59e7f13a2c48e727598112cb99c",
        "snapshots": "c6fa4ae9a3cd8bb12973faabd6da637f76c26f1e2f8644a4702b466af7c8945f",
    },
    "blocks-sampled": {
        "final_model.json": "361c1e0300c3c956433b7ab773c65d15f52a31f5bde61c5d1df8c6105a6599dd",
        "dataset.jsonl": "b64fb81c7c86a0839e30da355f4ca6bc5a1279fcec997a03808abcc93579b434",
        "snapshots": "521a7bbc5566200a27bb34ee4e518fe421830e414cae66b959d6801f85d13fe0",
    },
}


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    env, variant, iterations, max_queries, seed = CONFIGS[name]
    config = LearnerConfig(
        variant=variant,
        mcts_iterations=iterations,
        depth=6,
        max_queries=max_queries,
        seed=seed,
    )
    run(config, make_environment(env, seed=f"{seed}/env"), out_dir=out_dir)
    digests = {
        out: hashlib.sha256((out_dir / out).read_bytes()).hexdigest() for out in OUTPUTS
    }
    snapshots = sorted(
        (out_dir / "snapshots").glob("query_*.json"), key=lambda p: int(p.stem[len("query_"):])
    )
    digests["snapshots"] = hashlib.sha256(b"".join(p.read_bytes() for p in snapshots)).hexdigest()
    return digests


def all_digests() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}


def main() -> int:
    got = all_digests()
    print(json.dumps(got, indent=2, sort_keys=True))
    changed = sorted(name for name in CONFIGS if got[name] != EXPECTED.get(name))
    if changed:
        print(f"changed digests: {', '.join(changed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
