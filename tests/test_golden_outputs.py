"""Byte-identity of learner outputs across processes with different hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .golden_outputs import EXPECTED

SCRIPT = Path(__file__).with_name("golden_outputs.py")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_outputs_match_pinned_digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=120
    )
    got = json.loads(proc.stdout)
    assert got == EXPECTED, proc.stderr
    assert proc.returncode == 0, proc.stderr
