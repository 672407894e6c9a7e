"""Experiment-script output, pinned byte for byte.

`scripts/commutativity_probe.py` runs every discretization family kind
through `check_commutativity`, on exact-matrix and pointwise routes alike.
Its golden stdout is in `tests/golden_scripts/`; to regenerate it after a
deliberate change, run from the repository root:

    PYTHONPATH=src python scripts/commutativity_probe.py \
        > tests/golden_scripts/commutativity_probe.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_scripts"


def test_commutativity_probe_stdout_matches_golden():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("QP_SEED", None)
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "commutativity_probe.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    golden = (GOLDEN / "commutativity_probe.txt").read_text(encoding="utf-8")
    assert run.stdout == golden
