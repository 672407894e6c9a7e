"""Locations inside the checkout, and the guard that the program is present."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
# Generated models, orbit CSVs, span dumps and result files; git-ignored.
WORK = ROOT / ".perfbench"

_REQUIRED = (SRC / "qpmaps" / "__init__.py", SRC / "qpmaps" / "cli.py",
             MODELS / "lv_2d.json", MODELS / "worked_reduction.json",
             MODELS / "logistic_flow.json")


def require_program() -> None:
    """Put `src` on the import path, or exit 2 when the sources are absent."""
    missing = [str(p.relative_to(ROOT)) for p in _REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
