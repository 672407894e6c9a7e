"""CLI reports on the example models, pinned byte for byte.

Each case runs one `qpmaps` command in-process from the repository root, so
model paths in the reports are relative.  The golden file holds the exit
code, stderr and the report with its `timing` field removed; `simulate`
cases also pin the orbit CSV.  To regenerate the files after a deliberate
change of the report contract, run this module as a script from any
directory:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

LV = "models/lv_2d.json"
WORKED = "models/worked_reduction.json"
FLOW = "models/logistic_flow.json"
ALL_ANALYSES = ("--analysis", "divergence", "--analysis", "fixed-point",
                "--analysis", "commutativity")

CASES = {
    "reduce-lv_2d": ("reduce", LV),
    "reduce-lv_2d-initial": ("reduce", LV, "--initial", "1.5,0.25"),
    "reduce-worked": ("reduce", WORKED),
    "reduce-worked-initial": ("reduce", WORKED, "--initial", "1.3,0.7,2.1"),
    "canonical-lv_2d": ("canonical", LV),
    "canonical-worked": ("canonical", WORKED),
    "same-class-lv_2d-lv_2d": ("same-class", LV, LV),
    "same-class-lv_2d-worked": ("same-class", LV, WORKED),
    "same-class-worked-worked": ("same-class", WORKED, WORKED),
    "simulate-lv_2d": ("simulate", LV, "--steps", "40"),
    "simulate-worked": ("simulate", WORKED, "--steps", "40",
                        "--initial", "1.1,0.8,1.9"),
    "discretize-flow-all": ("discretize", FLOW, "--eps", "1/10",
                            *ALL_ANALYSES),
    "discretize-flow-horizon": ("discretize", FLOW, "--eps", "0.05",
                                "--horizon", "3", "--scheme", "euler",
                                *ALL_ANALYSES),
    "discretize-flow-qp": ("discretize", FLOW, "--eps", "1/4",
                           "--scheme", "qp"),
}


def render(argv: tuple[str, ...], scratch: Path) -> dict[str, str]:
    """Run one command; return the texts to pin, keyed by file suffix."""
    from qpmaps.cli import main

    case = list(argv)
    csv_path = scratch / "orbit.csv"
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(csv_path)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    texts = {}
    if report is not None:
        report.pop("timing")
        if argv[0] == "simulate":
            report["results"]["csv_path"] = csv_path.name
            texts[".csv"] = csv_path.read_text(encoding="utf-8")
    texts[".json"] = json.dumps(
        {"argv": case, "exit_code": code, "stderr": err.getvalue(),
         "report": report}, indent=2) + "\n"
    return texts


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("QP_SEED", raising=False)
    for suffix, text in render(CASES[name], tmp_path).items():
        golden = (GOLDEN / f"{name}{suffix}").read_text(encoding="utf-8")
        assert text == golden, f"{name}{suffix} differs from its golden file"


def test_every_golden_file_has_a_case():
    names = {p.name.rsplit(".", 1)[0] for p in GOLDEN.iterdir()}
    assert names == set(CASES)


def _regenerate() -> None:
    os.environ.pop("QP_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in CASES.items():
            for suffix, text in render(argv, Path(scratch)).items():
                (GOLDEN / f"{name}{suffix}").write_text(text, encoding="utf-8")
                print(f"wrote {name}{suffix}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
