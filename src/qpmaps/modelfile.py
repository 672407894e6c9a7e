"""Model files: JSON documents holding exact map/flow matrices.

Rationals travel as strings ("2", "-1/3") or JSON integers so that exact data
is never contaminated by floats; the optional initial state uses decimal
strings or numbers.  Every validation failure carries the path and a field
locator like "A[0][1]".

Schema (top-level keys):
    kind: "map" | "flow"
    n, m: integers
    lambda: n rational strings
    A: n x m rational strings
    B: m x n rational strings
    initial: n decimal strings (optional)
    name, description: free text (optional)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import (ModelFileError, NonPositiveStateError,
                     NotApplicableError, QPError)
from .linalg import RationalMatrix
from .maps import QPFlow, QPMap, QPSystem, State

_ALLOWED_KEYS = {"kind", "n", "m", "lambda", "A", "B", "initial",
                 "name", "description"}


@dataclass(frozen=True)
class LoadedModel:
    kind: str
    model: QPSystem
    initial: State | None
    name: str | None
    description: str | None
    path: str


def _rational(value, field: str, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ModelFileError(
            f"expected a rational string or integer, got {value!r}",
            path=path, field=field)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as err:
        raise ModelFileError(f"invalid rational {value!r} ({err})",
                             path=path, field=field) from err


def _rational_vector(raw, length: int, field: str, path: str):
    if not isinstance(raw, list) or len(raw) != length:
        raise ModelFileError(f"expected a list of {length} rationals",
                             path=path, field=field)
    return tuple(_rational(v, f"{field}[{i}]", path) for i, v in enumerate(raw))


def _rational_matrix(raw, rows: int, cols: int, field: str,
                     path: str) -> RationalMatrix:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ModelFileError(f"expected {rows} rows", path=path, field=field)
    data = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise ModelFileError(f"expected {cols} entries",
                                 path=path, field=f"{field}[{i}]")
        data.append([_rational(v, f"{field}[{i}][{j}]", path)
                     for j, v in enumerate(row)])
    return RationalMatrix.from_rows(data, cols=cols)


def parse_state(raw, n: int, field: str, path: str | None = None) -> State:
    """A list of n decimals as a State; every failure, an empty entry
    included, raises ModelFileError naming `field` (a key or a flag)."""
    if not isinstance(raw, list) or len(raw) != n:
        raise ModelFileError(f"expected a list of {n} decimals",
                             path=path, field=field)
    vals = []
    for i, v in enumerate(raw):
        try:
            vals.append(float(v))
        except (TypeError, ValueError, OverflowError) as err:
            raise ModelFileError(f"invalid decimal {v!r}", path=path,
                                 field=f"{field}[{i}]") from err
    try:
        return State(tuple(vals))
    except NonPositiveStateError as err:
        raise ModelFileError(str(err), path=path, field=field) from err


def parse_model(doc: dict, path: str = "<memory>") -> LoadedModel:
    if not isinstance(doc, dict):
        raise ModelFileError("top-level value must be an object", path=path)
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise ModelFileError(f"unknown keys {sorted(unknown)}", path=path)
    for key in ("kind", "n", "m", "lambda", "A", "B"):
        if key not in doc:
            raise ModelFileError("required key missing", path=path, field=key)
    kind = doc["kind"]
    if kind not in ("map", "flow"):
        raise ModelFileError(f"kind must be 'map' or 'flow', got {kind!r}",
                             path=path, field="kind")
    n, m = doc["n"], doc["m"]
    for label, v in (("n", n), ("m", m)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ModelFileError(f"{label} must be a nonnegative integer",
                                 path=path, field=label)
    lam = _rational_vector(doc["lambda"], n, "lambda", path)
    a = _rational_matrix(doc["A"], n, m, "A", path)
    b = _rational_matrix(doc["B"], m, n, "B", path)
    try:
        model = (QPMap if kind == "map" else QPFlow)(lam, a, b)
    except QPError as err:
        raise ModelFileError(f"matrices do not form a valid {kind}: {err}",
                             path=path, field="B") from err
    initial = None
    if doc.get("initial") is not None:
        initial = parse_state(doc["initial"], n, "initial", path=path)
    return LoadedModel(kind=kind, model=model, initial=initial,
                       name=doc.get("name"), description=doc.get("description"),
                       path=path)


def load_model(path: str | Path) -> LoadedModel:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ModelFileError(f"cannot read file: {err}", path=str(p)) from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelFileError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}",
            path=str(p)) from err
    return parse_model(doc, path=str(p))


def system_fields(model: QPSystem) -> dict:
    """The sizes and exact matrices of any system, as document fields."""
    return {
        "n": model.n,
        "m": model.m,
        "lambda": [str(v) for v in model.lam],
        "A": [[str(v) for v in model.A.row(i)] for i in range(model.n)],
        "B": [[str(v) for v in model.B.row(j)] for j in range(model.m)],
    }


def model_document(model: QPSystem, initial: State | None = None,
                   name: str | None = None,
                   description: str | None = None) -> dict:
    """Serializable document for a map or flow; inverse of parse_model."""
    if not isinstance(model, (QPMap, QPFlow)):  # e.g. an Euler map
        raise NotApplicableError(f"the model-file format has no kind for a "
                                 f"{type(model).__name__}; save maps or flows")
    doc = {"kind": "flow" if isinstance(model, QPFlow) else "map",
           **system_fields(model)}
    if initial is not None:
        doc["initial"] = [repr(v) for v in initial]
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    return doc


def save_model(model: QPSystem, path: str | Path,
               initial: State | None = None, name: str | None = None,
               description: str | None = None) -> None:
    doc = model_document(model, initial=initial, name=name,
                         description=description)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
