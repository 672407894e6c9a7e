"""Spans around the program's functions, installed from outside the program.

`install(tracer)` wraps each function named in TARGETS in every `qpmaps`
module that holds it, because modules import names directly: `reduction`
holds its own references to `rank`, `inverse` and `_rref`, `transforms` to
`inverse` and `solve`, `discretization` to `step`.  A wrapper set only on
`qpmaps.linalg.rank` would miss most calls.  Class constructors and
`RationalMatrix.__matmul__` are wrapped on the class.

A span records name, start, end, parent span and op id.  Spans stay in
memory until the run ends; a span's self time is its duration minus the
time its child spans cover, scaled to reference time by its op's factor.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); a dotted attribute names a class member
TARGETS = (
    ("qpmaps.linalg", "rank", "linalg.rank"),
    ("qpmaps.linalg", "_rref", "linalg._rref"),
    ("qpmaps.linalg", "inverse", "linalg.inverse"),
    ("qpmaps.linalg", "solve", "linalg.solve"),
    ("qpmaps.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("qpmaps.linalg", "RationalMatrix.__matmul__", "linalg.matmul"),
    ("qpmaps.linalg", "select_independent_rows",
     "linalg.select_independent_rows"),
    ("qpmaps.linalg", "complete_to_invertible", "linalg.complete_to_invertible"),
    ("qpmaps.transforms", "apply_qm", "transforms.apply_qm"),
    ("qpmaps.transforms", "same_class", "transforms.same_class"),
    ("qpmaps.transforms", "phi", "transforms.phi"),
    ("qpmaps.transforms", "QMTransform.__init__", "transforms.QMTransform"),
    ("qpmaps.transforms", "class_invariant", "transforms.class_invariant"),
    ("qpmaps.reduction", "reduce", "reduction.reduce"),
    ("qpmaps.reduction", "reduce_step1", "reduction.reduce_step1"),
    ("qpmaps.reduction", "reduce_step2", "reduction.reduce_step2"),
    ("qpmaps.reduction", "reduce_step3", "reduction.reduce_step3"),
    ("qpmaps.reduction", "to_lv_canonical", "reduction.to_lv_canonical"),
    ("qpmaps.reduction", "embed", "reduction.embed"),
    ("qpmaps.maps", "step", "maps.step"),
    ("qpmaps.maps", "QPMap.__init__", "maps.QPMap"),
    ("qpmaps.maps", "find_interior_fixed_point",
     "maps.find_interior_fixed_point"),
    ("qpmaps.discretization", "euler_step", "discretization.euler_step"),
    ("qpmaps.discretization", "check_commutativity",
     "discretization.check_commutativity"),
    ("qpmaps.discretization", "check_fixed_point_coincidence",
     "discretization.check_fixed_point_coincidence"),
    ("qpmaps.modelfile", "load_model", "modelfile.load_model"),
    ("qpmaps.cli", "_cmd_simulate", "cli.simulate"),
)

NAME, START, END, PARENT, OP, CHILD = range(6)


def entry_bits(values) -> int:
    """Largest numerator or denominator bit length among some Fractions."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def map_bits(qp) -> int:
    return entry_bits(qp.lam + qp.A.entries + qp.B.entries)


class Tracer:
    """Collects spans while `active`; the wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []
        # op id -> reference seconds per wall second (see refclock.py)
        self.factors: dict[int, float] = {}
        self._stack: list[int] = []
        self.max_entry_bits = 0
        self.probes_compared = 0
        self.states_kept = 0

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack, tracer.spans
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[START], rec[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counts taken from results at the layer boundary."""
        if name == "reduction.reduce":
            self.max_entry_bits = max(self.max_entry_bits,
                                      map_bits(result.final))
        elif name == "reduction.to_lv_canonical":
            self.max_entry_bits = max(self.max_entry_bits,
                                      map_bits(result[0]))
        elif name == "discretization.check_commutativity" \
                and result.mode == "pointwise":
            self.probes_compared += int(result.note.split()[0])
        elif name == "cli.simulate":
            self.states_kept += result[0]["results"]["steps_completed"]

    def calls(self) -> dict[str, int]:
        return dict(Counter(rec[NAME] for rec in self.spans))

    def self_ms(self) -> dict[str, float]:
        """Self time per span name, in reference milliseconds."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            wall = rec[END] - rec[START] - rec[CHILD]
            out[rec[NAME]] += wall * self.factors.get(rec[OP], 1.0) * 1e3
        return dict(out)

    def steps_under(self, ancestor: str) -> int:
        """`maps.step` spans that ran inside a span named `ancestor`."""
        spans = self.spans
        count = 0
        for rec in spans:
            if rec[NAME] != "maps.step":
                continue
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] != ancestor:
                parent = spans[parent][PARENT]
            count += parent >= 0
        return count

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, rec in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": rec[NAME], "start": rec[START],
                     "end": rec[END], "parent": rec[PARENT], "op": rec[OP]})
                    + "\n")


def _holders(original):
    """Every (module, attribute) in the qpmaps package bound to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qpmaps"
                               or mod_name.startswith("qpmaps.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def install(tracer: Tracer):
    """Wrap every target; returns a callable that restores the originals."""
    undo = []
    for mod_name, attr, span in TARGETS:
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[member]
            setattr(cls, member, tracer.wrap(span, original))
            undo.append((cls, member, original))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original)
        for mod, name in _holders(original):
            setattr(mod, name, wrapper)
            undo.append((mod, name, original))

    def uninstall():
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)

    return uninstall
