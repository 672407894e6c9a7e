"""Command-line interface: reduce, canonical, same-class, simulate, discretize.

Reports are JSON documents with a fixed field order (command, inputs,
results, exact_checks, tolerances, timing); everything except the timing
field is byte-deterministic for identical inputs and QP_SEED.  Exit codes
follow the QPError hierarchy: 0 success, 2 input/parse error or failed write,
4 numerical divergence (including an exact value with no float form), and
3 every other library error, such as a mathematical precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .discretization import (
    EULER_FIXED_POINT_TOL,
    JACOBIAN_MATCH_TOL,
    DiscretizationFamily,
    check_commutativity,
    check_fixed_point_coincidence,
    coerce_eps,
    coerce_horizon,
    compare_discretizations,
    euler_discretize,
    qp_discretize,
)
from .errors import (ModelFileError, NotNonRedundantError, OrbitEscapedError,
                     OverflowDivergenceError, QPError)
from .linalg import RationalMatrix, rank
from .maps import QPFlow, State, iterate, mmatrix
from .modelfile import LoadedModel, load_model, parse_state, system_fields
from .reduction import reduce as reduce_map
from .reduction import to_lv_canonical
from .sampling import make_rng, random_invertible_transform, seed_from_env
from .transforms import QMTransform, class_invariant, same_class

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGED = 4

# Most steps one command runs, whether set by `simulate --steps` or by
# `discretize --horizon` over `--eps`.  Every state is kept for the report
# and CSV, so the cap bounds memory as well as time; above it, exit code 2.
MAX_STEPS = 1_000_000


# -- serialization helpers ----------------------------------------------------


def _mat(m: RationalMatrix) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _vec(values) -> list[str]:
    return [str(v) for v in values]


def _constants(constants) -> list[dict]:
    return [{"exponents": _vec(c.exponents), "value": c.value}
            for c in constants]


def _emit(report: dict, out_path: str | None) -> None:
    """Write the report file, then stdout: a failed write prints no report."""
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _check_steps(field: str, value: float, eps: Fraction | None) -> None:
    """Reject a negative or non-finite value, or a run above MAX_STEPS.

    `value` is a step count (eps = 1) or a time horizon covered in steps of
    eps; with eps None only the sign and finiteness are checked.
    """
    span = coerce_horizon(value, field)
    if eps is not None and span / eps > MAX_STEPS:
        raise ModelFileError(f"{value!r} asks for more than the {MAX_STEPS} "
                             "steps allowed", field=field)


def _load_kind(path: str, kind: str) -> LoadedModel:
    loaded = load_model(path)
    if loaded.kind != kind:
        raise ModelFileError(f"expected kind {kind!r}, found {loaded.kind!r}",
                             path=path, field="kind")
    return loaded


def _initial_for(loaded: LoadedModel, args, *,
                 required: bool = False) -> State | None:
    """The --initial state, else the model file's; `required` forbids None."""
    if args.initial is not None:
        fields = args.initial.split(",") if args.initial else []
        return parse_state(fields, loaded.model.n, "--initial")
    if required and loaded.initial is None:
        raise ModelFileError("an initial state is required (flag --initial "
                             "or an 'initial' entry in the model file)",
                             path=loaded.path, field="initial")
    return loaded.initial


# -- subcommands ---------------------------------------------------------------


def _cmd_reduce(args) -> tuple[dict, int]:
    loaded = _load_kind(args.model, "map")
    qp = loaded.model
    initial = _initial_for(loaded, args)
    report_obj = reduce_map(qp, initial)
    final = report_obj.final
    steps = []
    for rec in report_obj.steps:
        steps.append({
            "kind": rec.kind.value,
            "transform_C": _mat(rec.transform.C) if rec.transform else None,
            "decoupled_indices": list(rec.decoupled_indices),
            "q_factors": _vec(rec.q_factors) if rec.q_factors else None,
        })
    results = {
        "already_nonredundant": not report_obj.steps,
        "final": system_fields(final),
        "steps": steps,
        "constants_of_motion": _constants(report_obj.constants),
        "rank_certificates": {
            "n": final.n,
            "m": final.m,
            "rank_B": rank(final.B),
            "rank_M": rank(mmatrix(final)),
        },
    }
    inputs = {
        "model": loaded.path,
        "kind": "map",
        "n": qp.n,
        "m": qp.m,
        "initial": list(initial.x) if initial is not None else None,
    }
    exact = {"rank_certificates_exact": True, "transforms_exact": True}
    return dict(inputs=inputs, results=results, exact_checks=exact), EXIT_OK


def _cmd_canonical(args) -> tuple[dict, int]:
    loaded = _load_kind(args.model, "map")
    qp = loaded.model
    try:
        lv, constants = to_lv_canonical(qp)
    except NotNonRedundantError as err:
        raise NotNonRedundantError(f"{err} (hint: run `qpmaps reduce` first)") \
            from err
    results = {
        "embedded": lv.n > qp.n,
        "class_invariant_BM": _mat(class_invariant(qp)),
        "lv_map": system_fields(lv),
        "constants_of_motion": _constants(constants),
    }
    inputs = {"model": loaded.path, "kind": "map", "n": qp.n, "m": qp.m}
    exact = {"lv_matrix_equals_BM": class_invariant(qp) == mmatrix(lv),
             "B_is_identity": lv.B.is_identity()}
    return dict(inputs=inputs, results=results, exact_checks=exact), EXIT_OK


def _cmd_same_class(args) -> tuple[dict, int]:
    first = _load_kind(args.model1, "map")
    second = _load_kind(args.model2, "map")
    t = same_class(first.model, second.model)
    results = {
        "same_class": t is not None,
        "transform_C": _mat(t.C) if t is not None else None,
    }
    inputs = {
        "models": [first.path, second.path],
        "sizes": [{"n": first.model.n, "m": first.model.m},
                  {"n": second.model.n, "m": second.model.m}],
    }
    exact = {"invariants_compared_exactly": True}
    return dict(inputs=inputs, results=results, exact_checks=exact), EXIT_OK


def _write_csv(path: str, states) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        n = len(states[0]) if states else 0
        writer.writerow(["p"] + [f"x{i + 1}" for i in range(n)])
        for p, s in enumerate(states):
            writer.writerow([p] + [f"{v:.17g}" for v in s])


def _cmd_simulate(args) -> tuple[dict, int]:
    _check_steps("--steps", args.steps, Fraction(1))
    loaded = _load_kind(args.model, "map")
    qp = loaded.model
    initial = _initial_for(loaded, args, required=True)
    diverged_at = None
    divergence_note = None
    try:
        traj = iterate(qp, initial, args.steps)
    except OverflowDivergenceError as err:
        diverged_at = err.step_index
        divergence_note = str(err)
        traj = err.states
    _write_csv(args.out, traj)
    results = {
        "steps_requested": args.steps,
        "steps_completed": len(traj) - 1,
        "diverged_at_step": diverged_at,
        "divergence_note": divergence_note,
        "csv_path": args.out,
        "final_state": list(traj[-1].x),
    }
    inputs = {"model": loaded.path, "kind": "map", "n": qp.n, "m": qp.m,
              "initial": list(initial.x), "steps": args.steps}
    exact = {"coefficients_exact": True}
    code = EXIT_OK if diverged_at is None else EXIT_DIVERGED
    return dict(inputs=inputs, results=results, exact_checks=exact), code


def _commutativity_table(flow: QPFlow, eps: Fraction) -> list[dict]:
    rng = make_rng("cli-commutativity")
    squaring = ([2] + [1] * flow.n)[:flow.n]  # x_1 = y_1**2, the rest kept
    dilation = QMTransform(RationalMatrix.identity(flow.n).scale_cols(squaring))
    transforms = [dilation, random_invertible_transform(rng, flow.n)]
    families = [
        DiscretizationFamily.qp_exp(),
        DiscretizationFamily.power_base(2.0),
        DiscretizationFamily.euler_add(),
        DiscretizationFamily.custom_additive("additive-identity", lambda x: x),
    ]
    rows = []
    for idx, t in enumerate(transforms):
        for fam in families:
            verdict = asdict(check_commutativity(flow, t, eps, fam))
            del verdict["witness"]
            rows.append({"transform_index": idx, "transform_C": _mat(t.C),
                         **verdict})
    return rows


def _cmd_discretize(args) -> tuple[dict, int]:
    loaded = _load_kind(args.model, "flow")
    flow = loaded.model
    eps = coerce_eps(args.eps, "--eps")
    analyses = args.analysis or []
    # the horizon sets a run length only when an orbit is run
    _check_steps("--horizon", args.horizon,
                 eps if "divergence" in analyses else None)
    initial = _initial_for(loaded, args, required="divergence" in analyses)
    results: dict = {"eps": str(eps)}
    if args.scheme in ("qp", "both"):
        results["qp_map"] = system_fields(qp_discretize(flow, eps))
    if args.scheme in ("euler", "both"):
        results["euler_map"] = system_fields(euler_discretize(flow, eps))
    code = EXIT_OK
    if "divergence" in analyses:
        try:
            series = compare_discretizations(flow, eps, initial, args.horizon)
            results["divergence"] = {
                "horizon_time": args.horizon,
                "times": list(series.times),
                "sup_diffs": list(series.sup_diffs),
                "terminal": series.terminal,
            }
        except OrbitEscapedError as err:
            results["divergence"] = {
                "horizon_time": args.horizon,
                "escaped": {"scheme": err.scheme, "step": err.step_index,
                            "note": str(err)},
            }
            code = EXIT_DIVERGED
    if "fixed-point" in analyses:
        rep = check_fixed_point_coincidence(flow, eps)
        ok = rep.status == "ok"  # a skipped check has no verdicts
        results["fixed_point"] = {
            **asdict(rep),
            "euler_fixes_point": rep.euler_fixes_point if ok else None,
            "jacobians_match": rep.jacobians_match if ok else None}
    if "commutativity" in analyses:
        results["commutativity"] = _commutativity_table(flow, eps)
    inputs = {"model": loaded.path, "kind": "flow", "n": flow.n, "m": flow.m,
              "eps": str(eps), "scheme": args.scheme,
              "analyses": sorted(analyses), "seed": seed_from_env()}
    exact = {"discretized_coefficients_exact": True,
             "commutativity_matrix_checks_exact": "commutativity" in analyses}
    tolerances = {"euler_fixed_point": EULER_FIXED_POINT_TOL,
                  "jacobian_match": JACOBIAN_MATCH_TOL}
    return dict(inputs=inputs, results=results, exact_checks=exact,
                tolerances=tolerances), code


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpmaps",
        description="Quasipolynomial mapping toolkit: reduction, canonical "
                    "forms, class equivalence, simulation and discretization "
                    "analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="write the primary output file here")

    p = sub.add_parser("reduce", help="reduce a map to non-redundant form")
    p.add_argument("model")
    p.add_argument("--initial", default=None,
                   help="comma-separated positive decimals")
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("canonical",
                       help="Lotka-Volterra canonical form of a map")
    p.add_argument("model")
    add_common(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("same-class",
                       help="decide whether two maps are equivalent")
    p.add_argument("model1")
    p.add_argument("model2")
    add_common(p)
    p.set_defaults(func=_cmd_same_class)

    p = sub.add_parser("simulate", help="iterate a map and write a CSV orbit")
    p.add_argument("model")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--initial", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("discretize",
                       help="discretize a flow and run comparisons")
    p.add_argument("model")
    p.add_argument("--eps", required=True,
                   help="positive rational time step, e.g. 1/50 or 0.02")
    p.add_argument("--scheme", choices=["qp", "euler", "both"], default="both")
    p.add_argument("--analysis", action="append",
                   choices=["divergence", "fixed-point", "commutativity"],
                   help="repeatable analysis selector")
    p.add_argument("--horizon", type=float, default=1.0,
                   help="physical time horizon for divergence analysis")
    p.add_argument("--initial", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_discretize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "simulate" and args.out is None:
        print("qpmaps simulate: --out CSV path is required", file=sys.stderr)
        return EXIT_INPUT
    started = time.perf_counter()
    try:  # args.func is read per call, so a wrapped _cmd_* is what runs
        sections, code = args.func(args)
        report = {"command": args.command, **sections,
                  "tolerances": sections.get("tolerances", {}),
                  "timing": {"seconds": round(time.perf_counter() - started, 6)}}
        _emit(report, args.out if args.command != "simulate" else None)
    except ModelFileError as err:
        print(f"qpmaps: input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:  # model files are read with their own errors
        print(f"qpmaps: input error: cannot write {err.filename}: "
              f"{err.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except (OverflowDivergenceError, OrbitEscapedError) as err:
        print(f"qpmaps: divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except QPError as err:  # every other library error
        print(f"qpmaps: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
