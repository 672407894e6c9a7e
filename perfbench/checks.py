"""Output checks written independently of the code under test.

Exact results are checked with this file's own `Fraction` rank and matrix
product, float results with this file's own map and Euler step; only the
replay of a reduction's recorded steps calls the program (`replay_steps`).
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

STEP_RTOL = 1e-12        # one map step, benchmark step against the program's
FD_RTOL = 1e-5           # analytic Jacobian against a central difference
FIXED_POINT_RTOL = 1e-9  # residual of a reported interior fixed point
REPORT_FIELDS = ("command", "inputs", "results", "exact_checks",
                 "tolerances", "timing")


# -- exact algebra ---------------------------------------------------------------


def rows_of(mat) -> list[list[Fraction]]:
    """Row lists of a RationalMatrix, read straight from its entries."""
    e, c = mat.entries, mat.cols
    return [list(e[i * c:(i + 1) * c]) for i in range(mat.rows)]


def coefficient_rows(qp) -> list[list[Fraction]]:
    """Rows of (lam | A) for a map."""
    return [[lam] + row for lam, row in zip(qp.lam, rows_of(qp.A))]


def frac_matmul(a: list[list[Fraction]], b: list[list[Fraction]],
                inner: int) -> list[list[Fraction]]:
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for i in range(len(a))]


def frac_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def identity_rows(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def check_exact(case, out) -> list[str]:
    """reduce -> to_lv_canonical -> same_class on one redundant map."""
    from qpmaps import replay_steps

    report, lv, copy, found = out
    final = report.final
    n, m = final.n, final.m
    problems = []
    if replay_steps(case.qp, report.steps) != final:
        problems.append("replaying the recorded steps does not give final")
    bm = frac_matmul(rows_of(final.B), coefficient_rows(final), n)
    if m < n or frac_rank(rows_of(final.B)) != n \
            or frac_rank(coefficient_rows(final)) != n:
        problems.append("final map is not non-redundant")
    if rows_of(lv.B) != identity_rows(lv.n):
        problems.append("Lotka-Volterra form does not have B = I")
    if coefficient_rows(lv) != bm:
        problems.append("Lotka-Volterra (lam | A) differs from B (lam | A)")
    if found is None:
        problems.append("same_class missed a transformed copy")
    else:
        c = rows_of(found.C)
        if frac_matmul(rows_of(final.B), c, n) != rows_of(copy.B) \
                or frac_matmul(c, coefficient_rows(copy), n) \
                != coefficient_rows(final):
            problems.append("same_class transform does not reproduce the copy")
    return problems


# -- float dynamics ---------------------------------------------------------------


def float_rows(mat) -> list[list[float]]:
    return [[float(v) for v in row] for row in rows_of(mat)]


def float_system(qp, scale: Fraction = Fraction(1)):
    """(lam, A, B) as floats; `scale` is the time step of a discretized flow."""
    if hasattr(qp, "lam_star"):
        lam, a = qp.lam_star, qp.A_star
    else:
        lam, a = qp.lam, qp.A
    return ([float(scale * v) for v in lam],
            [[float(scale * v) for v in row] for row in rows_of(a)],
            float_rows(qp.B))


def _fields(system, x) -> list[float]:
    lam, a, b = system
    logs = [math.log(v) for v in x]
    q = [math.exp(math.fsum(e * lx for e, lx in zip(row, logs))) for row in b]
    return [math.fsum([lam[i]] + [c * qj for c, qj in zip(a[i], q)])
            for i in range(len(lam))]


def qp_step(system, x) -> list[float]:
    return [xi * math.exp(f) for xi, f in zip(x, _fields(system, x))]


def euler_step(system, x) -> list[float]:
    return [xi * (1.0 + f) for xi, f in zip(x, _fields(system, x))]


def power_product(rows: list[list[float]], x) -> list[float]:
    logs = [math.log(v) for v in x]
    return [math.exp(math.fsum(c * lx for c, lx in zip(row, logs)))
            for row in rows]


def close(a, b, rtol: float) -> bool:
    return all(abs(u - v) <= rtol * max(abs(v), 1e-300) for u, v in zip(a, b))


def positive_finite(states) -> bool:
    return all(math.isfinite(v) and v > 0.0 for s in states for v in s)


def _step_problems(step_fn, system, states, sample, label) -> list[str]:
    return [f"{label}: independent step from state {p} misses state {p + 1}"
            for p in sample
            if not close(step_fn(system, states[p]), states[p + 1], STEP_RTOL)]


def _fd_jacobian(system, x, h_rel: float = 1e-5) -> list[list[float]]:
    n = len(x)
    cols = []
    for l in range(n):
        h = h_rel * x[l]
        up = list(x)
        down = list(x)
        up[l] += h
        down[l] -= h
        fu, fd = qp_step(system, up), qp_step(system, down)
        cols.append([(fu[i] - fd[i]) / (2 * h) for i in range(n)])
    return [[cols[l][i] for l in range(n)] for i in range(n)]


def check_map_task(task, out) -> list[str]:
    """iterate + jacobian on a bounded chaotic map."""
    traj, jacs = out
    states = [s.x for s in traj]
    system = float_system(task.qp)
    problems = []
    if len(states) != task.steps + 1:
        problems.append(f"orbit has {len(states)} states, wanted {task.steps + 1}")
    if not positive_finite(states):
        problems.append("orbit has a state that is not positive and finite")
        return problems
    problems += _step_problems(qp_step, system, states, task.sample, task.name)
    for p, jac in zip(task.jac_at, jacs):
        fd = _fd_jacobian(system, states[p])
        scale = max(1.0, max(abs(v) for row in fd for v in row))
        if any(abs(a - b) > FD_RTOL * scale
               for ra, rb in zip(jac, fd) for a, b in zip(ra, rb)):
            problems.append(f"{task.name}: jacobian at state {p} disagrees "
                            "with a central difference")
    return problems


def check_compare_task(task, series) -> list[str]:
    """compare_discretizations: both orbits and their sup-norm gaps."""
    qp_states, eu_states = series.qp_states, series.euler_states
    steps = len(series.times) - 1
    problems = []
    if steps != task.steps or len(qp_states) != steps + 1 \
            or len(eu_states) != steps + 1:
        problems.append(f"{task.name}: series has {steps} steps, "
                        f"wanted {task.steps}")
        return problems
    if not (positive_finite(qp_states) and positive_finite(eu_states)):
        problems.append(f"{task.name}: a state is not positive and finite")
        return problems
    system = float_system(task.flow, series.eps)
    problems += _step_problems(qp_step, system, qp_states, task.sample,
                               task.name + " qp")
    problems += _step_problems(euler_step, system, eu_states, task.sample,
                               task.name + " euler")
    for p in task.sample:
        gap = max(abs(a - b) for a, b in zip(qp_states[p], eu_states[p]))
        if series.sup_diffs[p] != gap:
            problems.append(f"{task.name}: sup_diffs[{p}] is not the gap")
    return problems


def check_fixed_point_task(task, rep) -> list[str]:
    """check_fixed_point_coincidence: the reported point is fixed by both."""
    if rep.status != "ok" or rep.fixed_point is None:
        return [f"{task.name}: fixed point skipped ({rep.reason})"]
    system = float_system(task.flow, task.eps)
    fp = rep.fixed_point
    problems = []
    for label, step_fn in (("qp", qp_step), ("euler", euler_step)):
        if not close(step_fn(system, fp), fp, FIXED_POINT_RTOL):
            problems.append(f"{task.name}: {label} step moves the fixed point")
    return problems


def check_commute_task(task, verdict) -> list[str]:
    """Pointwise Euler check: recompute the worst discrepancy at its witness."""
    n = task.flow.n
    if verdict.mode != "pointwise":
        return [f"{task.name}: mode {verdict.mode!r}, wanted pointwise"]
    compared = int(verdict.note.split()[0])
    if not 1 <= compared <= 3 ** n:
        return [f"{task.name}: {compared} probes compared, grid has {3 ** n}"]
    c = rows_of(task.t.C)
    c_inv = rows_of(task.t.c_inv)
    if frac_matmul(c, c_inv, n) != identity_rows(n):
        return [f"{task.name}: transform inverse is wrong"]
    if verdict.witness is None:
        return [] if verdict.max_discrepancy == 0.0 else \
            [f"{task.name}: discrepancy without a witness"]
    lam = [[v] for v in task.flow.lam_star]
    lam_t = [r[0] for r in frac_matmul(c_inv, lam, n)]
    a_t = frac_matmul(c_inv, rows_of(task.flow.A_star), n)
    b_t = frac_matmul(rows_of(task.flow.B), c, n)
    eps = task.eps
    flow_sys = float_system(task.flow, eps)
    moved_sys = ([float(eps * v) for v in lam_t],
                 [[float(eps * v) for v in row] for row in a_t],
                 [[float(v) for v in row] for row in b_t])
    z = list(verdict.witness)
    route_a = euler_step(moved_sys, z)
    x = power_product([[float(v) for v in row] for row in c], z)
    route_b = power_product([[float(v) for v in row] for row in c_inv],
                            euler_step(flow_sys, x))
    gap = max(abs(a - b) for a, b in zip(route_a, route_b))
    scale = max(1.0, max(abs(v) for v in route_a))
    if abs(gap - verdict.max_discrepancy) > 1e-9 * scale:
        return [f"{task.name}: discrepancy {verdict.max_discrepancy!r} at the "
                f"witness recomputes to {gap!r}"]
    return []


# -- command line -------------------------------------------------------------------


def check_cli(case, out) -> list[str]:
    """Exit code, report structure and the fields each subcommand promises."""
    code, stdout = out
    problems = []
    if code != case.expect_code:
        problems.append(f"{case.name}: exit code {code}, wanted {case.expect_code}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + [f"{case.name}: stdout is not a JSON report"]
    keys = [k for k in doc if k in REPORT_FIELDS]
    if tuple(keys) != REPORT_FIELDS:
        problems.append(f"{case.name}: report fields {list(doc)}")
        return problems
    if doc["command"] != case.command:
        problems.append(f"{case.name}: command {doc['command']!r}")
    if not all(v is True for v in doc["exact_checks"].values()):
        problems.append(f"{case.name}: exact_checks {doc['exact_checks']}")
    res = doc["results"]
    if case.command == "reduce":
        problems += _check_reduce_report(case, res)
    elif case.command == "same-class" and res.get("same_class") is not True:
        problems.append(f"{case.name}: same_class is not true")
    elif case.command == "simulate":
        problems += _check_simulate_report(case, res)
    elif case.command == "discretize":
        missing = {"divergence", "fixed_point", "commutativity"} - set(res)
        if missing:
            problems.append(f"{case.name}: analyses missing {sorted(missing)}")
    return problems


def _check_reduce_report(case, res) -> list[str]:
    cert = res["rank_certificates"]
    n = cert["n"]
    final = res["final"]
    b = [[Fraction(v) for v in row] for row in final["B"]]
    m_rows = [[Fraction(lam)] + [Fraction(v) for v in row]
              for lam, row in zip(final["lambda"], final["A"])]
    if not (cert["rank_B"] == cert["rank_M"] == n == final["n"]):
        return [f"{case.name}: rank certificates {cert}"]
    if frac_rank(b) != n or frac_rank(m_rows) != n or final["m"] < n:
        return [f"{case.name}: reported final map is not non-redundant"]
    return []


def _check_simulate_report(case, res) -> list[str]:
    problems = []
    diverged = res["diverged_at_step"] is not None
    if diverged != (case.expect_code == 4):
        problems.append(f"{case.name}: diverged_at_step {res['diverged_at_step']}")
    with open(case.csv_path, newline="", encoding="utf-8") as handle:
        rows = sum(1 for _ in csv.reader(handle)) - 1
    if rows != res["steps_completed"] + 1:
        problems.append(f"{case.name}: CSV has {rows} states for "
                        f"{res['steps_completed']} steps")
    return problems
