"""Per-layer metrics: their names, and the fixed-input rows of each layer.

Span metrics (`.calls`, `.self_ms` and the counts taken at layer
boundaries) come from the traced passes in run.py.  The rows measured here
time one layer on fixed seeded inputs, untraced, as the median of a few
repetitions in reference time (see refclock.py); they include the ROADMAP
baseline rows.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter

import qpmaps
from qpmaps import linalg, reduction
from qpmaps.sampling import (
    random_nonredundant_map,
    random_qp_map,
    random_rational_matrix,
)

import refclock
import tracing
import workloads
from paths import ROOT

KERNEL_SIZES = (4, 8, 16, 32)
REDUCE_SIZES = (4, 6, 8, 10)
STEP1_SIZES = (6, 10, 14)
ORBIT_SIZES = (2, 8, 16)
CLI_COMMANDS = {"reduce": "reduce-n12", "canonical": "canonical-n12",
                "same-class": "same-class-n12", "simulate": "simulate-n8-a",
                "discretize": "discretize-n4"}

# (span name, report .self_ms too) for every span reported by count
SPAN_METRICS = (
    ("linalg.rank", True), ("linalg._rref", True), ("linalg.inverse", True),
    ("linalg.solve", True), ("linalg.kernel_basis", True),
    ("linalg.matmul", True), ("linalg.select_independent_rows", True),
    ("linalg.complete_to_invertible", True),
    ("transforms.apply_qm", True), ("transforms.same_class", True),
    ("transforms.phi", True), ("transforms.QMTransform", True),
    ("transforms.class_invariant", False),
    ("reduction.reduce_step1", True), ("reduction.reduce_step2", True),
    ("reduction.reduce_step3", True), ("reduction.to_lv_canonical", True),
    ("reduction.embed", True),
    ("maps.step", False), ("maps.QPMap", True),
    ("maps.find_interior_fixed_point", True),
    ("discretization.euler_step", True),
    ("discretization.check_commutativity", True),
    ("discretization.check_fixed_point_coincidence", True),
    ("modelfile.load_model", True),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    spec = []
    for span, timed in SPAN_METRICS:
        spec.append((f"{span}.calls", "count", "lower"))
        if timed:
            spec.append((f"{span}.self_ms", "ms", "lower"))
    spec += [
        ("linalg.max_entry_bits", "bits", "lower"),
        ("discretization.check_commutativity.probes_compared", "count",
         "higher"),
        ("maps.step.useful_ratio", "ratio", "higher"),
    ]
    for n in KERNEL_SIZES:
        spec += [(f"linalg.kernel.rank_ms.n{n}", "ms", "lower"),
                 (f"linalg.kernel.inverse_ms.n{n}", "ms", "lower"),
                 (f"linalg.kernel.matmul_ms.n{n}", "ms", "lower"),
                 (f"linalg.kernel.inverse_bits.n{n}", "bits", "lower")]
    spec += [(f"reduction.reduce.ms.n{n}", "ms", "lower") for n in REDUCE_SIZES]
    spec.append(("reduction.to_lv_canonical_ms.n14m17", "ms", "lower"))
    spec += [(f"reduction.reduce_step1_ms.n{n}", "ms", "lower")
             for n in STEP1_SIZES]
    spec += [(f"maps.iterate.us_per_step.{kind}.n{n}", "us", "lower")
             for kind in ("lv", "gen") for n in ORBIT_SIZES]
    spec += [(f"maps.jacobian.us_per_call.n{n}", "us", "lower")
             for n in ORBIT_SIZES]
    spec += [(f"discretization.compare_discretizations.us_per_step.n{n}",
              "us", "lower") for n in workloads.FLOW_SIZES]
    spec += [("cli.interpreter_ms", "ms", "lower"),
             ("cli.import_ms", "ms", "lower")]
    for cmd in CLI_COMMANDS:
        spec += [(f"cli.{cmd}.inproc_ms", "ms", "lower"),
                 (f"cli.{cmd}.wall_ms", "ms", "lower")]
    spec += [("cli.report_bytes", "bytes", "lower"),
             ("trace.untraced_ops_per_s", "1/s", "higher"),
             ("trace.traced_ops_per_s", "1/s", "higher"),
             ("trace.slowdown", "ratio", "lower"),
             ("trace.calls_repeat", "count", "higher")]
    return spec


def median_ms(fn, reps: int) -> float:
    """Median of `reps` calls of `fn`, in reference milliseconds."""
    times = []
    before = refclock.sample()
    for _ in range(reps):
        start = perf_counter()
        fn()
        wall = perf_counter() - start
        after = refclock.sample()
        times.append(refclock.scale(wall, before, after))
        before = after
    return statistics.median(times) * 1e3


def kernel_rows(rng: random.Random) -> dict[str, float]:
    rows = {}
    for n in KERNEL_SIZES:
        mat = random_rational_matrix(rng, n, n)
        while linalg.rank(mat) < n:
            mat = random_rational_matrix(rng, n, n)
        reps = 3 if n == 32 else 5
        rows[f"linalg.kernel.rank_ms.n{n}"] = median_ms(
            lambda: linalg.rank(mat), reps)
        rows[f"linalg.kernel.inverse_ms.n{n}"] = median_ms(
            lambda: linalg.inverse(mat), reps)
        rows[f"linalg.kernel.matmul_ms.n{n}"] = median_ms(
            lambda: mat @ mat, reps)
        rows[f"linalg.kernel.inverse_bits.n{n}"] = tracing.entry_bits(
            linalg.inverse(mat).entries)
    return rows


def reduction_rows(rng: random.Random) -> dict[str, float]:
    rows = {}
    for n in REDUCE_SIZES:
        maps = [workloads.redundant_map(rng, n, n + 1 + j % 3, 1 + j % 2,
                                        1 + (j + 1) % 2) for j in range(3)]
        times = [median_ms(lambda: reduction.reduce(qp), 1) for qp in maps]
        rows[f"reduction.reduce.ms.n{n}"] = statistics.median(times)
    qp = random_nonredundant_map(rng, 14, 17)
    rows["reduction.to_lv_canonical_ms.n14m17"] = median_ms(
        lambda: reduction.to_lv_canonical(qp), 3)
    for n in STEP1_SIZES:
        qp = random_qp_map(rng, n, n - 2)
        rows[f"reduction.reduce_step1_ms.n{n}"] = median_ms(
            lambda: reduction.reduce_step1(qp), 3)
    return rows


def float_rows(rng: random.Random) -> dict[str, float]:
    rows = {}
    for n in ORBIT_SIZES:
        steps = workloads.MAP_STEPS[n]
        (lv, s0), (hidden, y0) = workloads.orbit_maps(rng, n, steps)
        for kind, qp, start in (("lv", lv, s0), ("gen", hidden, y0)):
            rows[f"maps.iterate.us_per_step.{kind}.n{n}"] = median_ms(
                lambda: qpmaps.iterate(qp, start, steps), 3) * 1e3 / steps
        rows[f"maps.jacobian.us_per_call.n{n}"] = median_ms(
            lambda: [qpmaps.jacobian(lv, s0) for _ in range(20)], 3) * 1e3 / 20
    eps, horizon = workloads.FLOW_EPS, workloads.FLOW_HORIZON
    steps = int(horizon / eps)
    for n in workloads.FLOW_SIZES:
        flow = workloads.lv_flow(rng, n)
        s0 = qpmaps.State((1.1,) * n)
        rows[f"discretization.compare_discretizations.us_per_step.n{n}"] = \
            median_ms(lambda: qpmaps.compare_discretizations(
                flow, eps, s0, horizon), 3) * 1e3 / steps
    return rows


def cli_rows(seed: int) -> dict[str, float]:
    cli = workloads.Cli()
    cases = {case.name: case for case in cli.setup(seed)}
    env = workloads.child_env(seed)

    def python(code: str) -> None:
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=120)

    interpreter = median_ms(lambda: python("pass"), 5)
    rows = {"cli.interpreter_ms": interpreter,
            "cli.import_ms": median_ms(lambda: python("import qpmaps"), 5)
            - interpreter}
    report_bytes = 0
    for cmd, name in CLI_COMMANDS.items():
        case = cases[name]
        rows[f"cli.{cmd}.inproc_ms"] = median_ms(
            lambda: cli.run_inproc(case), 3)
        rows[f"cli.{cmd}.wall_ms"] = median_ms(lambda: cli.run(case), 3)
        report_bytes += len(cli.run(case)[1].encode())
    rows["cli.report_bytes"] = report_bytes
    return rows


def measure_rows(seed: int) -> dict[str, float]:
    """All fixed-input rows, untraced; the same seed gives the same inputs."""
    rng = random.Random(f"{seed}:layers")
    rows = kernel_rows(rng)
    rows.update(reduction_rows(rng))
    rows.update(float_rows(rng))
    rows.update(cli_rows(seed))
    return rows
