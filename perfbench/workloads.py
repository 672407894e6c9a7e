"""Seeded inputs, one operation and its check, for each workload.

Every workload is a closed loop with one caller: the cycle returned by
`setup(seed)` is run op after op, the next op starting when the previous
one returns.  The same seed gives the same cycle.  Why each workload exists
is written down in README.md.
"""

from __future__ import annotations

import compileall
import contextlib
import io
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import qpmaps
from qpmaps import (
    DiscretizationFamily,
    QMTransform,
    QPFlow,
    QPMap,
    State,
    apply_qm,
    iterate,
    phi,
)
from qpmaps import cli as qpcli
from qpmaps.errors import OverflowDivergenceError
from qpmaps.linalg import RationalMatrix, hstack, vstack
from qpmaps.modelfile import save_model
from qpmaps.sampling import (
    random_fraction,
    random_invertible_transform,
    random_nonredundant_map,
    random_positive_state,
    random_rational_matrix,
    random_unimodular_matrix,
)

import checks
from paths import ROOT, SRC, WORK

ANALYSES = ["--analysis", "divergence", "--analysis", "fixed-point",
            "--analysis", "commutativity"]


# -- seeded generators ------------------------------------------------------------


def redundant_map(rng: random.Random, n: int, m: int, n_const: int,
                  n_kernel: int) -> QPMap:
    """A non-redundant n x m core padded with conserved and kernel variables.

    Conserved variables get zero coefficient rows and random exponent
    columns; kernel variables get random dynamics and zero exponent columns.
    A random unimodular change of variables then hides the structure.
    """
    core = random_nonredundant_map(rng, n, m)
    extra = RationalMatrix.from_rows(
        [[Fraction(rng.randint(-2, 2)) for _ in range(n_const)]
         for _ in range(m)], cols=n_const)
    b = hstack(hstack(core.B, extra), RationalMatrix.zeros(m, n_kernel))
    lam = (core.lam + (Fraction(0),) * n_const
           + tuple(random_fraction(rng, 2, 2) for _ in range(n_kernel)))
    a = vstack(vstack(core.A, RationalMatrix.zeros(n_const, m)),
               random_rational_matrix(rng, n_kernel, m, 2, 2))
    size = n + n_const + n_kernel
    hide = QMTransform(random_unimodular_matrix(rng, size))
    return apply_qm(QPMap(lam=lam, A=a, B=b), hide)


def ricker_map(rng: random.Random, n: int) -> QPMap:
    """LV map x' = x exp(lam + A x) with fixed point 1: chaotic, bounded.

    Each diagonal entry is a little below -5/2, past the Ricker map's
    period-doubling cascade; the off-diagonal coupling is weak.
    """
    a = [[Fraction(-5, 2) - Fraction(rng.randint(1, 6), 20) if i == j
          else Fraction(rng.randint(-2, 2), 10 * n) for j in range(n)]
         for i in range(n)]
    return QPMap(lam=tuple(-sum(row) for row in a),
                 A=RationalMatrix.from_rows(a, cols=n),
                 B=RationalMatrix.identity(n))


def lv_flow(rng: random.Random, n: int) -> QPFlow:
    """LV flow x' = x (lam* + A* x), stable interior fixed point at 1."""
    a = [[Fraction(-1) - Fraction(rng.randint(0, 4), 10) if i == j
          else Fraction(rng.randint(-2, 2), 10 * n) for j in range(n)]
         for i in range(n)]
    return QPFlow(lam_star=tuple(-sum(row) for row in a),
                  A_star=RationalMatrix.from_rows(a, cols=n),
                  B=RationalMatrix.identity(n))


def bounded_orbit(qp: QPMap, s0: State, steps: int, lo: float = 1e-6,
                  hi: float = 1e6):
    try:
        traj = iterate(qp, s0, steps)
    except OverflowDivergenceError:
        return None
    return traj if all(lo <= v <= hi for s in traj for v in s) else None


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def write_model(name: str, model, initial: State | None = None) -> str:
    """Save a generated model under WORK; returns its path relative to ROOT."""
    path = WORK / name
    save_model(model, path, initial=initial)
    return rel(path)


# -- shared warm-up ---------------------------------------------------------------

_KERNEL_MAP = QPMap(lam=(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)),
                    A=RationalMatrix.from_rows(
                        [[-1, "1/2"], ["1/3", -1], [0, "1/2"]]),
                    B=RationalMatrix.from_rows([[1, 0, 1], [0, 1, 0]]))
_EMBED_MAP = QPMap(lam=(Fraction(1), Fraction(1, 2)),
                   A=RationalMatrix.from_rows(
                       [[-1, "1/2", "1/3"], ["1/2", -1, 0]]),
                   B=RationalMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))


def cli_inproc(argv: list[str]) -> tuple[int, str]:
    """`qpmaps.cli.main(argv)` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = qpcli.main(argv)  # looked up per call, so spans see it
    return code, out.getvalue()


def warm_argvs() -> list[list[str]]:
    """Tiny runs of every subcommand; together they touch every module."""
    models = "models/"
    return [
        ["reduce", models + "worked_reduction.json"],
        ["reduce", write_model("warm-kernel.json", _KERNEL_MAP)],
        ["canonical", models + "lv_2d.json"],
        ["canonical", write_model("warm-embed.json", _EMBED_MAP)],
        ["same-class", models + "lv_2d.json", models + "lv_2d.json"],
        ["simulate", models + "lv_2d.json", "--steps", "20",
         "--out", rel(WORK / "warm.csv")],
        ["discretize", models + "logistic_flow.json", "--eps", "1/10",
         "--horizon", "1", *ANALYSES],
    ]


def warm_up() -> None:
    """Compile `.pyc` files and run every layer once on tiny inputs."""
    compileall.compile_dir(str(SRC), quiet=1)
    for argv in warm_argvs():
        code, _ = cli_inproc(argv)
        if code != 0:
            raise RuntimeError(f"warm-up run {argv} exited with {code}")


# -- exact: reduce -> to_lv_canonical -> same_class ---------------------------------

# core n and ops per cycle, about 40/30/20/10 % at n = 4/6/8/10; the shares
# put p50 inside the n = 6 class and p90 inside the n = 10 class rather
# than on a class boundary, where a quantile jumps between two sizes
EXACT_MIX = ((4, 30), (6, 24), (8, 16), (10, 10))


@dataclass(frozen=True)
class ExactCase:
    name: str
    qp: QPMap
    initial: State | None
    t: QMTransform


class Exact:
    name = "exact"
    trace_ops = 20

    def setup(self, seed: int) -> list[ExactCase]:
        rng = random.Random(f"{seed}:exact")
        cases = []
        for n, count in EXACT_MIX:
            # every size class gets the same spread of m, padding and initial
            # states, so only the random entries change with the seed
            for j in range(count):
                n_const, n_kernel = 1 + (j // 3) % 2, 1 + j % 2
                qp = redundant_map(rng, n, n + 1 + j % 3, n_const, n_kernel)
                initial = (random_positive_state(rng, qp.n)
                           if (j // 2) % 2 == 0 else None)
                t = QMTransform(random_unimodular_matrix(rng, n))
                cases.append(ExactCase(f"n{n}-{j}", qp, initial, t))
        rng.shuffle(cases)
        return cases

    def run(self, case: ExactCase):
        # calls go through the package so that installed span wrappers see them
        report = qpmaps.reduce(case.qp, case.initial)
        lv, _ = qpmaps.to_lv_canonical(report.final)
        copy = qpmaps.apply_qm(report.final, case.t)
        return report, lv, copy, qpmaps.same_class(report.final, copy)

    def check(self, case: ExactCase, out) -> list[str]:
        return checks.check_exact(case, out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- orbits: iterate, jacobian and discretization probes -----------------------------

MAP_STEPS = {2: 600, 8: 120, 16: 40}
FLOW_SIZES = (1, 3, 5)
FLOW_EPS = Fraction(1, 20)
FLOW_HORIZON = 10.0
CHECKED_STEPS = 6


@dataclass(frozen=True)
class MapTask:
    name: str
    qp: QPMap
    s0: State
    steps: int
    sample: tuple[int, ...]
    jac_at: tuple[int, ...]


@dataclass(frozen=True)
class FlowTask:
    name: str
    kind: str            # "compare", "fixed_point" or "commute"
    flow: QPFlow
    eps: Fraction
    s0: State | None = None
    steps: int = 0
    sample: tuple[int, ...] = ()
    t: QMTransform | None = None


def _map_task(rng, name, qp, s0, steps) -> MapTask:
    return MapTask(name, qp, s0, steps,
                   tuple(sorted(rng.sample(range(steps), CHECKED_STEPS))),
                   tuple(sorted(rng.sample(range(steps + 1), 3))))


def bounded_ricker(rng: random.Random, n: int, steps: int):
    """A Ricker-type LV map and a state on its attractor, bounded for `steps`."""
    while True:
        lv = ricker_map(rng, n)
        start = bounded_orbit(lv, random_positive_state(rng, n, 0.8, 1.25), 50)
        if start is not None and bounded_orbit(lv, start[-1], steps):
            return lv, start[-1]


def orbit_maps(rng: random.Random, n: int, steps: int):
    """A bounded Ricker-type LV map and a hidden copy, with start states.

    The LV map has B = I (the unit-row path); the copy is conjugated by a
    unimodular transform, so its B rows are general (the log/exp path).
    """
    lv, s0 = bounded_ricker(rng, n, steps)
    for _ in range(100):
        t = QMTransform(random_unimodular_matrix(rng, n, shears=2 * n,
                                                 k_max=1))
        hidden = apply_qm(lv, t)
        y0 = phi(t, s0)
        if bounded_orbit(hidden, y0, steps):
            return (lv, s0), (hidden, y0)
    raise RuntimeError(f"no bounded hidden copy of the n={n} map")


class Orbits:
    name = "orbits"
    trace_ops = 15

    def setup(self, seed: int) -> list:
        rng = random.Random(f"{seed}:orbits")
        tasks: list = []
        for n, steps in MAP_STEPS.items():
            (lv, s0), (hidden, y0) = orbit_maps(rng, n, steps)
            tasks.append(_map_task(rng, f"iterate-lv-n{n}", lv, s0, steps))
            tasks.append(_map_task(rng, f"iterate-gen-n{n}", hidden, y0, steps))
        steps = int(FLOW_HORIZON / FLOW_EPS)
        for n in FLOW_SIZES:
            flow = lv_flow(rng, n)
            s0 = random_positive_state(rng, n, 0.7, 1.4)
            tasks += [
                FlowTask(f"compare-n{n}", "compare", flow, FLOW_EPS, s0, steps,
                         tuple(sorted(rng.sample(range(steps), CHECKED_STEPS)))),
                FlowTask(f"fixed-point-n{n}", "fixed_point", flow, FLOW_EPS),
                FlowTask(f"commute-n{n}", "commute", flow, FLOW_EPS,
                         t=random_invertible_transform(rng, n)),
            ]
        rng.shuffle(tasks)
        return tasks

    def run(self, task):
        if isinstance(task, MapTask):
            traj = qpmaps.iterate(task.qp, task.s0, task.steps)
            return traj, [qpmaps.jacobian(task.qp, traj[p])
                          for p in task.jac_at]
        if task.kind == "compare":
            return qpmaps.compare_discretizations(task.flow, task.eps,
                                                  task.s0, FLOW_HORIZON)
        if task.kind == "fixed_point":
            return qpmaps.check_fixed_point_coincidence(task.flow, task.eps)
        return qpmaps.check_commutativity(task.flow, task.t, task.eps,
                                          DiscretizationFamily.euler_add())

    def check(self, task, out) -> list[str]:
        if isinstance(task, MapTask):
            return checks.check_map_task(task, out)
        return {"compare": checks.check_compare_task,
                "fixed_point": checks.check_fixed_point_task,
                "commute": checks.check_commute_task}[task.kind](task, out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- cli: one `python -m qpmaps.cli` subprocess per op ---------------------------------


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    expect_code: int = 0
    csv_path: Path | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def child_env(seed: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), QP_SEED=str(seed))


def diverging_map(rng: random.Random) -> QPMap:
    """x' = x exp(lam + a x) with small lam > 0, a > 0: escapes after ~300 steps."""
    lam = tuple(Fraction(1, 60) + Fraction(rng.randint(0, 5), 600)
                for _ in range(2))
    return QPMap(lam=lam, A=RationalMatrix.from_rows([["1/200", 0],
                                                      [0, "1/400"]]),
                 B=RationalMatrix.identity(2))


class Cli:
    name = "cli"
    trace_ops = 14

    def __init__(self):
        self.seed = 0

    def setup(self, seed: int) -> list[CliCase]:
        self.seed = seed
        rng = random.Random(f"{seed}:cli")
        red12 = redundant_map(rng, 9, 11, 1, 2)
        red12_path = write_model("cli-reduce-n12.json", red12,
                                 random_positive_state(rng, red12.n))
        nr12 = random_nonredundant_map(rng, 12, 13)
        copy12 = apply_qm(nr12, QMTransform(random_unimodular_matrix(rng, 12)))
        nr12_path = write_model("cli-nonredundant-n12.json", nr12)
        copy12_path = write_model("cli-copy-n12.json", copy12)
        lv8_paths = [write_model(f"cli-simulate-n8-{k}.json",
                                 *bounded_ricker(rng, 8, 2000))
                     for k in ("a", "b")]
        div_path = write_model("cli-diverging.json", diverging_map(rng),
                               State((1.0, 1.0)))
        flow4 = lv_flow(rng, 4)
        flow4_path = write_model("cli-flow-n4.json", flow4,
                                 random_positive_state(rng, 4, 0.7, 1.4))

        def simulate(name, model, steps, code=0):
            out = WORK / f"{name}.csv"
            return CliCase(name, ("simulate", model, "--steps", str(steps),
                                  "--out", rel(out)), code, out)

        def discretize(name, model):
            return CliCase(name, ("discretize", model, "--eps", "1/20",
                                  "--horizon", "5", *ANALYSES))

        # 14 commands: the eight on small models are the fastest 57 %, so
        # p50 falls between two of them, and the two n = 8 simulations,
        # alike in cost, are the slowest 14 %, so p90 falls between those;
        # a quantile on the edge of a group would jump between two costs
        cases = [
            CliCase("reduce-lv2", ("reduce", "models/lv_2d.json")),
            CliCase("reduce-worked", ("reduce", "models/worked_reduction.json")),
            CliCase("reduce-worked-initial",
                    ("reduce", "models/worked_reduction.json",
                     "--initial", "1.3,0.7,2.1")),
            CliCase("canonical-lv2", ("canonical", "models/lv_2d.json")),
            CliCase("same-class-lv2", ("same-class", "models/lv_2d.json",
                                       "models/lv_2d.json")),
            simulate("simulate-lv2", "models/lv_2d.json", 500),
            discretize("discretize-logistic", "models/logistic_flow.json"),
            CliCase("reduce-n12", ("reduce", red12_path)),
            CliCase("canonical-n12", ("canonical", nr12_path)),
            CliCase("same-class-n12", ("same-class", nr12_path, copy12_path)),
            simulate("simulate-n8-a", lv8_paths[0], 2000),
            simulate("simulate-n8-b", lv8_paths[1], 2000),
            simulate("simulate-diverging", div_path, 1000, code=4),
            discretize("discretize-n4", flow4_path),
        ]
        # warm the interpreter's files in the page cache for the children
        subprocess.run([sys.executable, "-c", "import qpmaps.cli"], cwd=ROOT,
                       env=child_env(seed), check=True, timeout=120)
        rng.shuffle(cases)
        return cases

    def run(self, case: CliCase) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "qpmaps.cli", *case.argv],
                              cwd=ROOT, env=child_env(self.seed),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def run_inproc(self, case: CliCase) -> tuple[int, str]:
        return cli_inproc(list(case.argv))

    def check(self, case: CliCase, out) -> list[str]:
        return checks.check_cli(case, out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Exact, Orbits, Cli)}
