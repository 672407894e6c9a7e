"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that tiny runs print every end-to-end metric with its unit, that two
traced passes give identical call counts, that each checker counts exactly
one failure for one corrupted output, and that the benchmark refuses to run
without the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import paths

paths.require_program()

from qpmaps import QPMap, State  # noqa: E402
from qpmaps.linalg import RationalMatrix  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5
RUN_PY = paths.ROOT / "perfbench" / "run.py"


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN_PY), *args], cwd=paths.ROOT,
                          capture_output=True, text=True, timeout=170)


def failed_ops(workload, case, out) -> int:
    """How the run loop counts one op's output: 1 when any check fails."""
    tally = run.Tally()
    tally.add(0.0, 0.0, workload.check(case, out))
    return tally.failed


class TinyRuns(unittest.TestCase):

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        spec = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        wanted["fail_ratio"] = "ratio"
        for name in workloads.WORKLOADS:
            proc = bench("--workload", name, "--seed", str(SEED),
                         "--seconds", "0.5", "--trace", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"], proc.stdout)
            for metric, unit in wanted.items():
                self.assertTrue(
                    any(line.startswith(f"{name} {metric} = ")
                        and f" {unit} (samples " in line for line in lines),
                    f"{name}: no line for {metric} in {unit}")
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {k: v for k, v in wanted.items() if k != "fail_ratio"})

    def test_refuses_to_run_without_the_program(self):
        bare = paths.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(paths.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(paths.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracedPasses(unittest.TestCase):

    def test_two_traced_passes_give_identical_calls(self):
        for name, cls in workloads.WORKLOADS.items():
            counts = []
            for _ in range(2):
                workload = cls()
                ops = workload.setup(SEED)[:3]
                runner = getattr(workload, "run_inproc", workload.run)
                tally = run.Tally()
                tracer, _ = run.traced_pass(workload, runner, ops, tally)
                self.assertEqual(tally.failed, 0, tally.problems)
                counts.append(tracer.calls())
            self.assertEqual(counts[0], counts[1], name)
            # the warm-up runs reach every module through imported names
            for span in ("linalg.rank", "linalg.inverse", "transforms.phi",
                         "reduction.reduce_step3", "maps.step",
                         "discretization.euler_step", "modelfile.load_model"):
                self.assertGreater(counts[0].get(span, 0), 0, (name, span))

    def test_wrappers_are_removed_after_a_pass(self):
        import qpmaps.linalg
        import qpmaps.reduction

        rank = qpmaps.linalg.rank
        matmul = RationalMatrix.__matmul__
        workload = workloads.Orbits()
        run.traced_pass(workload, workload.run, workload.setup(SEED)[:1],
                        run.Tally())
        self.assertIs(qpmaps.linalg.rank, rank)
        self.assertIs(qpmaps.reduction.rank, rank)
        self.assertIs(RationalMatrix.__matmul__, matmul)


class Checkers(unittest.TestCase):

    def test_exact_counts_a_wrong_final_entry_once(self):
        workload = workloads.Exact()
        case = min(workload.setup(SEED), key=lambda c: c.qp.n)
        out = workload.run(case)
        self.assertEqual(failed_ops(workload, case, out), 0)
        report = out[0]
        a = report.final.A
        wrong = RationalMatrix(a.rows, a.cols,
                               (a.entries[0] + 1,) + a.entries[1:])
        final = QPMap(lam=report.final.lam, A=wrong, B=report.final.B)
        bad = (dataclasses.replace(report, final=final),) + out[1:]
        self.assertEqual(failed_ops(workload, case, bad), 1)

    def test_orbits_counts_a_perturbed_state_once(self):
        workload = workloads.Orbits()
        task = next(t for t in workload.setup(SEED)
                    if isinstance(t, workloads.MapTask))
        traj, jacs = workload.run(task)
        self.assertEqual(failed_ops(workload, task, (traj, jacs)), 0)
        p = task.sample[0] + 1
        bent = list(traj)
        bent[p] = State(tuple(v * (1 + 1e-9) for v in traj[p].x))
        self.assertEqual(failed_ops(workload, task, (bent, jacs)), 1)

    def test_cli_counts_a_wrong_exit_code_once(self):
        workload = workloads.Cli()
        cases = workload.setup(SEED)
        diverging = next(c for c in cases if c.expect_code == 4)
        out = workload.run_inproc(diverging)
        self.assertEqual(out[0], 4)
        self.assertEqual(failed_ops(workload, diverging, out), 0)
        case = next(c for c in cases if c.name == "reduce-worked")
        code, stdout = workload.run_inproc(case)
        self.assertEqual(failed_ops(workload, case, (code, stdout)), 0)
        self.assertEqual(failed_ops(workload, case, (1, stdout)), 1)


if __name__ == "__main__":
    unittest.main()
