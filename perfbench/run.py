"""Run one workload of the qpmaps benchmark and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

Workloads: exact, orbits, cli (see README.md).  With --trace 0 the run is
untraced and prints the end-to-end metrics; with --trace 1 it prints the
per-layer metrics from fixed-input rows and two traced passes.  Each metric
is printed on its own line with its unit and sample count; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Run from any directory; generated files go under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from time import perf_counter

import paths
import refclock

SETUPS = 3           # set-up is repeated and its median reported
MIN_BEYOND_P90 = 10  # p90 needs at least this many ops above it
MIN_OPS = 110        # enough ops for that, whatever the host speed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact", "orbits", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure; whole cycles are run, "
                             "at least 110 ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "seed": seed}


def execute(workload, run, case, tracer=None):
    """Run one op, timed, then check it untimed; returns (seconds, problems)."""
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        out = run(case)
    except Exception as exc:  # any error of the op under test is a failure
        return perf_counter() - start, [f"{case.name}: {exc!r}"]
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = perf_counter() - start
    try:
        problems = workload.check(case, out)
    except Exception as exc:  # a malformed output can break a checker
        problems = [f"{case.name}: check raised {exc!r}"]
    return elapsed, problems


class Tally:
    """Latencies and failures of the ops run so far.

    `latencies` are in reference seconds (see refclock.py), `wall` in
    seconds as measured.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wall: float, scaled: float, problems: list[str]) -> None:
        self.wall.append(wall)
        self.latencies.append(scaled)
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_ops(workload, run, ops, tally: Tally, tracer=None) -> float:
    """Each op once, in order; returns their total in reference seconds.

    The reference loop runs between ops, outside the timed region, and
    scales each op's time by the host speed measured on either side of it.
    """
    total = 0.0
    before = refclock.sample()
    for i, case in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, problems = execute(workload, run, case, tracer)
        after = refclock.sample()
        scaled = refclock.scale(elapsed, before, after)
        tally.add(elapsed, scaled, problems)
        if tracer is not None:
            tracer.factors[i] = scaled / elapsed
        total += scaled
        before = after
    return total


def run_cycles(workload, cases, seconds: float) -> Tally:
    """Closed loop over whole cycles until `seconds` of busy time have run.

    Runs at least MIN_OPS ops, so that p90 has ten ops beyond it.
    """
    tally = Tally()
    while True:
        run_ops(workload, workload.run, cases, tally)
        if sum(tally.wall) >= seconds and tally.attempted >= MIN_OPS:
            return tally


def timed_setup(workload, seed: int) -> tuple[list, float, float]:
    """Set up once; returns (cases, reference seconds, wall seconds)."""
    import workloads

    # one set-up is scaled by only two samples, so each is a median of five
    def probe() -> float:
        return statistics.median(refclock.sample() for _ in range(5))

    before = probe()
    start = perf_counter()
    workloads.warm_up()
    cases = workload.setup(seed)
    wall = perf_counter() - start
    return cases, refclock.scale(wall, before, probe()), wall


def end_to_end(workload, cases, seconds: float, setups: list[tuple]):
    tally = run_cycles(workload, cases, seconds)
    lat = sorted(tally.latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    beyond = sum(1 for v in lat if v > p90)
    setup_ref = [ref for ref, _ in setups]
    wall_rate = tally.attempted / sum(tally.wall)
    metrics = [
        ("setup_s", statistics.median(setup_ref), "s", len(setups),
         f"wall median {statistics.median(w for _, w in setups):.4g} s"),
        ("ops_per_s", tally.attempted / sum(lat), "1/s", tally.attempted,
         f"wall {wall_rate:.4g} 1/s"),
        ("op_p50_ms", statistics.median(lat) * 1e3, "ms", len(lat),
         f"wall {statistics.median(tally.wall) * 1e3:.4g} ms"),
        ("op_p90_ms", p90 * 1e3, "ms", len(lat),
         f"{beyond} ops beyond" + ("" if beyond >= MIN_BEYOND_P90
                                   else "; too few, run longer")),
        ("peak_rss_mb", workload.peak_rss_mb(), "MB", 1,
         "children" if workload.name == "cli" else "this process"),
    ]
    return tally, metrics


def traced_pass(workload, run, ops, tally: Tally):
    """The warm-up runs and `ops`, with spans.

    Returns the tracer and the ops' total time in reference seconds.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        before = refclock.sample()
        tracer.active = True
        workloads.warm_up()
        tracer.active = False
        tracer.factors[-1] = refclock.scale(1.0, before, refclock.sample())
        busy = run_ops(workload, run, ops, tally, tracer)
    finally:
        uninstall()
    return tracer, busy


def traced(workload, cases, seed: int, work_dir):
    """Per-layer rows, then traced, untraced and traced passes over the same ops."""
    import layers

    rows = layers.measure_rows(seed)
    ops = cases[:workload.trace_ops]
    # cli runs in-process here so that its module spans can be recorded
    run = getattr(workload, "run_inproc", workload.run)
    tally = Tally()
    # the untraced pass runs between the traced ones, so that it is compared
    # with a traced pass that runs equally warm
    first, _ = traced_pass(workload, run, ops, tally)
    untraced_rate = len(ops) / run_ops(workload, run, ops, tally)
    tracer, busy = traced_pass(workload, run, ops, tally)
    tracer.dump(work_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    calls, self_ms = tracer.calls(), tracer.self_ms()
    repeat = (calls == first.calls()
              and tracer.max_entry_bits == first.max_entry_bits
              and tracer.probes_compared == first.probes_compared
              and tracer.states_kept == first.states_kept)
    traced_rate = len(ops) / busy
    steps_in_simulate = tracer.steps_under("cli.simulate")
    values = dict(rows)
    for span, timed in layers.SPAN_METRICS:
        values[f"{span}.calls"] = calls.get(span, 0)
        if timed:
            values[f"{span}.self_ms"] = self_ms.get(span, 0.0)
    values.update({
        "linalg.max_entry_bits": tracer.max_entry_bits,
        "discretization.check_commutativity.probes_compared":
            tracer.probes_compared,
        "maps.step.useful_ratio":
            tracer.states_kept / steps_in_simulate if steps_in_simulate else 1.0,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.slowdown": untraced_rate / traced_rate,
        "trace.calls_repeat": int(repeat),
    })
    print(f"trace: {len(ops)} ops per pass (plus the warm-up runs); calls "
          f"counts {'repeat exactly' if repeat else 'DIFFER'} between the "
          f"two traced passes; slowdown {untraced_rate / traced_rate:.3f}x "
          f"against the untraced pass")
    metrics = [(name, values[name], unit,
                "fixed-input row" if name in rows else len(ops), "")
               for name, unit, _ in layers.per_layer_spec()]
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    paths.require_program()
    refclock.pin_to_one_cpu()
    os.chdir(paths.ROOT)
    os.environ["QP_SEED"] = str(args.seed)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUPS):
        cases, ref, wall = timed_setup(workload, args.seed)
        setups.append((ref, wall))

    facts = machine_facts(args.seed)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        tally, metrics = traced(workload, cases, args.seed, paths.WORK)
    else:
        tally, metrics = end_to_end(workload, cases, args.seconds, setups)
    for name, value, unit, samples, note in metrics:
        extra = f"; {note}" if note else ""
        print(f"{args.workload} {name} = {value:.6g} {unit} "
              f"(samples {samples}{extra})")
    print(f"{args.workload} fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"ratio (samples {tally.attempted}; {tally.failed} failed of "
          f"{tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  failure: {problem}")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, value, unit, _, _ in metrics}}
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, machine=facts)
    out = paths.WORK / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
