"""pbwgate benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  One pass runs every job of the workload
once, in order, each on a freshly parsed problem (so the per-pair caches
start cold), and passes repeat until ``--seconds`` have elapsed.  Every
report goes through the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics, medians over passes.  Wall,
CPU and set-up times are scaled to a reference host speed by the probe in
``speed.py``; the raw medians are printed above the result line.
``--trace 1`` alternates untraced passes with traced passes of the same
jobs, prints the per-layer metrics (medians over traced passes) and writes
the spans to ``.bench_out/``.  The last line of standard output is the
JSON result; the exit code is 0 when every record passed the gate, 1 when
one failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters that time set-up after each untraced pass
SETUP_SAMPLES = 3

CHECKS = ("validate", "alpha", "extend", "split", "oracle", "dimensions", "f2-class", "koszul", "twisted")

# Times set-up in a fresh interpreter: importing the package, parsing every
# problem of a pass and building each pair.  SETUP_SAMPLES are measured after
# each untraced pass, so that set-up samples are spread over the run like the
# passes are, and the median is reported.  The speed probe runs only after
# set-up, so that its imports are not taken out of the set-up time; a single
# set-up is short and mostly import, so it is scaled by eight probes.
_SETUP_CHILD = r"""
import json, sys, time
texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import pbwgate
from pbwgate.problem import parse_problem
for text in texts:
    parse_problem(text).pair()
seconds = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
import speed
print(speed.scale(seconds, *(speed.probe()[0] for _ in range(8))))
"""


class MissingPackage(RuntimeError):
    pass


def import_package():
    """Import pbwgate from this checkout's ``src/`` only."""
    init = SRC / "pbwgate" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import pbwgate

    if Path(pbwgate.__file__).resolve() != init.resolve():
        raise MissingPackage(f"pbwgate was imported from {pbwgate.__file__}, not {init}")
    return pbwgate


def measure_setup(jobs) -> float:
    """Set-up time of a pass's problems in a fresh interpreter, at reference speed."""
    texts = list(dict.fromkeys(job.text for job in jobs))
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(HERE)],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(jobs, problem_mod, report_mod, tracer=None):
    """Run every job once; returns (times, outcomes).

    ``times`` holds the pass's wall and CPU time summed over its jobs:
    ``raw_wall_s`` and ``raw_cpu_s`` as measured, and, for an untraced pass,
    ``wall_s`` and ``cpu_s`` scaled to reference speed by the probes a
    ``speed.Sampler`` ran during the pass (their own time is not counted).
    The heap is collected before each job, so that a job's memory does not
    depend on the garbage the jobs before it left.  The entry points are
    looked up on their modules at each call, so that an installed tracer
    sees them.
    """
    outcomes = []
    wall = cpu = 0.0
    sampler = speed.Sampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        for job in jobs:
            gc.collect()
            spent0 = sampler.spent if sampler else (0.0, 0.0)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                problem = problem_mod.parse_problem(job.text)
                outcomes.append(report_mod.run_command(job.command, problem, max_degree=job.max_degree))
            except Exception as exc:  # a raised check is a failed record, never a crash
                outcomes.append(exc)
            spent = sampler.spent if sampler else (0.0, 0.0)
            wall += time.perf_counter() - wall0 - (spent[0] - spent0[0])
            cpu += time.process_time() - cpu0 - (spent[1] - spent0[1])
            if tracer is not None:
                tracer.end_request()
    times = {"raw_wall_s": wall, "raw_cpu_s": cpu}
    if sampler:
        times["wall_s"], times["cpu_s"] = sampler.scale(wall, cpu)
    return times, outcomes


class Gatekeeper:
    """Gates every report of a run and counts attempted and failed records.

    When every pass repeats the same jobs, each job must give the same report
    every pass.  When passes draw new problems, each report must agree with
    the report of the catalog pair its problem was drawn from.
    """

    def __init__(self, repeated: bool, catalog_report):
        self.repeated = repeated
        self.catalog_report = catalog_report  # (name, command, K) -> Report
        self.references = {}  # (name, command, K) -> signature
        self.first_digest = {}  # job label -> digest of its first report
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check_pass(self, jobs, outcomes):
        for job, outcome in zip(jobs, outcomes):
            ref = None
            if not self.repeated:
                key = (job.base, job.command, job.max_degree)
                if key not in self.references:
                    self.references[key] = gate.signature(self.catalog_report(*key))
                ref = self.references[key]
            attempted, failed, messages = gate.check(job, outcome, ref)
            if not isinstance(outcome, Exception):
                dig = gate.digest(outcome)
                first = self.first_digest.setdefault(job.label, dig)
                if self.repeated and dig != first:
                    failed = failed or 1
                    messages.append(f"{job.label}: report differs from its first pass")
            self.attempted += attempted
            self.failed += failed
            self.messages.extend(messages)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pbwgate = import_package()
    except (MissingPackage, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    from pbwgate import catalog
    from pbwgate import problem as problem_mod
    from pbwgate import report as report_mod

    make_jobs, repeated = WORKLOADS[args.workload]
    first_jobs = make_jobs(catalog, args.seed, 0)

    keeper = Gatekeeper(
        repeated, lambda name, command, cap: report_mod.run_command(command, catalog.catalog_get(name), max_degree=cap)
    )

    untraced, millis, setup = [], [], []
    traced, layer_self, traced_wall, overhead = [], [], [], []
    heaviest = {}
    span_log = []
    tracer = tracing.Tracer(pbwgate) if args.trace else None

    def untraced_pass(jobs):
        times, outcomes = run_pass(jobs, problem_mod, report_mod)
        keeper.check_pass(jobs, outcomes)
        untraced.append(times)
        per_check = dict.fromkeys(CHECKS, 0)
        for rep in outcomes:
            for rec in getattr(rep, "records", ()):
                per_check[rec.check] += rec.millis
        millis.append({f"report.{c}_ms": v for c, v in per_check.items()})
        return times["raw_wall_s"]

    def traced_pass(jobs, pass_index):
        with tracer:
            times, outcomes = run_pass(jobs, problem_mod, report_mod, tracer)
        t_wall = times["raw_wall_s"]
        keeper.check_pass(jobs, outcomes)
        layer, self_s, solves, spans = tracer.take_pass()
        layer.update({f"{name}.share": s / t_wall for name, s in self_s.items()})
        traced.append(layer)
        layer_self.append(self_s)
        traced_wall.append(t_wall)
        for key, secs, *_ in solves:
            heaviest[key] = max(heaviest.get(key, 0.0), secs)
        span_log.append({"pass": pass_index, "wall_s": t_wall, "spans": spans})
        return t_wall

    deadline = time.perf_counter() + args.seconds
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        jobs = first_jobs if pass_index == 0 else make_jobs(catalog, args.seed, pass_index)
        if tracer is None:
            untraced_pass(jobs)
            setup.extend(measure_setup(jobs) for _ in range(SETUP_SAMPLES))
        elif pass_index % 2:  # alternate which side runs first
            t_wall = traced_pass(jobs, pass_index)
            overhead.append(t_wall / untraced_pass(jobs))
        else:
            wall = untraced_pass(jobs)
            overhead.append(traced_pass(jobs, pass_index) / wall)
        pass_index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  passes {pass_index}  "
          f"jobs per pass {len(first_jobs)}  trace {args.trace}")
    times = _median_metrics(untraced)
    if tracer is None:
        metrics = {
            "wall_s": (times["wall_s"], "s"),
            "cpu_s": (times["cpu_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        q1, q3 = _quartiles([p["wall_s"] for p in untraced])
        print(f"  wall_s per pass: q1 {q1:.4f}  q3 {q3:.4f}  over {len(untraced)} passes (reference speed)")
        print(f"  raw medians: wall {times['raw_wall_s']:.4f} s  cpu {times['raw_cpu_s']:.4f} s")
    else:
        layer = _median_metrics(traced)
        layer.update(_median_metrics(millis))
        layer["trace.overhead_ratio"] = statistics.median(overhead)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        print(f"  traced wall_s {statistics.median(traced_wall):.4f}  untraced wall_s {times['raw_wall_s']:.4f}  (raw)")
        print("  layer               self_s      share of traced wall_s")
        for name, secs in _median_metrics(layer_self).items():
            print(f"  {name:<18} {secs:9.4f} s  {layer[name + '.share']:7.2%}")
        for key, secs in sorted(heaviest.items(), key=lambda kv: -kv[1])[:3]:
            print(f"  heaviest oracle solve {key}: {secs:.4f} s")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(span_log))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    failed_ratio = keeper.failed / keeper.attempted
    print(f"  failed_ratio {failed_ratio:.6f} ratio  ({keeper.failed} of {keeper.attempted} records)")
    for message in keeper.messages[:20]:
        print(f"  FAIL {message}")
    for job in first_jobs:
        print(f"  digest {keeper.first_digest.get(job.label, 'none')}  {job.label}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    result = {
        "correct": keeper.failed == 0,
        "attempted": keeper.attempted,
        "failed": keeper.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if keeper.failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
