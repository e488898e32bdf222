#!/usr/bin/env python3
"""parafock benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each workload is a fixed list of
``parafock`` CLI calls made in one fresh child interpreter (child.py), one
child at a time, for about S seconds.  The seed only permutes the call order;
every call's exit code and payload hash is checked against reference.json.

--trace 0 measures the end-to-end metrics (medians over the children; job_s
on the host-speed clock of steady.py);
--trace 1 alternates untraced and traced children and reports the per-layer
metrics of tracer.py plus the tracing overhead.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from steady import host_scale
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "traces"

SETUP_PROBES = 10         # extra set-up-only children per untraced run
RUN_LIMIT_S = 170         # a run never outlives this, whatever --seconds says

# (metric, unit): the end-to-end metrics, in report order
END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# Printed but left out of the JSON result: the wall time the host-speed clock
# of steady.py replaces, and, for a sweep, warm_call_s, because the JSON
# carries the same metrics for every workload (README.md: end-to-end metrics).
PRINTED_ONLY = (("job_wall_s", "s"), ("warm_call_s", "s"))


@dataclass(frozen=True)
class Workload:
    """The calls one child makes, timed together as job_s.  A sweep also
    reports warm_call_s: each call after the first, which filled the cache
    the others read."""

    job: tuple[tuple[str, ...], ...]
    sweep: bool = False


def gram(m, n, p, levels):
    return ("gram", "--m", str(m), "--n", str(n), "--p", str(p),
            "--levels", str(levels))


def verify_algebra(m, n):
    return ("verify-algebra", "--m", str(m), "--n", str(n))


def verify_id2(domains, p_values, levels):
    return ("verify-id2", "--m", "1", "--n", "1", "--domains", domains,
            "--p", p_values, "--levels", str(levels))


def char(m, n, p, degree):
    return ("char", "--m", str(m), "--n", str(n), "--p", str(p),
            "--degree", str(degree))


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    # cold caches, largest working set: verma word reduction fills pair_poly
    "gram_cold": Workload(job=(gram(2, 2, 2, 5),)),
    # the first order fills the p-independent cache, the other 15 read it
    "order_sweep": Workload(
        job=tuple(gram(2, 2, p, 4) for p in range(1, 17)), sweep=True),
    # algebra, recurrence and character routes; verma never runs
    "routes": Workload(job=(verify_algebra(3, 3),
                            verify_id2("1,1;2,1;1,2;2,2", "1,2,3", 8),
                            char(3, 2, 2, 10))),
}

# The same shapes at toy size, for the benchmark's own tests.
TINY_WORKLOADS = {
    "gram_cold": Workload(job=(gram(1, 1, 2, 2),)),
    "order_sweep": Workload(job=tuple(gram(1, 1, p, 2) for p in (1, 2, 3)),
                            sweep=True),
    "routes": Workload(job=(verify_algebra(1, 1),
                            verify_id2("1,1;2,1", "1,2", 2),
                            char(1, 1, 2, 3))),
}


def call_key(argv) -> str:
    return " ".join(argv)


def ordered_job(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    job = list(workload.job)
    random.Random(seed).shuffle(job)
    return job


def call_failed(record: dict, reference: dict) -> bool:
    """The correctness gate.  Only the command name of the meta record is
    checked; its other fields (thread count, seed echo) may change."""
    want = reference.get(call_key(record["argv"]))
    return (want is None
            or record["exit"] != want["exit"]
            or record["sha256"] != want["sha256"]
            or record["meta"] != record["argv"][0])


def child_env() -> dict:
    """Serial path measured: PARAFOCK_THREADS scrubbed.  PYTHONHASHSEED is
    left alone, so output that depends on hash order fails the gate."""
    env = {k: v for k, v in os.environ.items() if k != "PARAFOCK_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(calls, trace=False, spans_out=None,
              timeout=RUN_LIMIT_S) -> dict | None:
    """One fresh interpreter; its result dict, or None if it failed."""
    spec = {"calls": [list(c) for c in calls], "trace": trace,
            "spans_out": str(spans_out) if spans_out else None}
    spec["spawn_scale"] = host_scale()
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, timeout=max(timeout, 1),
            text=True)
    except subprocess.TimeoutExpired:
        print("child timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Children of one run, the gate's tally and the timing budget."""

    def __init__(self, seconds: float, reference: dict):
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def child(self, calls, **kwargs) -> dict | None:
        res = run_child(calls, timeout=self.remaining(), **kwargs)
        self.attempted += len(calls)
        if res is None:
            self.failed += len(calls)
            return None
        for record in res["job"]:
            if call_failed(record, self.reference):
                self.failed += 1
                print(f"FAILED {call_key(record['argv'])}: exit "
                      f"{record['exit']}, meta {record['meta']}",
                      file=sys.stderr)
        return res

    def more(self, last_s: float) -> bool:
        """Start another child only if it should end within the budget."""
        now = time.monotonic()
        return now + last_s <= self.deadline and self.remaining() > 2 * last_s


def measure(workload: Workload, job, run: Run) -> dict[str, list]:
    """End-to-end samples: one per child (warm_call_s: one per warm call)."""
    samples = {metric: [] for metric, _ in END_TO_END}
    samples["job_wall_s"] = []
    if workload.sweep:
        samples["warm_call_s"] = []
    for _ in range(SETUP_PROBES):
        res = run.child([])
        if res is not None:
            samples["setup_s"].append(res["setup_s"])
    while True:
        began = time.monotonic()
        res = run.child(job)
        if res is not None:
            for metric in ("setup_s", "job_s", "job_wall_s", "peak_rss_mib"):
                samples[metric].append(res[metric])
            if workload.sweep:
                samples["warm_call_s"].extend(
                    call["seconds"] for call in res["job"][1:])
        if res is None or not run.more(time.monotonic() - began):
            break
    return samples


def measure_traced(name: str, job, run: Run) -> dict[str, list]:
    """Per-layer samples, one per traced child; the overhead is taken per
    pair of an untraced and a traced child of the same job."""
    samples = {metric: [] for metric, _, _ in PER_LAYER}
    spans_out = SPANS_DIR / f"{name}.spans.jsonl"
    while True:
        began = time.monotonic()
        plain = run.child(job)
        traced = None
        if plain is not None:
            traced = run.child(job, trace=True, spans_out=spans_out)
        if traced is not None:
            for metric, value in traced["layers"].items():
                samples[metric].append(value)
            samples["trace.overhead_s"].append(
                traced["job_s"] - plain["job_s"])
        if traced is None or not run.more(time.monotonic() - began):
            break
    return samples


def report(name, seed, trace, values, samples, units, run: Run):
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"{time.monotonic() - run.start:.1f} s")
    for metric, value in values.items():
        line = f"  {metric:<44} {value:>14.6g} {units[metric]:<6}"
        base, _, stat = metric.rpartition(".")
        if stat in ("hit_ratio", "repeat_ratio"):
            line += (f" base {values[base + '.calls']:g} calls,"
                     f" {values[base + '.distinct']:g} distinct")
        got = samples[metric]
        line += f"  n={len(got)}"
        if len(got) > 1 and min(got) != max(got):
            line += f" range {min(got):.6g}..{max(got):.6g}"
        print(line)
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'ratio':<6}"
          f" base {run.attempted} calls  failed={run.failed}")


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: leave through SystemExit, so that subprocess.run
    # kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "parafock" / "cli.py").is_file():
        print(f"error: no parafock sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    workload = workloads[args.workload]
    job = ordered_job(workload, args.seed)
    run = Run(args.seconds, reference)
    if args.trace:
        samples = measure_traced(args.workload, job, run)
        declared = {metric: unit for metric, unit, _ in PER_LAYER}
        units = declared
    else:
        samples = measure(workload, job, run)
        declared = dict(END_TO_END)
        units = dict(END_TO_END + PRINTED_ONLY)
    values = {metric: median(got)
              for metric, got in samples.items()}
    if not any(samples.values()):
        print("error: no child completed", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, values, samples, units, run)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
