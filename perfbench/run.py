"""Verify benchmark for blockposets: the time a mathematician waits for a
correct verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
Each repetition runs the workload's ``blockposets verify`` invocations in a
fresh single-threaded process (`child.py`). With ``--trace 0`` the run
repeats the workload until ``--seconds`` have passed, timing the set-up in
its own fresh processes before each repetition, and reports the medians of
the end-to-end metrics. With ``--trace 1`` it runs untraced repetitions for
half of ``--seconds``, then as many traced ones, and reports the per-layer
metrics of the traced ones (see `spans.py`) with the tracing overhead.
Every repetition's reports go through the correctness gate in
`workloads.py`.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it records the run: host-speed probe, each
repetition's figures and the gate's counts. Working files go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from spans import per_layer_metrics, read_trace
from workloads import (WORKLOADS, expected_reports, gate, invocations,
                       setup_targets)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
OUT_DIR = ".perfbench_out"
SETUP_PER_REP = 3           # set-up processes before each repetition
SETUP_MIN = 9               # ... and at least this many in a run
RUN_BUDGET_S = 170          # a run must end within 180 s


def host_probe():
    """Seconds for a fixed pure-Python loop: a record of host speed.

    Like the library, it hashes small tuples into a dict of some megabytes,
    so it feels contention for caches and memory as well as for the CPU.
    """
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = (i % 7, i % 11, i % 13, i, i >> 3, i >> 5)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def run_child(root, mode, job, deadline, tag, out_dir):
    """Run child.py in a fresh process: wall time, CPU time from wait4 and
    the peak RSS the child reports."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    stdout_path = os.path.join(out_dir, tag + ".stdout")
    with open(stdout_path, "w") as out, \
            open(os.path.join(out_dir, tag + ".stderr"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode,
             json.dumps(job)], cwd=root, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        with open(stdout_path) as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1]) if lines else None
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": result["peak_rss_mb"] if result else None,
            "exit": proc.returncode, "result": result}


def _read_or_none(path):
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Run:
    """One benchmark run of a workload on a seed."""

    def __init__(self, root, name, seed, expected_dir=EXPECTED_DIR):
        self.root = root
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.argv = invocations(self.workload, seed)
        self.expected = expected_reports(expected_dir, name)
        self.out_dir = os.path.join(root, OUT_DIR, name)
        os.makedirs(self.out_dir, exist_ok=True)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = self.failed = 0

    def setup(self, i):
        rep = run_child(self.root, "setup",
                        {"targets": setup_targets(self.workload, self.seed)},
                        self.deadline, f"setup{i}", self.out_dir)
        if rep["result"] is None:
            raise RuntimeError(f"set-up process failed (exit {rep['exit']})")
        return rep["result"]["setup_s"]

    def verify(self, tag, traced=False):
        """One repetition, gated; returns its figures and trace path."""
        outs = [os.path.join(self.out_dir, f"{tag}.report{i}.json")
                for i in range(len(self.argv))]
        trace = os.path.join(self.out_dir, tag + ".spans.jsonl") \
            if traced else None
        for path in outs + [trace]:
            if path and os.path.exists(path):
                os.unlink(path)
        rep = run_child(self.root, "verify",
                        {"argv": self.argv, "out": outs, "trace": trace},
                        self.deadline, tag, self.out_dir)
        reports = [_read_or_none(p) if rep["result"] else None for p in outs]
        attempted, failed = gate(reports, self.expected, self.seed)
        self.attempted += attempted
        self.failed += failed
        result = rep.pop("result") or {}
        rep.update(exit_codes=result.get("exit_codes"), attempted=attempted,
                   failed=failed)
        return rep, trace

    def repeat(self, seconds, tag, setups=None):
        """Untraced repetitions until `seconds` have passed (at least one).

        With a `setups` list, the set-up is timed SETUP_PER_REP times before
        each repetition and the times are appended to it, so that set-up and
        verify sample the same stretch of the host's speed.
        """
        reps = []
        start = time.monotonic()
        while not reps or (time.monotonic() - start < seconds
                           and time.monotonic() < self.deadline):
            if setups is not None:
                setups += [self.setup(len(setups))
                           for _ in range(SETUP_PER_REP)]
            reps.append(self.verify(f"{tag}{len(reps)}")[0])
        return reps


def measure(root, name, seed, seconds, trace, expected_dir=EXPECTED_DIR):
    """(result, record) of one run; see the module docstring."""
    run = Run(root, name, seed, expected_dir)
    record = {"workload": name, "seed": seed, "trace": trace,
              "host_probe_s": host_probe()}
    med = statistics.median
    if not trace:
        setups = []
        reps = run.repeat(seconds, "rep", setups)
        while len(setups) < SETUP_MIN:
            setups.append(run.setup(len(setups)))
        record.update(setup_s=setups, reps=reps)
        values = {
            "verify_s": (med(r["wall_s"] for r in reps), "s"),
            "cpu_s": (med(r["cpu_s"] for r in reps), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med([r["rss_mb"] for r in reps
                                 if r["rss_mb"] is not None] or [0.0]), "MB"),
            "verified_frac": (1 - run.failed / run.attempted, "ratio"),
        }
    else:
        plain = run.repeat(seconds / 2, "plain")
        traced, layer_runs = [], []
        for i in range(len(plain)):
            rep, path = run.verify(f"traced{i}", traced=True)
            traced.append(rep)
            if os.path.exists(path):
                layer_runs.append(per_layer_metrics(*read_trace(path)))
        record.update(reps=plain, traced_reps=traced)
        values = {}
        if layer_runs:
            # Counts are deterministic: report them exactly and record
            # whether every traced repetition gave the same ones.
            counts = {k: v for k, (v, unit) in layer_runs[0].items()
                      if unit != "s"}
            record["counts"] = counts
            record["counts_repeat"] = all(
                m[k][0] == v for m in layer_runs for k, v in counts.items())
            for key, (value, unit) in layer_runs[0].items():
                if unit == "s":
                    value = med(m[key][0] for m in layer_runs)
                values[key] = (value, unit)
        traced_s = med(r["wall_s"] for r in traced)
        values["trace.verify_s"] = (traced_s, "s")
        values["trace.overhead_s"] = (
            traced_s - med(r["wall_s"] for r in plain), "s")
        values["host.probe_s"] = (record["host_probe_s"], "s")
    record.update(attempted=run.attempted, failed=run.failed)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blockposets", "cli.py")):
        print("perfbench: run from the root of a blockposets checkout "
              "(src/blockposets not found)", file=sys.stderr)
        return 2
    result, record = measure(root, args.workload, args.seed, args.seconds,
                             args.trace)
    with open(os.path.join(root, OUT_DIR, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
