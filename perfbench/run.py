"""conecert benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is read from `src/`).
The workloads, their pinned outputs and the reasons for choosing them are
in perfbench/design.json.

Every invocation is a fresh `python3` process running `conecert.cli.main`
with the workload's argv plus `--seed N`, so the basis's projection and
frame caches start cold, as in a user's run.  Invocations run one at a time.

Times are calibrated seconds.  The benchmark pins itself and every process
it starts to one CPU, and runs the reference loop of perfbench/speed.py
beside them there at nice +10.  A time is the CPU seconds of the measured
process times the loop's nominal chunk time over its measured chunk time in
the same window: the run time on this CPU at its nominal speed.  On a
shared virtual machine whose vCPU speed swings by up to 2x over minutes,
wall time of the same run spreads by 20% and more between runs; calibrated
time spreads by a few per cent.  Wall times are printed on `#` lines.

--trace 0  runs the workload as many times as fit in S seconds (at least
           once), then starts set-up probes that exit where `cli.main`
           would be entered, and reports run_s, checks_per_s, setup_s and
           peak_rss_mb as medians.
--trace 1  runs the workload once plain and once traced (perfbench/tracer.py)
           and reports per-layer self times and counts, plus the tracing
           overhead against the plain run.

Every output is checked (perfbench/check.py) after the timed region.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import check
import tracer
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

# Children are killed past this many seconds, leaving time for the checks
# within the 180 s a benchmark process may take.
DEADLINE_S = 150.0
# Set-up probes per run; setup_s is their median.
SETUP_PROBES = 20


@dataclass
class Invocation:
    """One finished child process: timings, peak memory and its output file."""

    start: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    out_path: Optional[Path]

    @property
    def end(self) -> float:
        return self.start + self.wall_s


def _spawn(tag: str, cli_argv, deadline: float, *, probe=False, trace_out=None) -> Invocation:
    """Run child.py once; wall time is spawn to exit, as the parent sees it."""
    out_path = None if probe else WORK / f"{tag}.out"
    cmd = [sys.executable, str(CHILD)]
    if probe:
        cmd.append("--probe")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--", *cli_argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(out_path or os.devnull, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Invocation(t0, wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, out_path)


def _calibrated(inv: Invocation, speed: Speed) -> float:
    return inv.cpu_s * speed.factor(inv.start, inv.end)


def _load(inv: Invocation):
    try:
        with open(inv.out_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check_outputs(invs, workload, seed):
    """(attempted checks, problems, output counts) over same-seed invocations.

    The first readable output gets every check; the others must have the
    same certificate core.
    """
    expected = workload["checks_per_run"]
    attempted = 0
    problems = []
    counts = {}
    first_digest = None
    for k, inv in enumerate(invs):
        payload = _load(inv) if inv.exit_code == 0 else None
        if payload is None:
            problems.append(f"invocation {k}: exit code {inv.exit_code}, no readable output")
            attempted += expected
            continue
        checks, bad = check.count_checks(payload)
        attempted += checks
        if checks != expected:
            problems.append(f"invocation {k}: {checks} checks, expected {expected}")
        if bad:
            problems.append(f"invocation {k}: {bad} checks have lhs != rhs")
        digest = check.core_digest(payload)
        if first_digest is None:
            first_digest = digest
            print(f"# certificate core sha256, seed {seed}: {digest}")
            pinned = workload["digests"].get(str(seed))
            if pinned is not None and pinned != digest:
                problems.append(f"core digest {digest} differs from pinned {pinned}")
            problems += check.Checker(workload, seed).check(payload)
            counts = check.output_counts(payload)
        elif digest != first_digest:
            problems.append(f"invocation {k}: output differs from invocation 0 under the same seed")
    return attempted, problems, counts


def _timed(workload, cli_argv, seconds, deadline, speed):
    invs = [_spawn("run0", cli_argv, deadline)]
    # one more invocation while its expected end stays within the budget
    while invs[-1].exit_code == 0 and sum(i.wall_s for i in invs) + statistics.median(
        i.wall_s for i in invs
    ) <= seconds:
        invs.append(_spawn(f"run{len(invs)}", cli_argv, deadline))
    probes = [_spawn(f"probe{i}", [], deadline, probe=True) for i in range(SETUP_PROBES)]
    runs = [_calibrated(inv, speed) for inv in invs]
    setup_factor = speed.factor(probes[0].start, probes[-1].end)
    run_s = statistics.median(runs)
    print(f"# wall s: {[round(i.wall_s, 3) for i in invs]}, cpu s: {[round(i.cpu_s, 3) for i in invs]}")
    print(f"# run_s: median of {len(invs)} invocation(s): {[round(r, 3) for r in runs]}")
    print(f"# setup_s: median of {len(probes)} probes, speed factor {setup_factor:.4f}")
    metrics = {
        "run_s": (run_s, "s"),
        "checks_per_s": (workload["checks_per_run"] / run_s, "1/s"),
        "setup_s": (statistics.median(p.cpu_s for p in probes) * setup_factor, "s"),
        "peak_rss_mb": (statistics.median(inv.rss_mb for inv in invs), "MB"),
    }
    return invs, metrics


def _traced(cli_argv, deadline, speed):
    trace_path = WORK / "trace.json"
    base = _spawn("base", cli_argv, deadline)
    traced = _spawn("traced", cli_argv, deadline, trace_out=trace_path)
    problems = []
    try:
        with open(trace_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        data = None
        problems.append(f"trace unreadable: {exc}")
    metrics = tracer.summarize(data) if data else {}
    if data and data["absent"]:
        print(f"# absent from the package, reported as 0: {', '.join(data['absent'])}")
    print(f"# wall s: base {base.wall_s:.3f}, traced {traced.wall_s:.3f}")
    base_s, traced_s = _calibrated(base, speed), _calibrated(traced, speed)
    metrics["reports.out_bytes"] = (traced.out_path.stat().st_size, "bytes")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.base_run_s"] = (base_s, "s")
    metrics["trace.overhead"] = (traced_s / base_s - 1.0, "ratio")
    return [base, traced], metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "conecert" / "cli.py").is_file():
        print(f"error: no conecert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(HERE / "design.json", encoding="utf-8") as fh:
        design = json.load(fh)
    workload = design["workloads"].get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli_argv = [*workload["argv"], "--seed", str(args.seed)]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # every process started from here inherits this one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        speed = Speed(WORK / "speed.txt", design["reference_chunk_s"])
        try:
            # compiles the package's bytecode, so no measured process pays for it
            _spawn("warmup", [], deadline, probe=True)
            if args.trace:
                invs, metrics, problems = _traced(cli_argv, deadline, speed)
            else:
                invs, metrics = _timed(workload, cli_argv, args.seconds, deadline, speed)
                problems = []
        finally:
            speed.stop()
        checks_t0 = time.monotonic()
        attempted, found, counts = _check_outputs(invs, workload, args.seed)
        print(f"# checks took {time.monotonic() - checks_t0:.1f} s")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    problems += found
    if args.trace:
        # a wrapper missed through a stale binding would show up here
        for name, want in counts.items():
            got = metrics.get(name, (None,))[0]
            if got != want:
                problems.append(f"trace {name} = {got}, output says {want}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} was not measured")
            metrics[name] = (0.0, metrics[name][1])
    for p in problems:
        print(f"# FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
