"""psverify benchmark: end-to-end time, CPU and memory per workload, and a
traced pass that gives self time and counts per module.

    python3 perfbench/run.py --workload verify_w22 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root (any directory works; paths resolve from this
file).  Each sample is a fresh ``python3`` process running psverify from
``src``, one at a time: a closed loop with one client.  Samples are started
until the next one would end after ``--seconds``.  Every sample goes through
``gate.check``; one that fails counts in ``failed`` and never in a timing.
The metrics printed are the ones ``BENCHMARK.json`` names: its
``end_to_end`` list with ``--trace 0`` and its ``per_layer`` list with
``--trace 1``.  Lines before the last give the run environment and every
metric with its quartiles and sample count; the last line is one JSON object.

The times of the end-to-end metrics are rescaled to a reference host speed:
a fixed stdlib workload, the probe, is timed before the first sample and
after each one, and a sample's times are multiplied by ``PROBE_REF_S`` over
the geometric mean of the probes on either side of it (wall times by the
probe's wall time, CPU time by its CPU time).  The shared host this
runs on changes speed by up to a half within seconds, and the probe slows
down with it; the raw times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_CMD = [sys.executable, "-c", "import principal_subspaces.cli"]
SETUP_REPEATS = 4  # after every sample
PROBE_REF_S = 0.2  # probe time at the reference host speed
# printed with the metrics of an untraced run, but not metrics of BENCHMARK.json
INFO = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s", "probe_s": "s"}


def _session(rng: random.Random):
    """All six orders of the three calls, shuffled by the seed and repeated.

    The order moves the time by about a quarter (the calls share the Fock
    caches), so each run cycles through every order instead of fixing one.
    """
    calls = [f"{name} --module all --max-weight 20 --format json".split()
             for name in ("verify", "qseries", "dims")]
    orders = [list(order) for order in itertools.permutations(calls)]
    rng.shuffle(orders)
    return itertools.cycle(orders)


# workload name -> seeded iterator over the psverify command lines of each
# sample, all run in one process
WORKLOADS = {
    "verify_w22": lambda rng: itertools.repeat(
        ["verify --module all --max-weight 22 --format json".split()]),
    "lemmas_w6": lambda rng: itertools.repeat(
        ["lemmas --max-weight 6 --t-max 20 --format json".split()]),
    "session_w20": _session,
}


def child_env() -> dict[str, str]:
    # A fixed hash seed: under hash randomization verify_w22's CPU time moves
    # by up to a quarter between otherwise identical processes.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Sample:
    """One finished child process and what the gate made of it."""

    def __init__(self, argvs: list[list[str]], spans_path: str | None = None):
        cmd = [sys.executable, str(HERE / "child.py")]
        if spans_path:
            cmd += ["--spans", spans_path]
        cmd.append(json.dumps(argvs))
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                raise
            self.wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.problems = gate.check(argvs, proc.returncode, stdout)
        for problem in self.problems:
            print(f"gate: {problem}", file=sys.stderr)


def setup_times(repeats: int) -> list[float]:
    """Wall times of interpreter start plus ``import principal_subspaces.cli``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(SETUP_CMD, env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_for(seconds: float, step) -> None:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def probe() -> tuple[float, float]:
    """Wall and CPU time of the probe: Fraction sums into a small dict with
    tuple keys, work of the kind psverify does, the same on every call (about 0.2 s on the 2-vCPU Xeon host this was written on).  The
    dict is kept small because a sample process's peak RSS starts from this
    process's, and must stay below what the smallest workload uses."""
    wall, cpu = time.perf_counter(), time.process_time()
    table = {}
    total = Fraction(0)
    for i in range(1, 50001):
        total += Fraction(i % 89 + 1, i % 97 + 1)
        table[i % 4099, i % 3] = total
    return time.perf_counter() - wall, time.process_time() - cpu


def end_to_end(inputs, seconds: float):
    """Untraced samples, each followed by set-up timings and a probe; the
    times of one step are rescaled by the probes on either side of it, and
    the raw times go under ``raw_*`` names."""
    setup_times(1)  # fill the bytecode cache
    samples: list[Sample] = []
    values: dict[str, list[float]] = {"setup_s": [], "raw_setup_s": []}
    probes = [probe()]

    def step() -> None:
        sample = Sample(next(inputs))
        setup = setup_times(SETUP_REPEATS)
        probes.append(probe())
        (wall0, cpu0), (wall1, cpu1) = probes[-2:]
        wall_scale = PROBE_REF_S / math.sqrt(wall0 * wall1)
        cpu_scale = PROBE_REF_S / math.sqrt(cpu0 * cpu1)
        samples.append(sample)
        values["setup_s"] += [t * wall_scale for t in setup]
        values["raw_setup_s"] += setup
        if sample.problems:
            return
        for key, scale in (("wall_s", wall_scale), ("cpu_s", cpu_scale)):
            values.setdefault(key, []).append(getattr(sample, key) * scale)
            values.setdefault("raw_" + key, []).append(getattr(sample, key))
        values.setdefault("peak_rss_mb", []).append(sample.peak_rss_mb)

    run_for(seconds, step)
    values["probe_s"] = [wall for wall, _ in probes]
    return samples, values


def traced(inputs, seconds: float):
    """Traced samples only; per-layer values per sample."""
    samples: list[Sample] = []
    values: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        path = os.path.join(tmp, "spans.json")

        def step() -> None:
            sample = Sample(next(inputs), path)
            samples.append(sample)
            if sample.problems:
                return
            with open(path, encoding="utf-8") as fh:
                layers = spans.layer_metrics(json.load(fh))
            for name, value in layers.items():
                values.setdefault(name, []).append(value)

        run_for(seconds, step)
    return samples, values


def quartiles(values: list[float], unit: str) -> tuple[float, float, float]:
    """First quartile, median and third quartile.  The median of a count is
    one of the counts, so that a count that repeats reads as that count."""
    median = (statistics.median_low if unit == "count" else statistics.median)(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    inputs = WORKLOADS[name](random.Random(seed))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    samples, values = (traced if trace else end_to_end)(inputs, seconds)
    failed = sum(1 for s in samples if s.problems)
    metrics = {}
    print(f"{name}: seed {seed}, {len(samples)} samples, fail_frac {failed / len(samples):g}")
    units = {m["name"]: m["unit"] for m in wanted}
    for metric, unit in (units | INFO).items():
        if metric not in values:
            continue
        q1, median, q3 = quartiles(values[metric], unit)
        if metric not in INFO:
            metrics[metric] = {"value": median, "unit": unit}
        print(f"  {metric:<38} {median:>14.6g} {unit:<6}"
              f" q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values[metric])}")
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "principal_subspaces" / "cli.py").is_file():
        print(f"error: no psverify source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds or spec["run_seconds"]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    env["loadavg_end"] = os.getloadavg()
    print("env: " + json.dumps(env))
    result = results[args.workload] if args.workload != "all" else results
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
