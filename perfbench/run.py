#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rtem metering pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload metering_wide --seed 3 --seconds 25 --trace 0

`--workload all` runs fleet_dense, metering_wide and roaming_mixed in turn
and prints one result line per workload.

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then:

* `--trace 0` runs measured worlds, one `perfbench-measure` process per
  world, until `--seconds` have passed (at least MIN_WORLDS worlds), and
  reports every end-to-end metric of BENCHMARK.json as the median across
  worlds (step percentiles over every step of every world).
* `--trace 1` runs the same measured worlds, then one `perfbench-trace`
  world, and reports every per-layer metric of BENCHMARK.json. It writes
  `perfbench/results/<workload>-seed<seed>.layers.json` next to the
  Chrome trace `<workload>-seed<seed>.trace.json` the trace binary wrote.

Each world passes a correctness gate (see `gate` in src/lib.rs), and every
world of one workload and seed, traced or not, must produce the same report
digest. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `attempted` counts worlds,
`failed` the worlds that crashed, timed out or failed the gate. The
program exits 1 without that line if the build fails or no world finished.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_dense", "metering_wide", "roaming_mixed")

# Worlds per measured run, whatever --seconds says: medians need several.
MIN_WORLDS = 3
# Every process this script starts must have ended this many seconds after
# measuring began, so the whole run stays inside its time limit.
MEASURE_LIMIT_S = 160.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds both binaries; returns the directory that holds them."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except OSError as error:
        fail(f"cannot run cargo: {error}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("the benchmark did not build")
    return os.path.join(os.path.abspath(target), "release")


def run_world(argv, deadline):
    """Runs one world process; returns its JSON, or None if it failed."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        return None
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {os.path.basename(argv[0])} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: {os.path.basename(argv[0])} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"perfbench: unreadable output from {os.path.basename(argv[0])}", file=sys.stderr)
        return None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Worlds:
    """The measured worlds of one run and their gate."""

    def __init__(self):
        self.good = []
        self.crashed = 0
        self.gate_failed = 0
        self.digests = set()

    def add(self, world):
        if world is None:
            self.crashed += 1
            return
        self.digests.add(world["digest"])
        if world["gate_failures"]:
            self.gate_failed += 1
            for failure in world["gate_failures"]:
                print(f"perfbench: gate: {failure}", file=sys.stderr)
        self.good.append(world)

    @property
    def attempted(self):
        return len(self.good) + self.crashed

    @property
    def failed(self):
        return self.crashed + self.gate_failed

    @property
    def correct(self):
        return self.failed == 0 and len(self.digests) == 1


def measure(bins, workload, seed, seconds, started):
    worlds = Worlds()
    argv = [
        os.path.join(bins, "perfbench-measure"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    deadline = started + MEASURE_LIMIT_S
    while worlds.attempted < MIN_WORLDS or time.monotonic() - started < seconds:
        if time.monotonic() >= deadline or (worlds.crashed >= MIN_WORLDS and not worlds.good):
            break
        worlds.add(run_world(argv, deadline))
    return worlds


def end_to_end(worlds):
    good = [w for w in worlds.good if not w["gate_failures"]] or worlds.good
    steps = [s for w in good for s in w["step_s"]]
    sent = sum(w["reports_sent"] for w in worlds.good)
    unacked = sum(w["reports_sent"] if w["gate_failures"] else w["reports_unacked"] for w in worlds.good)
    # A world that crashed counts every report it would have sent as failed.
    typical = statistics.median(w["reports_sent"] for w in worlds.good)
    sent += typical * worlds.crashed
    unacked += typical * worlds.crashed
    return {
        "setup_s": statistics.median(s for w in good for s in w["setup_s"]),
        "device_ticks_per_wall_s": statistics.median(w["device_ticks"] / w["wall_s"] for w in good),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p95": percentile(steps, 0.95) * 1e3,
        "collect_s": statistics.median(w["collect_s"] for w in good),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in good),
        "uplink_failure_ratio": unacked / sent if sent else 1.0,
    }, len(steps)


def run_workload(bins, workload, seed, seconds, trace, units):
    """Runs one workload; prints its table and returns its result object."""
    started = time.monotonic()
    worlds = measure(bins, workload, seed, seconds, started)
    if not worlds.good:
        fail(f"{workload}: no measured world finished")
    values, steps = end_to_end(worlds)
    print(
        f"{workload} seed {seed}: {worlds.attempted} measured worlds, "
        f"{steps} steps of 1 s pooled, {worlds.failed} failed, "
        f"digest {', '.join(sorted(worlds.digests))}"
    )
    if trace:
        out = os.path.join(HERE, "results")
        traced = run_world(
            [
                os.path.join(bins, "perfbench-trace"),
                "--workload", workload,
                "--seed", str(seed),
                "--out", out,
            ],
            started + MEASURE_LIMIT_S,
        )
        worlds.add(traced)
        if traced is None:
            fail(f"{workload}: the traced world did not finish")
        untraced_wall = statistics.median(w["wall_s"] for w in worlds.good if w is not traced)
        values = dict(traced["metrics"])
        values["telemetry.overhead_ratio"] = traced["wall_s"] / untraced_wall - 1.0
        print(f"traced world: wall {traced['wall_s']:.3f} s, spans in {traced['trace_file']}")

    missing = [name for name in units if name not in values]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:34} {metric['value']:.6g} {metric['unit']}")
    if trace:
        path = os.path.join(HERE, "results", f"{workload}-seed{seed}.layers.json")
        with open(path, "w") as f:
            json.dump(metrics, f, indent=1)
    return {
        "correct": worlds.correct,
        "attempted": worlds.attempted,
        "failed": worlds.failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(bins, workload, args.seed, args.seconds, args.trace, units)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
