#!/usr/bin/env python3
"""End-to-end benchmark of the `mbaa` CLI, with a separate per-layer traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark builds the release `mbaa` binary and the trace tool in
`perfbench/trace` (into `$CARGO_TARGET_DIR`, default `.bench_build`) and
generates the workload's scenario file from `--seed` (see `workloads.py`).

`--trace 0` measures what a user waits for on the two ways from a scenario
file to a report: `mbaa sweep` then `mbaa merge` (the resumable path), and
`mbaa run --out` (the one-shot path). It repeats the cycle sweep, run,
merge on fresh directories for `--seconds` seconds and checks every
output. The throughputs are all runs over all wall seconds of the run's
cycles; the set-up time is a median.

`--trace 1` runs `mbaa run` once for the report and the metrics document,
then hands both to the trace tool. The tool replays the same work through
each layer's public functions and checks its replay against them.

The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is 0 when every check passed, 1 otherwise. See README.md for
the metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = [
    ("sweep_runs_per_s", "1/s"),
    ("oneshot_runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]
PER_LAYER = [
    ("json.parse_s", "s"),
    ("cli.plan_s", "s"),
    ("json.chunk_serialize_s", "s"),
    ("cli.chunk_write_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.chunks", "count"),
    ("cli.chunk_read_s", "s"),
    ("json.report_render_s", "s"),
    ("facade.execute_s", "s"),
    ("sim.lower_s", "s"),
    ("sim.packs", "count"),
    ("sim.pack_occupancy", "ratio"),
    ("sim.oneshot_packs", "count"),
    ("sim.oneshot_pack_occupancy", "ratio"),
    ("sim.parallel_efficiency", "ratio"),
    ("core.lane_rounds", "count"),
    ("core.adversary_plan_ns", "ns"),
    ("core.exchange_ns", "ns"),
    ("core.msr_apply_ns", "ns"),
    ("core.record_ns", "ns"),
    ("core.lanes_fast", "count"),
    ("core.lanes_shared", "count"),
    ("core.lanes_fallback", "count"),
    ("core.lanes_scalar", "count"),
    ("net.realize_s", "s"),
    ("net.messages_per_lane_round", "count"),
    ("msr.fold_ns_per_row", "ns"),
    ("trace.overhead", "ratio"),
]

# Worker threads of the traced run, and the most any `mbaa` invocation
# gets: 2, never above the cores this process may use.
WORKERS = min(2, len(os.sched_getaffinity(0)))
# Sweep, run, merge cycles per timed run, at least.
MIN_CYCLES = 3
# Scratch space for scenario files, checkpoints and reports.
WORK = HERE / ".work"


def fail(message):
    """Stops without a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the `mbaa` binary and the trace tool; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        fail(f"{ROOT} holds no mbaa workspace to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["-p", "mbaa-cli", "--bin", "mbaa"],
        ["--manifest-path", str(HERE / "trace" / "Cargo.toml")],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", *args],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            check=False,
        )
        if done.returncode != 0:
            fail(f"cargo build {' '.join(args)} exited with {done.returncode}")
    return target / "release" / "mbaa", target / "release" / "perfbench-trace"


def spawn(argv, log):
    """Runs one child to completion, output to `log`.

    Returns `(wall seconds, exit code, peak RSS in MiB)`. The peak comes
    from `wait4`.
    """
    argv = [str(arg) for arg in argv]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            argv[0],
            argv,
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(fd)
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def report_failures(name, seed, path, exited_ok):
    """`(failed runs, problems)` of one report; all its runs fail if the
    invocation behind it did not exit 0 or the report is unreadable."""
    runs = workloads.total_runs(name)
    if not exited_ok:
        return runs, [f"{path.name}: the invocation exited non-zero"]
    try:
        report = json.loads(path.read_bytes())
    except (OSError, ValueError) as e:
        return runs, [f"{path.name}: {e}"]
    return workloads.check_report(name, seed, report)


def differing_runs(a, b):
    """Runs that differ between two report files, at least 1."""
    try:
        pa, pb = json.loads(a.read_bytes())["points"], json.loads(b.read_bytes())["points"]
    except (OSError, ValueError, KeyError):
        return None
    differ = abs(len(pa) - len(pb))
    for x, y in zip(pa, pb):
        rx, ry = x.get("runs", []), y.get("runs", [])
        differ += abs(len(rx) - len(ry)) + sum(1 for u, v in zip(rx, ry) if u != v)
    return max(differ, 1)


def prepare(name, seed):
    """A fresh work directory holding the workload's scenario file."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    workloads.write(name, seed, scenario)
    return work, scenario


def tool_json(tool, args):
    """Runs the trace tool and parses the JSON object it prints."""
    done = subprocess.run(
        [str(tool), *[str(a) for a in args]], capture_output=True, text=True, check=False
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"perfbench-trace {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(tool, scenario):
    """Seconds per set-up, timed in-process by the trace tool."""
    return tool_json(tool, ["setup", "--scenario", scenario])["setup_s"]


def end_to_end(name, seed, seconds, mbaa, tool):
    """The untraced run: `(attempted, failed, problems, metrics)`."""
    work, scenario = prepare(name, seed)
    log = work / "mbaa.log"
    runs = workloads.total_runs(name)
    workers = min(workloads.WORKLOADS[name]["workers"], WORKERS)
    setups, peaks = [], []
    # Wall seconds of the resumable path (sweep + merge) and of the one-shot
    # path (run), summed over cycles.
    resumable_s, oneshot_s = 0.0, 0.0
    attempted, failed, problems = 0, 0, []
    # One untimed sweep first, so caches fill and clocks ramp up.
    spawn([mbaa, "sweep", scenario, "--checkpoint", work / "ck-warm", "--workers", workers], log)
    start = time.perf_counter()
    cycle = 0
    while True:
        began = time.perf_counter()
        checkpoint = work / f"ck-{cycle}"
        report = work / f"run-{cycle}.json"
        merged = work / f"merged-{cycle}.json"
        # Set-up is timed between invocations, so its samples spread over
        # the whole run.
        setups.append(setup_seconds(tool, scenario))
        sweep = spawn(
            [mbaa, "sweep", scenario, "--checkpoint", checkpoint, "--workers", workers], log
        )
        setups.append(setup_seconds(tool, scenario))
        oneshot = spawn([mbaa, "run", scenario, "--out", report, "--workers", workers], log)
        setups.append(setup_seconds(tool, scenario))
        merge = spawn([mbaa, "merge", checkpoint, "--out", merged], log)
        resumable_s += sweep[0] + merge[0]
        oneshot_s += oneshot[0]
        peaks.extend(r[2] for r in (sweep, oneshot, merge))

        # The correctness gate: every invocation exits 0, both reports hold
        # every run with agreement and validity, and the merged report is
        # byte-identical to the one-shot report.
        run_failed, run_problems = report_failures(name, seed, report, oneshot[1] == 0)
        merge_ok = sweep[1] == 0 and merge[1] == 0
        if merge_ok and report.is_file() and merged.is_file() and (
            report.read_bytes() == merged.read_bytes()
        ):
            merged_failed, merged_problems = run_failed, []
        else:
            merged_failed, merged_problems = report_failures(name, seed, merged, merge_ok)
            differ = differing_runs(report, merged)
            merged_failed = max(merged_failed, differ if differ is not None else runs)
            merged_problems.append(f"cycle {cycle}: merged report differs from run --out report")
        attempted += 2 * runs
        failed += run_failed + merged_failed
        problems += run_problems + merged_problems

        shutil.rmtree(checkpoint, ignore_errors=True)
        for path in (report, merged):
            path.unlink(missing_ok=True)
        cycle += 1
        elapsed = time.perf_counter() - start
        if cycle >= MIN_CYCLES and elapsed + (time.perf_counter() - began) > seconds:
            break
    print(
        f"perfbench: {name}: {cycle} cycles in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    # The throughputs weigh every second of the run alike. The box's speed
    # drifts by tens of percent over seconds, and with as few as 5 cycles a
    # run (churn-256) the ratio of sums spread less across seeds than the
    # median cycle did.
    metrics = {
        "sweep_runs_per_s": cycle * runs / resumable_s,
        "oneshot_runs_per_s": cycle * runs / oneshot_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks),
        "ok_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, problems, metrics


def traced(name, seed, seconds, mbaa, tool):
    """The traced run: `(attempted, failed, problems, metrics)`."""
    start = time.perf_counter()
    work, scenario = prepare(name, seed)
    report = work / "run.json"
    metrics_doc = work / "metrics.json"
    _, code, _ = spawn(
        [mbaa, "run", scenario, "--out", report, "--metrics-out", metrics_doc,
         "--workers", WORKERS],
        work / "mbaa.log",
    )
    if code != 0:
        fail(f"mbaa run exited with {code}; see {work / 'mbaa.log'}")
    failed, problems = report_failures(name, seed, report, True)
    spec = workloads.WORKLOADS[name]
    expect = []
    if spec["path"] is not None:
        expect += ["--expect-path", spec["path"]]
    if spec["min_occupancy"] is not None:
        expect += ["--min-occupancy", spec["min_occupancy"]]
    budget = max(1.0, seconds - (time.perf_counter() - start))
    data = tool_json(
        tool,
        ["trace", "--scenario", scenario, "--dir", work / "replay", "--report", report,
         "--metrics", metrics_doc, "--workers", WORKERS, "--seconds", f"{budget:.3f}", *expect],
    )
    print(f"perfbench: {name}: {data['replays']} traced replays", file=sys.stderr)
    attempted = workloads.total_runs(name) + data["attempted"]
    return attempted, failed + data["failed"], problems + data["problems"], data["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    mbaa, tool = build()
    measure = traced if args.trace else end_to_end
    attempted, failed, problems, values = measure(
        args.workload, args.seed, args.seconds, mbaa, tool
    )
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
