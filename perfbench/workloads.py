"""The benchmark's workloads: scenario files generated from the workload seed.

Each workload is one `mbaa-scenario/1` document. The benchmark's `--seed`
becomes `seeds.start`, so another seed gives other adversary streams over
the same system sizes. Every workload sits above its model's bound, so the
paper guarantees every run reaches ε-agreement with validity.

`workers` is the `--workers` the untraced run passes to `mbaa`, capped at
the cores the benchmark may use. `sweep-1000` runs on one worker: its
packs take about a millisecond, so whether a second worker's thread starts
in time to take one decides its speed, and on a shared machine that flips
from run to run. The traced run always passes two workers, and its
`sim.parallel_efficiency` shows what the second one buys.

The expectations below are what the benchmark and its tests check:
`points` and `seeds` are exact, `rounds` is each run's round count
(`None` where the count varies per point) and `path` is the execution path
every lane must take (`fast` or `shared`), or `None` when the workload
instead checks the sweep path's pack occupancy (`min_occupancy`).
"""

import json

FORMAT = "mbaa-scenario/1"

# M1 is the Garay model; its bound is n > 4f.
_M1 = "garay"

WORKLOADS = {
    "complete-256": {
        "why": "M1, n=256, f=63 on the complete graph: the batch fast path "
        "(one sort per lane-round, at most 2f special senders, lane-major MSR fold)",
        "scenario": {
            "model": _M1,
            "n": 256,
            "f": 63,
            "epsilon": 1e-9,
            "workload": {"uniform-spread": {"lo": 0, "hi": 1000000}},
        },
        "workers": 2,
        "seeds": 64,
        "sweep": None,
        "points": 1,
        "rounds": 46,
        "path": "fast",
        "min_occupancy": None,
    },
    "ring-256": {
        "why": "M1, n=256, f=2 on ring{k:32}: the general path over a static "
        "shared mask (SharedRealization exchange plus a per-row sort)",
        "scenario": {
            "model": _M1,
            "n": 256,
            "f": 2,
            "epsilon": 1e-3,
            "topology": {"ring": {"k": 32}},
        },
        "workers": 2,
        "seeds": 64,
        "sweep": None,
        "points": 1,
        "rounds": 71,
        "path": "shared",
        "min_occupancy": None,
    },
    "churn-256": {
        "why": "ring-256 under churn{flip_rate:0.1}: the dynamic shared path "
        "(per-link churn draws and a connectivity BFS every round)",
        "scenario": {
            "model": _M1,
            "n": 256,
            "f": 2,
            "epsilon": 1e-3,
            "schedule": {"churn": {"base": {"ring": {"k": 32}}, "flip_rate": 0.1}},
        },
        "workers": 2,
        "seeds": 64,
        "sweep": None,
        "points": 1,
        "rounds": 72,
        "path": "shared",
        "min_occupancy": None,
    },
    "sweep-1000": {
        "why": "M1, n=9, f=1, 1000 churn points x 16 seeds: per-run JSON, "
        "chunk I/O and report rendering weigh as much as execution; cross-point packing",
        "scenario": {"model": _M1, "n": 9, "f": 1},
        "workers": 1,
        "seeds": 16,
        # 1000 flip rates spread evenly over [0, 0.6).
        "sweep": {"churn": {"flip_rates": [i * 6 / 10000 for i in range(1000)]}},
        "points": 1000,
        "rounds": None,
        "path": None,
        "min_occupancy": 0.9,
    },
}


def document(name, seed):
    """The scenario document of workload `name` for workload seed `seed`."""
    spec = WORKLOADS[name]
    doc = {
        "format": FORMAT,
        "name": name,
        "title": spec["why"],
        "scenario": dict(spec["scenario"]),
        "seeds": {"start": seed, "count": spec["seeds"]},
    }
    if spec["sweep"] is not None:
        doc["sweep"] = spec["sweep"]
    return doc


def write(name, seed, path):
    """Writes the scenario file of workload `name` to `path`."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document(name, seed), out, indent=2)
        out.write("\n")


def total_runs(name):
    """Number of (point, seed) runs one sweep of the workload executes."""
    spec = WORKLOADS[name]
    return spec["points"] * spec["seeds"]


def check_report(name, seed, report, rounds=False):
    """Problems with a parsed `mbaa-report/1` document, and how many runs fail.

    A run fails when it is missing, has the wrong seed, did not reach
    agreement or broke validity. With `rounds`, it also fails when it took
    another number of rounds than the workload expects. Returns
    `(failed_runs, problems)`.
    """
    spec = WORKLOADS[name]
    problems = []
    points = report.get("points", [])
    if len(points) != spec["points"]:
        problems.append(f"{len(points)} points, expected {spec['points']}")
    want_seeds = list(range(seed, seed + spec["seeds"]))
    good = 0
    for index, point in enumerate(points[: spec["points"]]):
        runs = point.get("runs", [])
        if [run.get("seed") for run in runs] != want_seeds:
            problems.append(f"point {index}: seeds differ from {seed}..{seed + spec['seeds'] - 1}")
            continue
        for run in runs:
            ok = run.get("reached_agreement") is True and run.get("validity") is True
            if rounds and spec["rounds"] is not None and run.get("rounds") != spec["rounds"]:
                ok = False
            if ok:
                good += 1
            elif len(problems) < 8:
                problems.append(f"point {index}, seed {run.get('seed')}: {run}")
    return total_runs(name) - good, problems
