"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` from the checkout that holds this
file and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A measured run starts, one after another, ten set-up probes, a ``python``
worker that times whole rounds of the workload for about 55% of S seconds
(two rounds at least), a ``python -O`` worker that does the same for the
rest (one round at least), and ten more set-up probes; a traced run starts
one worker.  The minimum rounds can outlast S: on ``drift`` a run takes
about 28 s at S = 20.  Every worker is a single caller in a closed loop:
the next operation starts when the previous one has returned.  See
``bench/README.md``.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("replay", "drift", "engines", "chords")
PYTHON_SHARE = 0.55
PROBES = 20
DEADLINE_S = 175


def tail_percentile(ops_per_round):
    """The highest of these percentiles that leaves at least ten of one
    round's operations beyond it."""
    return max(p for p in (75, 80, 90, 95, 98, 99)
               if ops_per_round * (100 - p) >= 1000)


def percentile(values, p):
    """Percentile interpolated between the two nearest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def worker(workload, seed, mode, budget=0.0, min_rounds=1, optimize=False):
    """Run one worker process to its end and return its result object."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # string hashing fixed so that per-layer counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-S"] + (["-O"] if optimize else []) + [
        os.path.join(BENCH, "worker.py"), ROOT, workload, str(seed), mode,
        repr(budget), str(min_rounds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True, check=False,
                          timeout=max(1.0, STARTED + DEADLINE_S
                                      - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit("%s worker exited with code %d"
                         % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measured(workload, seed, seconds, ops_per_round):
    probes = [worker(workload, seed, "probe") for _ in range(PROBES // 2)]
    # two rounds at least, so that the percentiles do not rest on a single
    # timing of each document
    py = worker(workload, seed, "measure", PYTHON_SHARE * seconds,
                min_rounds=2)
    opt = worker(workload, seed, "measure", (1 - PYTHON_SHARE) * seconds,
                 optimize=True)
    probes += [worker(workload, seed, "probe") for _ in range(PROBES // 2)]
    lat, lat_opt = py["latencies_ms"], opt["latencies_ms"]
    wall, wall_opt = py["wall_latencies_ms"], opt["wall_latencies_ms"]
    metrics = {
        "ops_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_tail_ms": (percentile(lat, tail_percentile(ops_per_round)),
                       "ms"),
        "ops_per_s_opt": (len(lat_opt) / (sum(lat_opt) / 1e3), "1/s"),
        "peak_rss_mb": (py["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(
            w["setup_s"] for w in probes + [py]), "s"),
    }
    return {"correct": not (py["problems"] or opt["problems"]),
            "attempted": py["attempted"] + opt["attempted"],
            "failed": py["failed"] + opt["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "problems": py["problems"] + opt["problems"],
            "rounds": [py["rounds"], opt["rounds"]],
            "wall_clock": {
                "ops_per_s": len(wall) / (sum(wall) / 1e3),
                "op_p50_ms": percentile(wall, 50),
                "ops_per_s_opt": len(wall_opt) / (sum(wall_opt) / 1e3),
                "setup_s": statistics.median(
                    w["wall_setup_s"] for w in probes + [py])}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    inputs = os.path.join(BENCH, "inputs", args.workload + ".json.gz")
    for need in (os.path.join(ROOT, "src", "chordbars", "__init__.py"),
                 inputs):
        if not os.path.isfile(need):
            print("error: %s is missing; run from a full checkout" % need,
                  file=sys.stderr)
            return 2
    # bytecode is written before any set-up is timed, so that every
    # worker imports the same compiled files
    for tree in (os.path.join(ROOT, "src"), BENCH):
        compileall.compile_dir(tree, quiet=1, optimize=[0, 1])
    with open(os.path.join(BENCH, "inputs", "expected.json"),
              encoding="utf-8") as fh:
        ops_per_round = len(json.load(fh)[args.workload]["digests"])
    if args.trace:
        out = worker(args.workload, args.seed, "trace")
        out["correct"] = not out["problems"]
    else:
        out = measured(args.workload, args.seed, args.seconds, ops_per_round)
    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-%s-seed%d.json" % ("trace" if args.trace else "run",
                                  args.workload, args.seed)
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for problem in out["problems"]:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
