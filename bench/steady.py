"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steady.py

Runs ``bench/run.py`` ten times per set, in two sets, on every workload of
``BENCHMARK.json``, each time with a new seed (1, 2, ... in turn), for the
run length given there.  For every end-to-end metric it prints each set's
median and its spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound, and how far the second set's median moved from the
first's (positive when worse).  A metric passes when both spreads and the
size of the move stay within its bound; ``setup_s`` is held to this like
every other metric.  The share of failed operations must be the same in
both sets.  Results go to ``bench/results/steady.json``.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], stdout=subprocess.PIPE, text=True, cwd=ROOT,
        check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    report = {}
    ok = True
    seed = 1
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(runs)
        shares = [(sum(r["failed"] for r in runs),
                   sum(r["attempted"] for r in runs)) for runs in sets]
        failed_ok = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= failed_ok and correct
        print("%s: correct %s, failed/attempted %s" % (
            workload, correct, shares))
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            (s1, first), (s2, second) = stats
            sign = 1 if metric["better"] == "lower" else -1
            moved = sign * (second - first) / first
            passed = abs(moved) <= bound and s1 <= bound and s2 <= bound
            ok &= passed
            rows[name] = {"medians": [first, second], "spreads": [s1, s2],
                          "moved": moved, "bound": bound, "pass": passed}
            print("  %-14s %10.4g %10.4g  spread %.3f %.3f  bound %.2f  "
                  "moved %+.3f  %s" % (name, first, second, s1, s2, bound,
                                       moved, "ok" if passed else "FAIL"))
        report[workload] = {"runs": sets, "metrics": rows,
                            "failed_share_equal": failed_ok,
                            "correct": correct}
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
