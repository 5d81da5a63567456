"""One workload process of the benchmark (started by ``run.py``).

    worker.py ROOT WORKLOAD SEED MODE BUDGET MIN_ROUNDS

MODE is ``probe`` (set up, then stop before the first operation),
``measure`` (whole rounds of timed operations, at least MIN_ROUNDS of them,
until about BUDGET seconds have passed) or ``trace`` (a round with stage
timers, then a round under the profiling hook).
Set-up runs from the first line of this file to the first timed operation:
importing the library and the benchmark's modules, reading the pinned
inputs and ordering them by SEED.  The last line of standard output is a
JSON object with the results.

Every time is reported twice: as wall time, and scaled to the reference
speed (see :class:`Clock`).  The end-to-end metrics use the scaled times.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


# The reference loop takes about this long on the 2-core host the
# benchmark was tuned on; scaled times are wall times at that speed.
REFERENCE_S = 0.0045
REFERENCE_LOOPS = 600
CALIBRATE_EVERY_S = 0.1


def reference():
    """Fixed work the CPU's current speed is read from: stdlib Fraction
    arithmetic and dict updates, no library code."""
    from fractions import Fraction
    x, acc, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(REFERENCE_LOOPS):
        acc = acc + x * Fraction(i % 7 + 1, i % 5 + 2)
        seen[i % 13] = seen.get(i % 13, 0) + i
    return acc


def calibrate():
    """Seconds the reference loop takes now, with the collector off so
    that the library's heap cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Scales operation times to the reference speed.

    The host's CPU speed swings by up to 40% for seconds at a time, far
    more than the changes this benchmark must resolve.  The reference loop
    runs every ``CALIBRATE_EVERY_S`` seconds, outside the operations, and
    the operations between two calibrations are scaled by REFERENCE_S over
    the mean of the two.
    """

    def __init__(self):
        self.last = calibrate()
        self.last_at = time.perf_counter()
        self.pending = []
        self.scaled = []
        self.references = [self.last]

    def add(self, seconds):
        self.pending.append(seconds)
        if time.perf_counter() - self.last_at >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self):
        ref = calibrate()
        factor = REFERENCE_S / ((self.last + ref) / 2)
        self.scaled += [x * factor for x in self.pending]
        self.pending = []
        self.last, self.last_at = ref, time.perf_counter()
        self.references.append(ref)


def load(bench, workload):
    with open(os.path.join(bench, "inputs", workload + ".json.gz"),
              "rb") as fh:
        docs = json.loads(gzip.decompress(fh.read()))["docs"]
    with open(os.path.join(bench, "inputs", "expected.json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    return docs, expected["digests"], expected["meta"]


def attempt(run, workload, text, call):
    """Run one operation; None when it raised (reported on stderr)."""
    try:
        return run(workload, text, call)
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        return None


def measure(workload, docs, digests, meta, order, budget, min_rounds,
            oracles):
    import checks
    import ops
    clock, wall, problems, failed = Clock(), [], [], 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for i in order:
            t0 = time.perf_counter()
            result = attempt(ops.run, workload, docs[i], ops.direct)
            seconds = time.perf_counter() - t0
            if result is None:
                failed += 1
                continue
            clock.add(seconds)
            wall.append(seconds * 1e3)
            problems += checks.check(workload, result, digests[i], meta[i],
                                     full=rounds == 0)
            if oracles and rounds == 0:
                problems += checks.oracle(workload, i, docs[i], result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds / 2 > budget:
            break
    clock.flush()
    return {"latencies_ms": [x * 1e3 for x in clock.scaled],
            "wall_latencies_ms": wall, "references_s": clock.references,
            "rounds": rounds,
            "attempted": rounds * len(order), "failed": failed,
            "problems": problems[:20],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(workload, docs, digests, meta, order):
    """One round timing the stages of each operation, then the same round
    under the profiling hook, which counts calls and times a few inner
    functions; the difference between the two rounds is the hook's
    overhead."""
    import checks
    import layers
    import ops
    problems, failed = [], 0
    spans, plain = layers.Spans(), Clock()
    for i in order:
        t0 = time.perf_counter()
        result = attempt(ops.run, workload, docs[i], spans)
        plain.add(time.perf_counter() - t0)
        failed += result is None
    plain.flush()
    hook, hooked, counts = layers.Hook(), Clock(), {}
    for i in order:
        t0 = time.perf_counter()
        with hook:
            result = attempt(ops.run, workload, docs[i], ops.direct)
        hooked.add(time.perf_counter() - t0)
        if result is None:
            failed += 1
            continue
        problems += checks.check(workload, result, digests[i], meta[i],
                                 full=True)
        for name, n in layers.output_counts(workload, docs[i],
                                            result).items():
            counts[name] = counts.get(name, 0) + n
    hooked.flush()
    # the reference loop runs between operations, with the hook off
    values = {}
    for clock, ms in ((plain, spans.ms), (hooked, hook.ms)):
        factor = REFERENCE_S / statistics.median(clock.references)
        values.update((name, x * factor) for name, x in ms.items())
    values.update(hook.counts)
    values.update(counts)
    tried = values.get("dga.assignments_tried", 0)
    values["dga.hit_ratio"] = (values.get("dga.augmentations_found", 0)
                               / tried if tried else 0)
    values["bench.trace_overhead_s"] = sum(hooked.scaled) - sum(plain.scaled)
    return {"attempted": 2 * len(order), "failed": failed,
            "problems": problems[:20],
            "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                        for name, unit in layers.METRICS},
            "stages_ms": dict(sorted(spans.ms.items()))}


def main(argv):
    root, workload, seed, mode, budget, min_rounds = argv
    src = os.path.join(root, "src")
    bench = os.path.join(root, "bench")
    sys.path[:0] = [src, bench]
    import chordbars
    if not os.path.abspath(chordbars.__file__).startswith(src + os.sep):
        raise SystemExit("chordbars was imported from %s, not from %s"
                         % (chordbars.__file__, src))
    import checks  # noqa: F401  (part of set-up)
    import ops  # noqa: F401
    docs, digests, meta = load(bench, workload)
    order = list(range(len(docs)))
    random.Random(int(seed)).shuffle(order)
    setup = time.perf_counter() - T0
    references = [calibrate() for _ in range(5)]
    out = {"setup_s": setup * REFERENCE_S / statistics.median(references),
           "wall_setup_s": setup}
    if mode == "measure":
        # the oracles run in the ``python`` worker only
        out.update(measure(workload, docs, digests, meta, order,
                           float(budget), int(min_rounds),
                           oracles=__debug__))
    elif mode == "trace":
        out.update(trace(workload, docs, digests, meta, order))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
