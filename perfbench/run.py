"""nilquat benchmark: one seeded, oracle-checked workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
untraced run (--trace 0) prints every end-to-end metric; the traced run
(--trace 1) prints every per-layer metric.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}.  DESIGN.md describes
the workloads and what each metric should move.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
# Passes a run makes even when they overrun --seconds: an operation that
# runs once a pass needs two samples for its fastest time to mean much.
MIN_PASSES = 2
# Percentiles the tail may take; the highest with ten samples beyond it.
TAIL_LADDER = (90, 95, 99, 99.9)
LAYERS = ("chain_ring", "mat2", "orbits", "nilfactor", "quaternion",
          "verify", "cli")
# The host probe runs twice whenever this long has passed since it last
# ran, between operations.
PROBE_EVERY_S = 0.1
# Its first-quartile time on a quiet host; timings are reported at this
# host speed.
PROBE_REF_MS = 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, ok, detail=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail!r}"[:2000], file=sys.stderr)


class HostProbe:
    """Host speed, from a fixed kernel owned by the benchmark: a Python
    loop and a numpy gather from an 8 MB table, the two kinds of work the
    package does.  The shared host runs everything up to 30% slower for
    minutes at a time, longer than a run, so the fastest time of an
    operation cannot remove it; the probe, timed through the same passes,
    slows with it (DESIGN.md gives how closely).  ``scale`` turns a run's
    times into times at the reference speed PROBE_REF_MS.  The program
    under test never runs inside the probe, so a change to it moves the
    scaled times as much as the raw ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 2**20, size=2**20)
        self._index = rng.integers(0, 2**20, size=100_000)
        self.samples: list[float] = []
        self._due = 0.0

    def _kernel(self) -> int:
        acc = 0
        for i in range(7500):
            acc += i * i % 7
        return acc + int(self._table[self._index].sum())

    def tick(self):
        if time.perf_counter() < self._due:
            return
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        self._due = time.perf_counter() + PROBE_EVERY_S

    def quartile_ms(self) -> float:
        return percentile(self.samples, 25) * 1e3

    def scale(self) -> float:
        return PROBE_REF_MS / self.quartile_ms()


def execute(op, tracer, tally):
    t0 = time.perf_counter()
    with tracer.span(op.name, op.layer, op=op.id, **op.fields) as rec:
        try:
            result = op.call()
        except Exception as exc:  # refusals are judged by the check
            result = exc
        rec["route"] = "refused" if isinstance(result, Exception) else op.route
    dt = time.perf_counter() - t0
    with tracer.span("bench.check", "bench", op=op.id):
        ok = op.check(result)
    if not ok and not isinstance(result, Exception) and op.cli:
        result = (result.returncode, result.stderr[-500:])
    tally.record(f"op {op.id} {op.name} {op.fields}", ok, result)
    return dt


def run_passes(prepared, seconds, tracer, tally, probe,
               min_passes=MIN_PASSES):
    """Whole passes over the schedule until the time is used up, with the
    host probe between operations.  After ``min_passes``, another pass starts
    only while at least half of it still fits, so every operation has the
    same number of samples per repeat.  Returns the samples of each
    distinct operation, indexed by its id."""
    samples = [[] for _ in prepared.ops]
    start = time.perf_counter()
    last = 0.0
    passes = 0
    while (passes < min_passes
           or time.perf_counter() - start + last / 2 <= seconds):
        p0 = time.perf_counter()
        for op in prepared.schedule:
            probe.tick()
            samples[op.id].append(execute(op, tracer, tally))
        last = time.perf_counter() - p0
        passes += 1
    return samples


def percentile(values, p):
    return float(np.percentile(np.asarray(values, dtype=float), p))


def end_to_end(ops, samples):
    """wall_s is the operation list with each operation once, at its
    fastest over all its samples.  The latency percentiles run over the
    library requests (the operations sharing a ``request``, summed), so
    they do not depend on how many passes fit.

    The fastest, not the median: on a shared host the same call slows by
    up to 3x for seconds at a time, and the minimum over the passes
    spreads far less from run to run than the median (see DESIGN.md)."""
    per_op = [min(s) for s in samples]
    requests = defaultdict(float)
    for op, m in zip(ops, per_op):
        if not op.cli:
            requests[op.id if op.request is None else op.request] += m
    lib = list(requests.values())
    # the CLI calls of a workload cost the same by design, so all their
    # samples are samples of one cold call.  Their median, not their
    # fastest: a 0.3-0.8 s call falls wholly inside one of the host's
    # phases, and the fastest of 6-18 such samples spread twice as much
    # from run to run once scaled by the host probe.
    cli = [x for op, s in zip(ops, samples) if op.cli for x in s]
    tail_p = 50
    for p in TAIL_LADDER:
        if len(lib) * (1 - p / 100) >= 10:
            tail_p = p
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": percentile(lib, 50) * 1e3,
        "op_tail_ms": percentile(lib, tail_p) * 1e3,
        "cli_s": statistics.median(cli),
    }, {"tail_percentile": tail_p, "latency_requests": len(lib),
        "samples_per_op": sorted({len(s) for s in samples}),
        "cli_samples": len(cli)}


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    from workloads import run_python
    code = ("import time; t = time.perf_counter(); import nilquat; "
            "print(time.perf_counter() - t)")
    return float(run_python(["-c", code]).stdout)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def prepare(name, seed, tracer, last):
    from workloads import WORKLOADS
    prepared = WORKLOADS[name](np.random.default_rng(seed), tracer, last)
    for i, op in enumerate(prepared.ops):
        op.id = i
    return prepared


def record_checks(prepared, tally):
    for what, ok in prepared.checks:
        tally.record(f"check {what}", ok)


def pass_metrics(spans):
    """Per-layer medians of the workload's own spans, keyed by the call
    and the fields that select its cost."""
    groups = defaultdict(list)
    for s in spans:
        if s["layer"] == "bench":
            continue
        key = [s["name"]]
        for f in ("ring", "suite", "s", "kind", "route"):
            if s.get(f) is not None:
                key.append(f"s{s[f]}" if f == "s" else str(s[f]))
        groups[".".join(key)].append(s["end"] - s["start"])
    return {k: (statistics.median(v), len(v)) for k, v in sorted(groups.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilquat", "__init__.py")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import NullTracer, Tracer, self_times
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    tally = Tally()

    if not args.trace:
        setups = []
        imports = []
        prepared = None
        for r in range(SETUP_REPEATS):
            imports.append(import_seconds())
            prepared = None  # let the previous set-up go before the next
            t0 = time.perf_counter()
            prepared = prepare(args.workload, args.seed, NullTracer(),
                               last=r == SETUP_REPEATS - 1)
            setups.append(time.perf_counter() - t0)
        record_checks(prepared, tally)
        probe = HostProbe()
        samples = run_passes(prepared, args.seconds, NullTracer(), tally,
                             probe)
        metrics, info = end_to_end(prepared.ops, samples)
        metrics["setup_s"] = statistics.median(imports) + \
            statistics.median(setups)
        info["raw"] = {k: round(v, 6) for k, v in metrics.items()}
        scale = probe.scale()
        metrics = {k: v * scale for k, v in metrics.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                 "op_p50_ms": "ms", "op_tail_ms": "ms", "cli_s": "s"}
        out = {k: (metrics[k], units[k]) for k in units}
        info["probe_q1_ms"] = round(probe.quartile_ms(), 4)
        info["probe_samples"] = len(probe.samples)
        info["setup_repeats_s"] = [round(x, 4) for x in setups]
        info["import_s"] = [round(x, 4) for x in imports]
    else:
        from ladder import Ladder
        tracer = Tracer()
        with tracer.span("setup", "bench"):
            prepared = prepare(args.workload, args.seed, tracer, last=True)
        record_checks(prepared, tally)
        probe_un, probe_tr = HostProbe(), HostProbe()
        # one pass each at least, so the traced run, which also runs the
        # ladder, takes about as long as an untraced one
        untraced = run_passes(prepared, args.seconds / 2, NullTracer(),
                              tally, probe_un, min_passes=1)
        with tracer.span("pass", "bench"):
            traced = run_passes(prepared, args.seconds / 2, tracer, tally,
                                probe_tr, min_passes=1)
        workload_spans = list(tracer.spans)
        with tracer.span("ladder", "bench"):
            ladder = Ladder(tracer).run()
        for what, ok in ladder.checks:
            tally.record(f"ladder {what}", ok)
        # each half at the reference host speed, so a slow phase of the
        # host during one half does not read as tracing cost
        wall_un = end_to_end(prepared.ops, untraced)[0]["wall_s"] * \
            probe_un.scale()
        wall_tr = end_to_end(prepared.ops, traced)[0]["wall_s"] * \
            probe_tr.scale()
        selfs = self_times(tracer.spans)
        out = dict(ladder.metrics)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        out["trace.overhead_s"] = (wall_tr - wall_un, "s")
        per_pass = pass_metrics(workload_spans)
        info = {"untraced_wall_s": round(wall_un, 4),
                "traced_wall_s": round(wall_tr, 4),
                "spans": len(tracer.spans),
                "bench_self_s": round(selfs.get("bench", 0.0), 4)}
        for k, (v, n) in per_pass.items():
            print(f"pass {k} median_s={v:.6f} n={n}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out",
                            f"{args.workload}-seed{args.seed}-trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": {k: v for k, (v, _) in out.items()},
                       "self_s": selfs, "info": info,
                       "pass": {k: {"median_s": v, "n": n}
                                for k, (v, n) in per_pass.items()},
                       "spans": tracer.spans}, fh)

    for k, v in info.items():
        print(f"info {k} {v}")
    fail_ratio = tally.failed / max(tally.attempted, 1)
    print(f"metric fail_ratio {fail_ratio} ratio")
    for k, (v, unit) in out.items():
        print(f"metric {k} {v} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
