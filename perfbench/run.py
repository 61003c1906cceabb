"""Benchmark for berkdyn: four workloads, end-to-end metrics, traced layers.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload fiber-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the first round of the same inputs untraced, traced and untraced again,
checks that all give identical outputs, and reports the per-layer metrics from the
spans.  ``--all`` runs every workload both ways in child processes, prints
their metrics and writes ``results/summary.json``; ``--self-test`` runs every
workload at a tiny size in seconds.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import array
import collections
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 7
# p90 needs at least ten samples above it
MIN_SAMPLES = 100
# no new round starts after this much wall time, so a run ends within 180 s
WALL_CAP_S = 120.0

# Times the library import in a fresh interpreter, paced by slices taken in
# that interpreter just before and after the import.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from run import Pace\n"
    "s0 = Pace.slice()\n"
    "t0 = time.perf_counter()\n"
    "import berkdyn, berkdyn.equilibrium, berkdyn.ratmap, berkdyn.roots\n"
    "dt = time.perf_counter() - t0\n"
    "print(dt * Pace.NOMINAL_S * 2 / (s0 + Pace.slice()))\n"
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "resolved_share": "share",
    "peak_rss_mb": "MB",
}


def _load_library():
    if not (SRC / "berkdyn" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}/berkdyn; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import berkdyn

    if Path(berkdyn.__file__).resolve().parent != SRC / "berkdyn":
        print(f"perfbench: imported berkdyn from {berkdyn.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor()}


class Pace:
    """A clock that runs at the machine's reference speed.

    The shared host this benchmark was built on changes speed by up to 1.7x
    within seconds, so raw times of the same work spread too widely between
    runs.  While started, a timer signal every TICK_S interrupts the run to
    time a fixed slice of Fraction arithmetic.  ``now()`` advances by the
    work time since the last tick scaled by NOMINAL_S over the last slice
    time: seconds of a machine on which the slice takes NOMINAL_S.  Slice
    time itself is excluded from both ``now()`` and ``raw_now()``."""

    NOMINAL_S = 0.003
    TICK_S = 0.1

    def __init__(self):
        self.readings = [self.slice()]
        # (paced, raw, end of last slice, rate): replaced whole by each tick,
        # so a reader never mixes two ticks' values
        self.state = (0.0, 0.0, time.perf_counter(), self.NOMINAL_S / self.readings[0])

    @staticmethod
    def slice():
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 1000):
            acc += Fraction(1, i % 97 + 1)
        return time.perf_counter() - t0

    def _tick(self, signum, frame):
        paced, raw, last_end, rate = self.state
        work = time.perf_counter() - last_end
        s = self.slice()
        self.readings.append(s)
        self.state = (paced + work * rate, raw + work, time.perf_counter(), self.NOMINAL_S / s)

    def now(self):
        paced, _, last_end, rate = self.state
        return paced + (time.perf_counter() - last_end) * rate

    def raw_now(self):
        _, raw, last_end, _ = self.state
        return raw + (time.perf_counter() - last_end)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def source_digest():
    """Digest of the library and benchmark sources: traced counts must repeat
    exactly while both are unchanged."""
    h = hashlib.sha256()
    for path in sorted((SRC / "berkdyn").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_import():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload_cls, seed, tiny, repeats):
    """Build the workload and its first round; set-up time is the median over
    ``repeats`` fresh builds, each with the import time of a fresh interpreter."""
    times = []
    with Pace() as pace:
        for _ in range(repeats):
            imported = measure_import() if repeats > 1 else 0.0
            t0 = pace.now()
            wl = workload_cls(seed, tiny)
            wl.setup()
            first = wl.make_round(0)
            times.append(imported + pace.now() - t0)
    return wl, first, statistics.median(times)


class Tally:
    """Outcomes, latencies and digests of one pass over some rounds."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.timed_s = 0.0  # paced (see Pace)
        self.raw_s = 0.0
        self.latencies = array.array("d")  # compact: peak RSS should be the library's
        self.outcomes = collections.Counter()
        self.family = collections.defaultdict(lambda: [0, 0.0])  # ops, seconds
        self.kind = collections.defaultdict(lambda: [0, 0.0])
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()
        self.items = 0


def execute(wl, items, tally, pace, tracer=None):
    """Time each item; returns (item, output, exception name) triples."""
    from berkdyn import BerkdynError

    done = []
    for item in items:
        handle = tracer.begin_op(tally.items) if tracer else None
        exc, lat = None, None
        t0, r0 = pace.now(), pace.raw_now()
        try:
            out, lat = wl.run(item, pace.now)
        except BerkdynError as e:
            out, exc = None, type(e).__name__
        finally:
            dt, raw = pace.now() - t0, pace.raw_now() - r0
            if tracer:
                tracer.end_op(handle, exc)
        tally.items += 1
        tally.ops += item.n_ops
        tally.timed_s += dt
        tally.raw_s += raw
        for key, table in ((item.family, tally.family), (item.kind, tally.kind)):
            table[key][0] += item.n_ops
            table[key][1] += dt
        tally.latencies.extend(lat if lat is not None else [dt] * item.n_ops)
        if exc is None:
            tally.outcomes["ok"] += item.n_ops
        else:
            tally.failed += item.n_ops
            tally.outcomes[exc] += item.n_ops
        done.append((item, out, exc))
    return done


def verify(wl, done, tally, verified, fingerprints=None):
    """Check every output against its oracle, outside the timed section."""
    for item, out, exc in done:
        fp = hashlib.sha256((exc if exc is not None else wl.fingerprint(out)).encode()).digest()
        if exc is None:
            if item.desc in verified:
                if verified[item.desc] != fp:
                    from oracle import WrongAnswer

                    raise WrongAnswer(f"{item.desc}: output differs from an earlier run of the same input")
            else:
                wl.check(item, out)
        verified[item.desc] = fp
        tally.inputs.update(item.desc.encode())
        tally.outputs.update(fp)
        if fingerprints is not None:
            fingerprints.append(fp)


def percentile(sorted_vals, q):
    """Linear-interpolation percentile of a sorted list (q in [0, 100])."""
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def measure(wl, first, seconds, setup_s):
    """The untraced timed run: whole rounds until ``seconds`` of work time
    (wall time without pace slices) are spent."""
    tally, verified = Tally(), {}
    wall0 = time.perf_counter()
    items, r = first, 0
    with Pace() as pace:
        while True:
            verify(wl, execute(wl, items, tally, pace), tally, verified)
            r += 1
            per_round = tally.raw_s / r
            if (r % wl.rounds_per_block == 0 and tally.ops >= MIN_SAMPLES
                    and tally.raw_s + per_round / 2 >= seconds):
                break
            if (time.perf_counter() - wall0) * (1 + 1 / r) > WALL_CAP_S:
                break
            items = wl.make_round(r)
    lat = sorted(tally.latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": tally.ops / tally.timed_s,
        "op_p50_ms": 1000 * percentile(lat, 50),
        "op_p90_ms": 1000 * percentile(lat, 90),
        "resolved_share": (tally.ops - tally.failed) / tally.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, metrics, r, pace


# -- traced run ---------------------------------------------------------------

FAILURE_METRICS = [
    ("ratmap.preimages", "ExtensionBound"),
    ("ratmap.preimages", "PrecisionExhausted"),
    ("roots.roots_with_mult", "ExtensionBound"),
    ("roots.roots_with_mult", "PrecisionExhausted"),
    ("fields.residue_roots", "ExtensionBound"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracer import KIND_COUNTS, KIND_LABELS, LAYERS, OP_SPAN, SPANS

    spec = []
    for _, _, name in SPANS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [(f"{fn}.failed.{exc}", "count", "lower") for fn, exc in FAILURE_METRICS]
    spec += [("ratmap.preimages.failed_s", "s", "lower"),
             ("fields.residue_roots.hit_ratio", "ratio", "higher"),
             ("residue.elements.calls", "count", "lower"),
             ("residue.elements.yielded", "count", "lower"),
             ("polys.recenter.repeat_share", "share", "lower"),
             ("ratmap.image_point.repeat_share", "share", "lower")]
    spec += [(f"{metric}.calls.{kind}", "count", "lower")
             for _, metric in KIND_COUNTS for kind in KIND_LABELS.values()]
    spec += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [(f"{OP_SPAN}.self_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.overhead_share", "share", "lower"),
             ("trace.coverage", "share", "higher"),
             ("trace.spans", "count", "lower")]
    spec += [(f"ops_per_s.{kind}", "1/s", "higher") for kind in KIND_LABELS.values()]
    return spec


def traced_metrics(tracer, untraced, traced):
    stats, layers = tracer.summary()

    def stat(name, key):
        return stats[name][key] if name in stats else 0

    out = {}
    from tracer import KIND_COUNTS, KIND_LABELS, LAYERS, OP_SPAN, SPANS

    for _, _, name in SPANS:
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.self_s"] = stat(name, "self_s")
    for fn, exc in FAILURE_METRICS:
        out[f"{fn}.failed.{exc}"] = stats[fn]["failed"][exc] if fn in stats else 0
    out["ratmap.preimages.failed_s"] = stat("ratmap.preimages", "failed_s")
    out["fields.residue_roots.hit_ratio"] = (
        tracer.residue_roots_found / tracer.elements_yielded if tracer.elements_yielded else 0.0)
    out["residue.elements.calls"] = tracer.elements_calls
    out["residue.elements.yielded"] = tracer.elements_yielded
    for name, (calls, repeats) in tracer.repeats.items():
        out[f"{name}.repeat_share"] = repeats / calls if calls else 0.0
    for _, metric in KIND_COUNTS:
        for kind, label in KIND_LABELS.items():
            out[f"{metric}.calls.{label}"] = tracer.kind_counts[metric][kind]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]
    out[f"{OP_SPAN}.self_s"] = stat(OP_SPAN, "self_s")
    out["trace.overhead_s"] = traced.timed_s - untraced.timed_s
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced.timed_s
    out["trace.coverage"] = sum(layers.values()) / stats[OP_SPAN]["total_s"]
    out["trace.spans"] = len(tracer.spans)
    for kind, label in KIND_LABELS.items():
        ops, secs = untraced.kind.get(kind, (0, 0.0))
        out[f"ops_per_s.{label}"] = ops / secs if secs else 0.0
    return out, stats


def trace_pass(wl, items):
    """Run one round untraced (filling the library's caches), traced, and
    untraced again; the second untraced pass is the baseline of the tracing
    overhead.  Returns the per-layer metrics."""
    from oracle import WrongAnswer
    from tracer import Tracer

    warm, untraced, traced = Tally(), Tally(), Tally()
    fps = [[], [], []]
    with Pace() as pace:
        verify(wl, execute(wl, items, warm, pace), warm, {}, fps[0])
        tracer = Tracer().install()
        try:
            done = execute(wl, items, traced, pace, tracer)
        finally:
            tracer.uninstall()
        verify(wl, done, traced, {}, fps[1])
        verify(wl, execute(wl, items, untraced, pace), untraced, {}, fps[2])
    if not fps[0] == fps[1] == fps[2]:
        raise WrongAnswer("traced outputs differ from untraced outputs")
    metrics, stats = traced_metrics(tracer, untraced, traced)
    missing = [name for name in wl.exercises if not metrics[f"{name}.calls"]]
    if missing:
        raise WrongAnswer(f"{wl.name}: no calls recorded in {', '.join(missing)}")
    counts = {k: v for k, v in metrics.items()
              if k.endswith((".calls", ".yielded")) or ".calls." in k or ".failed." in k}
    return untraced, traced, tracer, metrics, counts, stats


# -- entry points ---------------------------------------------------------------


def run_workload(args):
    from oracle import WrongAnswer
    from tracer import KIND_LABELS
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    info = machine_info()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        if not args.trace:
            wl, first, setup_s = set_up(cls, args.seed, False, SETUP_REPEATS)
            tally, metrics, rounds, pace = measure(wl, first, args.seconds, setup_s)
            units = END_TO_END
            extra = {"rounds": rounds, "timed_s": tally.timed_s, "raw_timed_s": tally.raw_s,
                     "raw_ops_per_s": tally.ops / tally.raw_s,
                     "pace_slice_ms": [1000 * min(pace.readings), 1000 * statistics.median(pace.readings),
                                       1000 * max(pace.readings)],
                     "ops_per_s_by_family": {f: n / s for f, (n, s) in tally.family.items()},
                     "ops_per_s_by_backend": {KIND_LABELS[k]: n / s for k, (n, s) in tally.kind.items()}}
        else:
            wl, first, _ = set_up(cls, args.seed, False, 1)
            untraced, traced, tracer, metrics, counts, stats = trace_pass(wl, first)
            tally = traced
            units = {name: unit for name, unit, _ in per_layer_spec()}
            extra = {"untraced_s": untraced.timed_s, "traced_s": traced.timed_s,
                     "raw_untraced_s": untraced.raw_s, "raw_traced_s": traced.raw_s,
                     "sources": source_digest()}
            counts_path = RESULTS / f"counts-{args.workload}-s{args.seed}-{extra['sources']}.json"
            if counts_path.exists():
                before = json.loads(counts_path.read_text())
                if before != counts:
                    changed = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
                    raise WrongAnswer(f"traced counts differ from an earlier run of the same seed: {changed[:8]}")
                extra["counts_repeat"] = True
            counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True))
            tracer.write_spans(RESULTS / f"spans-{tag}.jsonl", tracer.spans[0][1] if tracer.spans else 0.0)
            extra["functions"] = {k: {"calls": v["calls"], "self_s": v["self_s"],
                                      "failed": dict(v["failed"]), "failed_s": v["failed_s"]}
                                  for k, v in sorted(stats.items())}
    except WrongAnswer as e:
        print(f"perfbench: WRONG ANSWER: {e}", file=sys.stderr)
        return 1
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "outcomes": dict(tally.outcomes),
            "input_digest": tally.inputs.hexdigest()[:16],
            "output_digest": tally.outputs.hexdigest()[:16], **info, **extra}
    for name, value in metrics.items():
        n = f" (n={len(tally.latencies)})" if name.startswith("op_p") else ""
        print(f"{name:44s} {value:14.6g} {units[name]}{n}")
    (RESULTS / f"{tag}.json").write_text(json.dumps({"meta": meta, "metrics": metrics}, indent=1))
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "functions"}))
    print(json.dumps({
        "correct": True,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def self_test():
    """Every workload at a tiny size: oracles, identical traced outputs,
    expected layers reached, and counts that repeat exactly."""
    from oracle import WrongAnswer
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        t0 = time.perf_counter()
        try:
            wl, first, _ = set_up(cls, 1, True, 1)
            runs = [trace_pass(wl, first) for _ in range(2)]
            if runs[0][4] != runs[1][4]:
                raise WrongAnswer("traced counts differ between two passes over the same inputs")
            status = "PASS"
        except WrongAnswer as e:
            status, ok = f"FAIL: {e}", False
        print(f"self-test {name:18s} {status} ({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    summary = {"machine": machine_info(), "seed": seed, "seconds": seconds, "workloads": {}}
    for name, cls in WORKLOADS.items():
        summary["workloads"][name] = {"why": cls.why}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(f"== {name} trace={trace}\n{proc.stdout}")
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            summary["workloads"][name][f"trace{trace}"] = {
                "meta": json.loads(lines[-2][len("meta "):]), **json.loads(lines[-1])}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload both ways")
    ap.add_argument("--self-test", action="store_true", help="tiny sizes, checks only")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    _load_library()
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
