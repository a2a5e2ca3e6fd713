"""spdim benchmark: the CLI verbs on four workloads, untraced or traced.

    python3 bench/run.py --workload wide|deep|corpus|tall --seed N --seconds S --trace 0|1

Run from the root of a source checkout; spdim is imported from ``src/``.
Inputs are generated from ``--seed``; passes over them repeat while another
pass fits in ``--seconds``, and every pass checks the program's output.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
run whose passes alternate between untraced and traced.  End-to-end times are
CPU seconds scaled to a reference host speed (see ``calibrate``).  The line
before it carries the output digests and the machine; ``bench/out/`` gets the
same record, plus the spans of a traced run.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibrate import Calibrator
from tracing import Tracer
from workloads import ORACLE_WORKLOAD, WORKLOADS, make_inputs, run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 5

# Metric units by name suffix, longest suffix first; anything else is a count.
UNITS = (("_per_s", "1/s"), ("_pct", "%"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"))


def unit_of(name):
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_spdim(clock):
    """Import the checkout's spdim (never an installed copy); exit 2 if absent.

    Returns the modules and the import's interval on ``clock``.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spdim", "cli.py")):
        print("error: no spdim sources under %s" % src, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    start = clock.now()
    from click.testing import CliRunner
    from spdim import cli, generators, poset
    return CliRunner, cli, generators, poset, (start, clock.now())


def percentile(values, q):
    "Nearest-rank percentile."
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "commit": git_commit(), "source_sha256": source_digest()}


def git_commit():
    "HEAD of the checkout when it is a git work tree, else None."
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    "SHA-256 over src/spdim/*.py, so results name the code even without git."
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "spdim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def end_to_end(setup_s, passes):
    "End-to-end metrics: per-pass figures, median over the run's passes."
    return {
        "setup_s": setup_s,
        "realize_s": median_of(passes, lambda p: p.verb_s["realize"]),
        "verify_s": median_of(passes, lambda p: p.verb_s["verify"]),
        "decompose_s": median_of(passes, lambda p: p.verb_s["decompose"]),
        "instance_p50_ms": median_of(passes, lambda p: statistics.median(p.latencies_ms)),
        "instance_p99_ms": median_of(passes, lambda p: percentile(p.latencies_ms, 99)),
        "pairs_per_s": median_of(passes, lambda p: p.ordered_pairs
                                 / (p.verb_s["realize"] + p.verb_s["verify"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extensions_total": passes[0].extensions_total,
        "extensions_max": passes[0].extensions_max,
    }


def main(argv=None):
    args = parse_args(argv)
    clock = Calibrator()
    clock.start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock):
    CliRunner, cli, generators, posetio, import_call = import_spdim(clock)
    oracle = args.workload == ORACLE_WORKLOAD
    tracer = Tracer() if args.trace else None

    if tracer is not None:
        tracer.install()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = clock.now()
        instances = make_inputs(generators, posetio, args.workload, args.seed)
        setups.append((start, clock.now()))
    import_s = clock.scaled(*import_call)
    setup_s = import_s + statistics.median(clock.scaled(*interval) for interval in setups)
    if tracer is not None:
        tracer.uninstall()
        gen_s = tracer.self_time("generators.gen") / SETUP_REPEATS

    runner = CliRunner()
    untraced, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        # A traced run alternates passes: untraced first, then traced.
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.reset()
            tracer.install()
        gc.collect()
        start = time.perf_counter()
        result = run_pass(runner, cli.main, instances, oracle, clock,
                          tracer if trace_this else None)
        wall = time.perf_counter() - start
        if trace_this:
            tracer.uninstall()
            layers.append(tracer.layer_metrics())
            traced.append((result, wall))
        else:
            untraced.append((result, wall))
        # Stop before a pass that would end past --seconds, once there is
        # at least one pass of each kind the run reports on.
        walls = [w for _, w in untraced + traced]
        projected = time.perf_counter() - begin + statistics.median(walls)
        if projected > args.seconds and (tracer is None or traced):
            break

    passes = [r for r, _ in untraced + traced]
    first = passes[0]
    problems = [msg for r in passes for msg in r.problems]
    digests = {(r.realize_digest, r.decompose_digest) for r in passes}
    if len(digests) > 1:
        problems.append("output differs between passes of one run")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    correct = not problems and failed == 0

    if tracer is None:
        metrics = end_to_end(setup_s, [r for r, _ in untraced])
    else:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["exactdim.refused"] = first.refused
        metrics["generators.gen_s"] = gen_s
        plain = statistics.median(w for _, w in untraced)
        with_trace = statistics.median(w for _, w in traced)
        metrics["trace.overhead_s"] = with_trace - plain
        metrics["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
        metrics["trace.spans"] = len(tracer.spans)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "instances_per_pass": len(instances),
        "pass_wall_s": [round(w, 4) for _, w in untraced + traced],
        "verb_cpu_s": {verb: statistics.median(r.verb_cpu_s[verb] for r in passes)
                       for verb in first.verb_cpu_s},
        "verb_wall_s": {verb: statistics.median(r.verb_wall_s[verb] for r in passes)
                        for verb in first.verb_wall_s},
        "import_s": import_s,
        "calibration_ms": clock.level_ms(), "calibration_samples": len(clock.levels),
        "latency_samples_per_pass": len(first.latencies_ms),
        "realize_digest": first.realize_digest,
        "decompose_digest": first.decompose_digest,
        "inc_pairs_per_pass": first.inc_pairs,
        "oracle_s": statistics.median(r.verb_s["dim"] for r in passes),
        "oracle_calls": first.oracle_calls, "oracle_refused": first.refused,
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "trace_missing_boundaries": sorted(tracer.missing) if tracer else [],
        "machine": machine(),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    write_record(args, info, result, tracer)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def write_record(args, info, result, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.write('["id", "name", "start", "end", "parent", "instance"]\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
