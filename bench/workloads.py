"""The four workloads: their inputs, and one checked pass over them.

Inputs come from ``spdim.generators`` and a seed; the program sees only the
poset text.  Every verb is driven through ``spdim.cli.main`` with click's
``CliRunner`` in this process: one client, closed loop, no ``--jobs``.

* ``wide``   -- random_tw2 n=500, two instances.  Shallow decomposition and
  ~240,000 incomparable pairs each: the per-pair realizer work dominates.
* ``deep``   -- forest n=800, three instances.  Components chained in series
  give a decomposition ~200 deep, so per-pair ``lca`` walks and span tables
  grow.  One forest's shape moves ``verify`` time by ~10%, so a pass
  averages three.
* ``corpus`` -- the acceptance corpus (random_tw2, n = 1 + 7919*s mod 60 for
  s in 0..999; at seed 0 the instance seeds are exactly 0..999).  Fixed
  per-instance costs dominate, and it is the only workload that runs the
  exact oracle, at ``--cap 100``: the cap acceptance criterion 3 uses.  The
  oracle has no work budget, so a larger cap can run without bound.
* ``tall``   -- chain n=1500.  No incomparable pairs and decomposition depth
  n: closure, embedding and decomposition do all the work, the realizer none.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field

ORACLE_CAP = 100
MAX_EXTENSIONS = 12
VERBS = ("realize", "verify", "decompose", "dim")


@dataclass
class Instance:
    label: str
    text: str
    n: int
    inc: int


# (family, n, generator seed) of every instance of one pass, by workload.
WORKLOADS = {
    "wide": lambda seed: [("random_tw2", 500, 2 * seed + k) for k in range(2)],
    "deep": lambda seed: [("forest", 800, 3 * seed + k) for k in range(3)],
    "corpus": lambda seed: [("random_tw2", 1 + (7919 * s) % 60, 1000 * seed + s)
                            for s in range(1000)],
    "tall": lambda seed: [("chain", 1500, seed)],
}
ORACLE_WORKLOAD = "corpus"


def make_inputs(generators, posetio, workload, seed):
    "Generate and serialise one pass worth of inputs."
    out = []
    for family, n, s in WORKLOADS[workload](seed):
        p = generators.generate(family, n, s)
        out.append(Instance("%s/n=%d/seed=%d" % (family, n, s), posetio.dumps(p),
                            len(p), len(p.incomparable_pairs())))
    return out


@dataclass
class PassResult:
    verb_s: dict = field(default_factory=lambda: dict.fromkeys(VERBS, 0.0))
    verb_cpu_s: dict = field(default_factory=lambda: dict.fromkeys(VERBS, 0.0))
    verb_wall_s: dict = field(default_factory=lambda: dict.fromkeys(VERBS, 0.0))
    latencies_ms: list = field(default_factory=list)
    extensions_total: int = 0
    extensions_max: int = 0
    ordered_pairs: int = 0
    inc_pairs: int = 0
    oracle_calls: int = 0
    refused: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    realize_digest: str = ""
    decompose_digest: str = ""


class Failure(Exception):
    pass


def _split_bundle(text):
    "Poset text and realizer JSON of a ``realize`` bundle."
    head, sep, tail = text.partition("\n[")
    if not sep:
        raise Failure("realize output carries no realizer JSON")
    return head + "\n", "[" + tail


def run_pass(runner, main, instances, oracle, clock, tracer=None):
    """Run every verb of the workload over every instance and check the output.

    Per-verb times are CPU seconds of the ``CliRunner.invoke`` call alone:
    the verbs run in this thread and do no I/O, so this is their wall time
    less any wait for a CPU held by another process.  They are read off
    ``clock`` (a started ``calibrate.Calibrator``); ``verb_s`` and the
    latencies are scaled to reference speed, ``verb_cpu_s`` keeps them raw.
    With a ``tracer`` each call is a span of the instance it belongs to.
    """
    res = PassResult()
    realize_hash = hashlib.sha256()
    decompose_hash = hashlib.sha256()
    calls = []           # (verb, start, end) on the work clock, per call
    latency_calls = []   # (realize, verify) indexes into ``calls``

    def invoke(verb, args, text):
        cpu, wall = clock.now(), time.perf_counter()
        if tracer is None:
            result = runner.invoke(main, args, input=text)
        else:
            result = tracer.span("cli." + verb, runner.invoke, main, args, input=text)
        wall = time.perf_counter() - wall
        end = clock.now()
        res.verb_cpu_s[verb] += end - cpu
        res.verb_wall_s[verb] += wall
        calls.append((verb, cpu, end))
        if result.exit_code != 0:
            raise Failure("%s exited %s: %s" % (verb, result.exit_code,
                                                (result.stderr or repr(result.exception)).strip()))
        return result.stdout, len(calls) - 1

    for inst in instances:
        res.attempted += 1
        if tracer is not None:
            tracer.instance = inst.label
        try:
            bundle, realize_call = invoke("realize", ["realize"], inst.text)
            realize_hash.update(bundle.encode())
            head, tail = _split_bundle(bundle)
            if head != inst.text:
                raise Failure("realize did not echo its input poset")
            extensions = json.loads(tail)
            k = len(extensions)
            if not 1 <= k <= MAX_EXTENSIONS:
                raise Failure("realizer has %d extensions" % k)
            if any(len(entry["extension"]) != inst.n for entry in extensions):
                raise Failure("an extension does not list every element")

            verdict, verify_call = invoke("verify", ["verify"], bundle)
            want = "verified: %d extension(s), %d incomparable pairs" % (k, inst.inc)
            if verdict.strip() != want:
                raise Failure("verify said %r, expected %r" % (verdict.strip(), want))

            decomposition, _ = invoke("decompose", ["decompose", "--json"], inst.text)
            decompose_hash.update(decomposition.encode())
            if not json.loads(decomposition):
                raise Failure("decompose printed an empty decomposition")

            if oracle and inst.inc <= ORACLE_CAP:
                answer, _ = invoke("dim", ["dim", "--cap", str(ORACLE_CAP)], inst.text)
                d = int(answer)
                # The exact dimension is at most the realizer's size, and 1
                # exactly for chains.
                if not 1 <= d <= k or (d == 1) != (inst.inc == 0):
                    raise Failure("dim printed %d for a realizer of size %d" % (d, k))
                res.oracle_calls += 1
            elif oracle:
                res.refused += 1
        except (Failure, ValueError, KeyError, TypeError) as exc:
            res.failed += 1
            res.problems.append("%s: %s" % (inst.label, exc))
            continue
        latency_calls.append((realize_call, verify_call))
        res.extensions_total += k
        res.extensions_max = max(res.extensions_max, k)
        res.ordered_pairs += inst.n * (inst.n - 1)
        res.inc_pairs += inst.inc
    scaled = [clock.scaled(start, end) for _, start, end in calls]
    for (verb, _, _), seconds in zip(calls, scaled):
        res.verb_s[verb] += seconds
    res.latencies_ms = [(scaled[r] + scaled[v]) * 1e3 for r, v in latency_calls]
    res.realize_digest = realize_hash.hexdigest()
    res.decompose_digest = decompose_hash.hexdigest()
    return res
