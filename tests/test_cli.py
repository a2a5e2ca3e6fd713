import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc

from click.testing import CliRunner

import pytest
from hypothesis import given, settings, strategies as st

from spdim import generators, realizer
from spdim.cli import _split_bundle, main
from spdim.generators import MAX_N, random_tw2_poset, standard_example
from spdim.poset import dumps as dumps_poset
from spdim.realizer import ALL_CLASSES, SignatureRows, dumps_realizer, realize_tw2

from oracles import is_strict_alternating_cycle, reference_split_bundle


def run(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin, catch_exceptions=False)


def gen_text(family, n, seed=0):
    res = run(["gen", "--family", family, "--n", str(n), "--seed", str(seed)])
    assert res.exit_code == 0, res.stderr
    return res.output


class TestGen:
    def test_standard_example(self):
        out = gen_text("standard_example", 2)
        assert out.startswith("elements: a1 a2 b1 b2\n")
        assert "a1 < b2" in out

    def test_bad_parameter_exit_2(self):
        res = run(["gen", "--family", "chain", "--n", "0"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("family, n", [("chain", MAX_N + 1), ("random_tw2", MAX_N + 1),
                                           ("standard_example", math.isqrt(MAX_N) + 1)])
    def test_size_guard_exit_2(self, family, n, monkeypatch):
        # The guard runs before generation: nothing of that size is built.
        def no_build(*args):
            raise AssertionError("generated an instance above the size guard")

        monkeypatch.setitem(generators.FAMILIES, family, no_build)
        res = run(["gen", "--family", family, "--n", str(n)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: n = %d is above the largest %s size" % (n, family))
        res = run(["batch", "--family", family, "--n", str(n), "--count", "1"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: n = %d is above" % n)

    def test_largest_size_accepted(self, monkeypatch):
        monkeypatch.setitem(generators.FAMILIES, "chain", lambda n, seed: generators.chain(2))
        assert run(["gen", "--family", "chain", "--n", str(MAX_N)]).exit_code == 0

    def test_deterministic(self):
        assert gen_text("random_tw2", 12, 5) == gen_text("random_tw2", 12, 5)


class TestDim:
    def test_standard_example_pipeline(self):
        for n in (2, 3):
            res = run(["dim"], stdin=gen_text("standard_example", n))
            assert res.exit_code == 0
            assert res.output.strip() == str(n)

    def test_max_d_exceeded_exit_1(self):
        res = run(["dim", "--max-d", "1"], stdin=gen_text("standard_example", 2))
        assert res.exit_code == 1

    def test_too_large_exit_2(self):
        res = run(["dim", "--cap", "4"], stdin=gen_text("antichain", 4))
        assert res.exit_code == 2

    def test_search_deeper_than_recursion_limit(self):
        # 1,056 incomparable pairs: one search level per pair.
        res = run(["dim", "--cap", "100000"], stdin=gen_text("antichain", 33))
        assert res.exit_code == 0
        assert res.output.strip() == "2"

    @pytest.mark.parametrize("family", ["chain", "standard_example"])
    @pytest.mark.parametrize("bound", [["--max-d", "0"], ["--max-d", "-3"], ["--cap", "-1"]])
    def test_impossible_bound_is_a_usage_error(self, family, bound):
        res = run(["dim"] + bound, stdin=gen_text(family, 3))
        assert res.exit_code == 2
        assert res.stderr.startswith("error: need max_d >= 1 and cap >= 0")
        assert res.stdout == ""

    def test_parse_error_exit_2(self):
        res = run(["dim"], stdin="elements: a b\na <\n")
        assert res.exit_code == 2
        assert "line 2" in res.stderr


class TestRealizeVerify:
    def test_chain_pipeline(self):
        bundle = run(["realize"], stdin=gen_text("chain", 7)).output
        res = run(["verify"], stdin=bundle)
        assert res.exit_code == 0
        assert "1 extension(s)" in res.output

    def test_random_pipeline(self):
        bundle = run(["realize"], stdin=gen_text("random_tw2", 40, 7)).output
        res = run(["verify"], stdin=bundle)
        assert res.exit_code == 0

    def test_relation_line_with_tabs_is_not_the_realizer(self):
        # "[a<TAB><<TAB>b" is a relation line as the poset parser reads it.
        bundle = ('elements: [a b\n[a\t<\tb\n'
                  '[{"signature": null, "extension": ["[a", "b"]}]\n')
        res = run(["verify"], stdin=bundle)
        assert res.exit_code == 0, res.stderr
        assert res.stdout == "verified: 1 extension(s), 0 incomparable pairs\n"

    def test_empty_realizer_exit_1(self):
        res = run(["verify"], stdin="elements: a b c\na < b\nb < c\n[]\n")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == "violation: realizer has no extensions\n"

    def test_verify_with_file_flag(self, tmp_path):
        p = standard_example(2)
        realizer_path = tmp_path / "realizer.json"
        realizer_path.write_text(dumps_realizer(realize_tw2(p)))
        res = run(["verify", "--realizer", str(realizer_path)], stdin=dumps_poset(p))
        assert res.exit_code == 0

    def test_verify_failure_exit_1(self, tmp_path):
        p = standard_example(2)
        realizer_path = tmp_path / "realizer.json"
        realizer_path.write_text(json.dumps(
            [{"signature": None, "extension": list(p.canonical_extension())}]))
        res = run(["verify", "--realizer", str(realizer_path)], stdin=dumps_poset(p))
        assert res.exit_code == 1
        assert "violation" in res.stderr

    def test_realizer_syntax_error_names_its_input_line(self, tmp_path):
        res = run(["verify"], stdin="elements: a b c\na < b\n[not json\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 3: Expecting value (column 2)\n"
        realizer_path = tmp_path / "realizer.json"
        realizer_path.write_text('[\n  {"signature": null,\n   "extension": [a]}\n]\n')
        res = run(["verify", "--realizer", str(realizer_path)], stdin="elements: a\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 3: Expecting value (column 18)\n"
        # Lines break where str.splitlines breaks them, as in the poset text, not only at '\n'.
        res = run(["verify"], stdin="elements: a\n[\r1,\rx]\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 4: Expecting value (column 1)\n"
        realizer_path.write_text('["\u2028", x]\n', encoding="utf-8")  # a break inside a JSON string
        res = run(["verify", "--realizer", str(realizer_path)], stdin="elements: a\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 2: Expecting value (column 4)\n"
        # A well-formed JSON value of the wrong shape keeps its message.
        res = run(["verify"], stdin="elements: a b c\na < b\n[1]\n")
        assert res.exit_code == 2
        assert res.stderr == ("error: line 1: realizer entry 0 needs a signature"
                              " and a string list extension\n")

    @pytest.mark.parametrize("entries", [
        [1],
        [{"signature": None}],
        [{"signature": {"kind": 7, "order": 1, "up": 1}, "extension": ["a1"]}],
        [{"signature": {"kind": 2, "order": 1, "up": 1}, "extension": ["a1"]}],
        [{"signature": {"kind": 1, "order": 3, "up": 1}, "extension": ["a1"]}],
        [{"signature": None, "extension": [1, 2]}],
        {"signature": None, "extension": []},
        [{"signature": {"kind": 1, "order": 1, "up": True}, "extension": ["a1"]}],
        [{"signature": {"kind": 2.0, "order": 1, "span": 1, "gate": 1}, "extension": ["a1"]}],
    ], ids=["not-an-object", "no-extension", "kind-7", "kind-1-as-kind-2",
            "bad-order", "non-string-extension", "not-a-list", "bool-field", "float-kind"])
    def test_malformed_realizer_json_exit_2(self, entries):
        text = dumps_poset(standard_example(2)) + json.dumps(entries) + "\n"
        res = CliRunner().invoke(main, ["verify"], input=text)
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.stderr.startswith("error: line 1:")

    def test_realize_rejects_treewidth_3_exit_2(self):
        res = run(["realize"], stdin=gen_text("kelly", 3))
        assert res.exit_code == 2
        assert res.stderr == "error: input graph has treewidth greater than 2\n"


@pytest.fixture
def one_class(monkeypatch):
    "Put every incomparable pair into the first signature class."

    class OneClass(SignatureRows):
        def _classify(self, inc):
            return [list(inc)] + [[0] * len(inc) for _ in ALL_CLASSES[1:]]

    monkeypatch.setattr(realizer, "SignatureRows", OneClass)


def printed_witness(stderr):
    "The cycle and signature a failed realize printed, parsed back."
    lines = dict(line.strip().split(": ", 1) for line in stderr.splitlines()
                 if line.strip().startswith(("witness:", "signature:")))
    cycle = [tuple(pair) for pair in json.loads(lines["witness"])]
    return cycle, json.loads(lines["signature"])


class TestFileOptions:
    @pytest.mark.parametrize("args", [["realize", "--poset"], ["verify", "--realizer"]])
    def test_directory_is_a_usage_error(self, args, tmp_path):
        res = run(args + [str(tmp_path)], stdin=gen_text("chain", 3))
        assert res.exit_code == 2
        assert "is a directory" in res.stderr

    def test_undecodable_file_is_read_as_stdin_is(self, tmp_path):
        # Bytes that are not UTF-8 reach the parser as surrogate escapes, as
        # on stdin, and are refused there: exit 2, not a traceback.
        path = tmp_path / "poset.txt"
        path.write_bytes(b"elements: a b\na < \xff\n")
        res = run(["realize", "--poset", str(path)])
        assert res.exit_code == 2
        assert res.stderr == "error: line 2: unknown element '\\udcff'\n"

    def test_undecodable_stdin_in_process(self):
        # The same bytes on stdin, in process under click's CliRunner: exit 2, as
        # in a ``python -m spdim`` process, not a UnicodeDecodeError.
        res = run(["realize"], stdin=b"elements: a b\na < \xff\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 2: unknown element '\\udcff'\n"


class TestReversibilityFailure:
    def test_realize_prints_witness(self, one_class):
        res = run(["realize"], stdin=gen_text("standard_example", 2))
        assert res.exit_code == 1
        assert "Traceback" not in res.output + res.stderr
        assert res.stdout == ""
        cycle, signature = printed_witness(res.stderr)
        assert is_strict_alternating_cycle(standard_example(2), cycle)
        assert signature == ALL_CLASSES[0].to_json()

    def test_batch_prints_witness(self, one_class):
        res = run(["batch", "--family", "standard_example", "--n", "2", "--count", "1"])
        assert res.exit_code == 1
        assert "Traceback" not in res.output + res.stderr
        assert "failed seed 0: signature class" in res.stderr
        cycle, signature = printed_witness(res.stderr)
        assert is_strict_alternating_cycle(standard_example(2), cycle)
        assert signature == ALL_CLASSES[0].to_json()


class TestDecomposeClassify:
    def test_decompose_json_schema(self):
        res = run(["decompose", "--json"], stdin=gen_text("chain", 4))
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert all(set(row) == {"id", "parent", "side", "bag", "s", "t"} for row in data)
        roots = [row for row in data if row["parent"] is None]
        assert len(roots) == 1

    def test_decompose_dot(self):
        res = run(["decompose", "--dot"], stdin="elements: a b c\na < b\n")
        assert res.exit_code == 0
        assert res.output.startswith("graph G {")
        assert "style=dashed" in res.output  # connector/bridge edges are fills

    def test_decompose_json_and_dot_is_a_usage_error(self):
        res = run(["decompose", "--json", "--dot"], stdin="elements: a b c\na < b\n")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: --json and --dot exclude each other\n"

    def test_classify_table(self):
        res = run(["classify"], stdin=gen_text("standard_example", 2))
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert len(lines) == 13  # 12 signatures + total
        assert lines[-1].split()[-1] == "8"

    def test_classify_chain_zeroes(self):
        res = run(["classify"], stdin=gen_text("chain", 5))
        assert res.exit_code == 0
        assert res.output.strip().splitlines()[-1].split()[-1] == "0"

    @pytest.mark.parametrize("verb", ["classify", "check-claims"])
    def test_treewidth_3_exit_2(self, verb):
        res = run([verb], stdin=gen_text("kelly", 3))
        assert res.exit_code == 2
        assert res.stderr == "error: input graph has treewidth greater than 2\n"
        assert res.stdout == ""


class TestCheckClaims:
    def test_clean_instance(self):
        res = run(["check-claims"], stdin=gen_text("random_tw2", 25, 3))
        assert res.exit_code == 0
        assert "no violations" in res.output


class TestBatch:
    def test_batch_summary(self):
        res = run(["batch", "--family", "random_tw2", "--n", "8", "--count", "8",
                   "--seed", "3", "--oracle-cap", "60"])
        assert res.exit_code == 0
        assert "instances: 8  failures: 0" in res.output
        assert "max exact dimension observed:" in res.output

    def test_batch_jobs(self):
        res = run(["batch", "--family", "random_tw2", "--n", "10", "--count", "6",
                   "--jobs", "2"])
        assert res.exit_code == 0

    @pytest.mark.parametrize("args, message", [
        (["--n", "0", "--count", "1"], "error: random_tw2 needs n >= 1"),
        (["--n", "1", "--count", "2", "--family", "kelly"], "error: kelly needs n >= 2"),
        (["--n", "5", "--count", "-1"], "error: --count must be at least 1"),
        (["--n", "5", "--count", "0"], "error: --count must be at least 1"),
        (["--n", "8", "--count", "2", "--oracle-cap", "-5"], "error: --oracle-cap must be at least 0"),
    ], ids=["n-0", "kelly-n-1", "count-minus-1", "count-0", "oracle-cap-minus-5"])
    def test_batch_input_errors_exit_2(self, args, message, monkeypatch):
        def no_work(task):
            raise AssertionError("an instance was run")

        monkeypatch.setattr("spdim.cli._batch_one", no_work)
        res = run(["batch"] + args)
        assert res.exit_code == 2
        assert res.stderr.startswith(message)
        assert "instances:" not in res.output

    @pytest.mark.parametrize("jobs", ["0", "-3", "cpus+1", "100000"])
    def test_batch_jobs_out_of_range(self, jobs, monkeypatch):
        import multiprocessing
        import os

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for --jobs %s" % jobs)

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        jobs = str(os.cpu_count() + 1) if jobs == "cpus+1" else jobs
        res = run(["batch", "--family", "random_tw2", "--n", "8", "--count", "2", "--jobs", jobs])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: --jobs must be between 1 and")
        assert "instances:" not in res.output


class TestRepeatedInvocation:
    def test_output_of_earlier_calls_is_released(self):
        # Click caches a wrapper per output stream it picks itself, and the
        # cache keeps each CliRunner stream, with the whole output, alive.
        text = gen_text("chain", 300)
        bundle = run(["realize"], stdin=text).output
        size = len(run(["decompose"], stdin=text).output)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                run(["decompose"], stdin=text)
                run(["verify"], stdin=bundle)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < size


ANSI_POSET = "elements: \x1b[31ma b c\n\x1b[31ma < b\n"  # an element name holding an ANSI escape


class TestAnsiNames:
    def test_names_survive_in_process(self):
        bundle = run(["realize"], stdin=ANSI_POSET).output
        assert bundle.startswith(ANSI_POSET)
        res = run(["verify"], stdin=bundle)
        assert res.exit_code == 0, res.stderr
        assert '"\x1b[31ma"' in run(["decompose", "--dot"], stdin=ANSI_POSET).output

    def test_names_survive_a_pipe(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

        def spdim(*args, stdin):
            return subprocess.run([sys.executable, "-m", "spdim", *args], input=stdin, capture_output=True,
                                  text=True, cwd=tmp_path, timeout=60, env=dict(os.environ, PYTHONPATH=src))

        bundle = spdim("realize", stdin=ANSI_POSET)
        assert bundle.returncode == 0, bundle.stderr
        verified = spdim("verify", stdin=bundle.stdout)
        assert verified.returncode == 0, verified.stderr
        assert verified.stdout.startswith("verified: ")
        dot = spdim("decompose", "--dot", stdin=ANSI_POSET)
        assert '"\x1b[31ma" -- "b";' in dot.stdout


class TestModuleEntryPoint:
    def test_python_m_spdim_from_a_checkout(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-m", "spdim", "gen", "--family", "chain", "--n", "3"],
                             capture_output=True, text=True, cwd=tmp_path, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        assert out.stdout == "elements: v0 v1 v2\nv0 < v1\nv1 < v2\n"


class TestRoundTrips:
    def test_poset_write_read_identity(self):
        text = gen_text("random_tw2", 15, 9)
        res = run(["realize"], stdin=text)
        assert res.output.startswith(text)

    def test_realizer_json_round_trip(self):
        from spdim.realizer import loads_realizer

        p = standard_example(2)
        r = realize_tw2(p)
        assert loads_realizer(dumps_realizer(r)) == r


# -- fuzzing: every verb on arbitrary input keeps the exit-code contract -----

NAMES = ["a", "b", "c", "d", "e"]
POSET_LINE = st.one_of(
    st.lists(st.sampled_from(NAMES), max_size=6).map(lambda xs: " ".join(["elements:"] + xs)),
    st.tuples(st.sampled_from(NAMES + ["z"]), st.sampled_from(NAMES)).map(" < ".join),
    st.sampled_from(["", "# comment", "a <", "elements:", "a < b < c", "[", "{}", "[1]"]),
    st.text(max_size=8),
)
JSON_EDITS = ["", "1", "2", "2.0", "-1", "true", "null", '"', "[", "]", "{", "}", ",", ":", "a", " < "]


@st.composite
def posets(draw):
    "Poset text over a, b, c, d, e: well formed (up to cycles), or with a stray line."
    covers = draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=7))
    lines = ["elements: " + " ".join(NAMES)] + ["%s < %s" % pair for pair in covers if pair[0] != pair[1]]
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(POSET_LINE))
    return "\n".join(lines) + "\n"


@st.composite
def bundles(draw):
    "A ``realize`` bundle of a small poset, with a few random edits."
    p = random_tw2_poset(draw(st.integers(1, 8)), draw(st.integers(0, 50)))
    text = dumps_poset(p) + dumps_realizer(realize_tw2(p))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(JSON_EDITS)) + text[k + draw(st.integers(0, 4)):]
    return text


SPLIT_EDITS = JSON_EDITS + ["\n", "\r", "\r\n", "\f", "\x1e", "\x85", "\u2028", " ", "\t",
                           "\x1f", "\xa0", "{", " [", "\n[", "elements:", " < x", "\t<\t", "  <  x"]


@st.composite
def split_bundles(draw):
    "A ``realize`` bundle with a few edits around line breaks, blanks and brackets."
    p = random_tw2_poset(draw(st.integers(1, 8)), draw(st.integers(0, 50)))
    text = dumps_poset(p) + dumps_realizer(realize_tw2(p))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(SPLIT_EDITS)) + text[k + draw(st.integers(0, 2)):]
    return text


class TestSplitBundle:
    @settings(max_examples=300, deadline=None)
    @given(split_bundles())
    def test_matches_reference(self, text):
        assert _split_bundle(text) == reference_split_bundle(text)

    @pytest.mark.parametrize("text", [
        "", "[", "  [1]", "elements: a\n", "elements: [a\n[a < b\n\t{ }\n", "a\r[1]", "a [\n x[\n",
        "elements: a\r\n[\r\n", "elements: a\n\x1f\xa0[1]\n", "elements: a\u2028  [ <\n", "[x <  \n{",
        "elements: a\x1e[1]\n", "elements: a\x85 {}", "elements: a\v[]",
        "elements: a\f {}", "elements: a\u2029[]", "elements: [a b\n[a\t<\tb\n[]\n", "[a  <  b\n {}",
        "{a\xa0<\xa0b}", "[ < ]", "[a < b <\n[]", "[a\t<\tb\tc\n[]",
    ])
    def test_matches_reference_on_edge_cases(self, text):
        assert _split_bundle(text) == reference_split_bundle(text)


@st.composite
def invocations(draw):
    "Arguments and stdin for one verb, with small option values."
    verb = draw(st.sampled_from(["gen", "dim", "realize", "verify", "decompose", "classify",
                                 "check-claims", "batch"]))
    family = st.sampled_from(sorted(generators.FAMILIES))
    small = st.one_of(st.integers(1, 12), st.integers(-2, 0)).map(str)
    if verb == "gen":
        return ["gen", "--family", draw(family), "--n", draw(small), "--seed", draw(small)], None
    if verb == "batch":
        # --jobs stays at most 1: no process pool is started.
        return ["batch", "--family", draw(family), "--n", draw(small),
                "--count", draw(st.one_of(st.integers(1, 3), st.integers(-1, 0)).map(str)),
                "--jobs", draw(st.sampled_from(["1", "1", "0", "-1"])),
                "--oracle-cap", str(draw(st.integers(0, 30)))], None
    args = [verb]
    if verb == "dim":
        args += ["--cap", str(draw(st.integers(-1, 40))), "--max-d", str(draw(st.integers(-1, 6)))]
    elif verb == "decompose":
        args += draw(st.sampled_from([[], ["--json"], ["--dot"]]))
    stdin = draw(st.one_of(posets(), st.lists(POSET_LINE, max_size=8).map("\n".join), bundles()))
    return args, stdin


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(invocations())
    def test_exit_codes_and_no_traceback(self, invocation):
        args, stdin = invocation
        res = CliRunner().invoke(main, args, input=stdin)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            "%r raised %r" % (args, res.exception)
        assert res.exit_code in (0, 1, 2), (args, res.exit_code)
        assert "Traceback" not in res.output
