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

from spdim import exactdim, generators, poset as posetio, realizer
from spdim.cli import _split_bundle, main
from spdim.errors import TooLarge
from spdim.generators import MAX_N, random_tw2_poset, standard_example
from spdim.poset import dumps as dumps_poset
from spdim.realizer import ALL_CLASSES, SignatureRows, dumps_realizer, realize_tw2

from oracles import is_strict_alternating_cycle, read_dot, reference_split_bundle


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

    def test_search_deeper_than_recursion_limit(self):
        # 1,056 incomparable pairs: one search level per pair.
        res = run(["dim", "--cap", "100000"], stdin=gen_text("antichain", 33))
        assert res.exit_code == 0
        assert res.output.strip() == "2"

    def test_search_past_its_budget_exits_2(self, monkeypatch):
        monkeypatch.setattr(exactdim, "SEARCH_BUDGET", 10)
        res = run(["dim"], stdin=gen_text("standard_example", 3))
        assert res.exit_code == 2
        assert res.stderr == "error: the search passed its budget of 10 placement attempts\n"
        assert res.stdout == ""

    @pytest.mark.parametrize("family", ["chain", "standard_example"])
    @pytest.mark.parametrize("bound", [["--max-d", "0"], ["--max-d", "-3"], ["--cap", "-1"]])
    def test_impossible_bound_is_a_usage_error(self, family, bound):
        res = run(["dim"] + bound, stdin=gen_text(family, 3))
        assert res.exit_code == 2
        assert res.stderr.startswith("error: need max_d >= 1 and cap >= 0")
        assert res.stdout == ""


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
        # A well-formed JSON value of the wrong shape keeps its message, at the line the JSON starts on.
        res = run(["verify"], stdin="elements: a b c\na < b\n[1]\n")
        assert res.exit_code == 2
        assert res.stderr == ("error: line 3: realizer entry 0 needs a signature"
                              " and a string list extension\n")

    @pytest.mark.parametrize("head, line", [("elements: a b\n", 2), ("elements: a b\n\n \n\n", 5),
                                            ("# c\n\nelements: a b\r\na < b\n\n  ", 6)],
                             ids=["line-2", "after-blank-lines", "after-crlf-and-indent"])
    @pytest.mark.parametrize("entry, message", [
        ('{"signature": null, "extension": [1]}',
         "realizer entry 0 needs a signature and a string list extension"),
        ('{"signature": {"kind": 9}, "extension": ["a", "b"]}', 'signature needs kind 1 or 2: {"kind": 9}'),
        ('{"signature": {"kind": 1, "order": 3, "up": 1}, "extension": ["a", "b"]}',
         'invalid signature {"kind": 1, "order": 3, "up": 1}'),
    ], ids=["bad-entry", "bad-kind", "bad-signature"])
    def test_realizer_schema_error_names_the_line_the_json_starts_on(self, head, line, entry, message,
                                                                     tmp_path):
        res = run(["verify"], stdin=head + "[" + entry + "]\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line %d: %s\n" % (line, message)
        # A syntax error on that line names the same line.
        res = run(["verify"], stdin=head + "[" + entry + ",]\n")
        assert res.exit_code == 2
        assert res.stderr.startswith("error: line %d: Expecting" % line)
        # A --realizer file is numbered from its own first line.
        realizer_path = tmp_path / "realizer.json"
        realizer_path.write_text("\n[" + entry + "]\n")
        res = run(["verify", "--realizer", str(realizer_path)], stdin="elements: a b\n")
        assert res.exit_code == 2
        assert res.stderr == "error: line 1: %s\n" % message

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
        head = dumps_poset(standard_example(2))
        res = CliRunner().invoke(main, ["verify"], input=head + json.dumps(entries) + "\n")
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert res.stderr.startswith("error: line %d:" % (head.count("\n") + 1))

    @pytest.mark.parametrize("name", ["#a", "elements:x"])
    def test_unwritable_name_exit_2(self, name):
        # Written back, the relation line would read as a comment or a second header.
        res = run(["realize"], stdin="elements: %s b\n%s < b\n" % (name, name))
        assert res.exit_code == 2
        assert res.stderr == "error: line 1: element %r starts with '#' or 'elements:'\n" % name
        assert res.stdout == ""


@pytest.fixture
def one_class(monkeypatch):
    "Put every incomparable pair into the first signature class."

    class OneClass(SignatureRows):
        def _classify(self, inc):
            return [list(inc)] + [[0] * len(inc) for _ in ALL_CLASSES[1:]]

    monkeypatch.setattr(realizer, "SignatureRows", OneClass)


@pytest.fixture
def one_violation(monkeypatch):
    "Have the metamorphic check report one violation."
    violation = realizer.Violation("dual", ("a1", "b1"), "kind=1", "kind=2")
    monkeypatch.setattr("spdim.cli.metamorphic_check", lambda rows: [violation])


@pytest.fixture
def canonical_realizer(monkeypatch):
    "Realize every poset by its canonical extension alone, which does not verify unless it is a chain."
    monkeypatch.setattr("spdim.cli.realize_tw2",
                        lambda p: realizer.Realizer(((None, p.canonical_extension()),)))


@pytest.fixture
def max_n_3(monkeypatch):
    "Let ``loads`` take at most 3 elements, so that no test builds a large poset."
    monkeypatch.setattr(posetio, "MAX_N", 3)


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

    def test_decompose_dot_quotes_and_backslashes(self):
        res = run(["decompose", "--dot"], stdin='elements: a"b c\\ d\na"b < c\\\nc\\ < d\n')
        assert res.exit_code == 0
        nodes, edges = read_dot(res.output)
        assert nodes[:3] == ['a"b', "c\\", "d"]
        assert {('a"b', "c\\"), ("c\\", "d")} <= set(edges)

    def test_fresh_names_avoid_element_names(self):
        # The elements take the names the fresh vertices would get, so each fresh
        # vertex is primed until it is new.
        text = "elements: +s +t +c0 +c1\n+s < +t\n"
        elements = ["+s", "+t", "+c0", "+c1"]
        assert run(["verify"], stdin=run(["realize"], stdin=text).output).exit_code == 0
        rows = json.loads(run(["decompose", "--json"], stdin=text).output)
        in_bags = {v for row in rows for v in row["bag"]}
        nodes, _ = read_dot(run(["decompose", "--dot"], stdin=text).output)
        assert nodes[:4] == elements and len(set(nodes)) == len(nodes)
        fresh = nodes[4:]
        assert in_bags == set(nodes)
        assert {"+s'", "+t'"} <= set(fresh) and not set(fresh) & set(elements)

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


# -- the exit-code contract of every error branch, pinned byte for byte ----------

KELLY_3 = dumps_poset(generators.kelly(3))
STANDARD_2 = dumps_poset(standard_example(2))
TW3 = "error: input graph has treewidth greater than 2\n"
WITNESS = ('witness: [["b2", "b1"], ["b1", "b2"]]\n'
           'signature: {"kind": 1, "order": 1, "up": 1}\n')
NOT_REVERSIBLE = "signature class kind=1 order=1 up=1 is not reversible\n"

# (verb arguments, stdin, fixture to apply or None, exit code, stdout, stderr)
ERROR_CONTRACT = {
    "gen-bad-n": (["gen", "--family", "chain", "--n", "0"], None, None,
                  2, "", "error: chain needs n >= 1\n"),
    "gen-too-large": (["gen", "--family", "chain", "--n", str(MAX_N + 1)], None, None,
                      2, "", "error: n = 20001 is above the largest chain size, 20000\n"),
    "dim-cap": (["dim", "--cap", "4"], dumps_poset(generators.antichain(4)), None,
                2, "", "error: 12 incomparable pairs exceed the cap of 4\n"),
    "dim-max-d-exceeded": (["dim", "--max-d", "1"], STANDARD_2, None, 1, "", "dimension exceeds 1\n"),
    "dim-bad-max-d": (["dim", "--max-d", "0"], STANDARD_2, None,
                      2, "", "error: need max_d >= 1 and cap >= 0, got max_d = 0, cap = 60\n"),
    "dim-bad-cap": (["dim", "--cap", "-1"], STANDARD_2, None,
                    2, "", "error: need max_d >= 1 and cap >= 0, got max_d = 12, cap = -1\n"),
    "dim-parse-error": (["dim"], "elements: a b\na <\n", None,
                        2, "", "error: line 2: expected a cover relation 'x < y'\n"),
    "realize-treewidth-3": (["realize"], KELLY_3, None, 2, "", TW3),
    "realize-cycle": (["realize"], "elements: a b\na < b\nb < a\n", None,
                      2, "", "error: relation has a directed cycle through 'a'\n"),
    "realize-duplicate-names": (["realize"], "elements: a a\n", None,
                                2, "", "error: line 1: duplicate identifiers in elements line\n"),
    "realize-too-large": (["realize"], "elements: a b c d\n", "max_n_3", 2, "",
                          "error: 4 elements are above the largest poset size, 3\n"),
    "realize-empty-input": (["realize"], "", None, 2, "", "error: line 1: missing 'elements:' line\n"),
    "realize-witness": (["realize"], STANDARD_2, "one_class", 1, "", "error: " + NOT_REVERSIBLE + WITNESS),
    "decompose-treewidth-3": (["decompose"], KELLY_3, None, 2, "", TW3),
    "decompose-json-and-dot": (["decompose", "--json", "--dot"], "elements: a b\n", None,
                               2, "", "error: --json and --dot exclude each other\n"),
    "decompose-parse-error": (["decompose", "--dot"], "elements: a\nb < a\n", None,
                              2, "", "error: line 2: unknown element 'b'\n"),
    "classify-treewidth-3": (["classify"], KELLY_3, None, 2, "", TW3),
    "check-claims-treewidth-3": (["check-claims"], KELLY_3, None, 2, "", TW3),
    "check-claims-violation": (["check-claims"], STANDARD_2, "one_violation", 1, "",
                               "violation: dual: pair ('a1', 'b1') expected kind=1, got kind=2\n"),
    "verify-no-json": (["verify"], "elements: a b\na < b\n", None,
                       2, "", "error: line 1: no realizer JSON found on stdin (use --realizer)\n"),
    "verify-syntax-error": (["verify"], "elements: a b c\na < b\n[not json\n", None,
                            2, "", "error: line 3: Expecting value (column 2)\n"),
    "verify-schema-error": (["verify"], "elements: a b c\na < b\n[1]\n", None, 2, "",
                            "error: line 3: realizer entry 0 needs a signature and a string list extension\n"),
    "verify-empty-realizer": (["verify"], "elements: a b c\na < b\nb < c\n[]\n", None,
                              1, "", "violation: realizer has no extensions\n"),
    "verify-13-extensions": (["verify"], "elements: v0 v1\n" + json.dumps(
        [{"signature": None, "extension": [["v0", "v1"], ["v1", "v0"]][k % 2]} for k in range(13)]) + "\n",
        None, 1, "", "violation: realizer uses 13 extensions (more than 12)\n"),
    "verify-poset-error": (["verify"], "elements: a\nb < a\n[]\n", None,
                           2, "", "error: line 2: unknown element 'b'\n"),
    "batch-count": (["batch", "--n", "5", "--count", "0"], None, None,
                    2, "", "error: --count must be at least 1\n"),
    "batch-jobs": (["batch", "--n", "5", "--count", "0", "--jobs", "0"], None, None, 2, "",
                   "error: --jobs must be between 1 and %d (the CPU count)\n" % (os.cpu_count() or 1)),
    "batch-oracle-cap": (["batch", "--n", "5", "--count", "1", "--oracle-cap", "-1"], None, None,
                         2, "", "error: --oracle-cap must be at least 0\n"),
    "batch-bad-n": (["batch", "--family", "kelly", "--n", "1", "--count", "1"], None, None,
                    2, "", "error: kelly needs n >= 2\n"),
    "batch-too-large": (["batch", "--n", str(MAX_N + 1), "--count", "1"], None, None,
                        2, "", "error: n = 20001 is above the largest random_tw2 size, 20000\n"),
    "batch-failing-instances": (["batch", "--family", "standard_example", "--n", "2", "--count", "2"], None,
                                "one_class", 1, "instances: 2  failures: 2  max extensions: 0\n",
                                "".join("failed seed %d: %s" % (seed, NOT_REVERSIBLE)
                                        + "".join("  " + line + "\n" for line in WITNESS.splitlines())
                                        for seed in (0, 1))),
    "batch-realizer-does-not-verify": (["batch", "--family", "standard_example", "--n", "2", "--count", "1",
                                        "--jobs", "1"], None, "canonical_realizer", 1,
                                       "instances: 1  failures: 1  max extensions: 1\n",
                                       "failed seed 0: realizer does not verify\n"),
    "batch-treewidth-3": (["batch", "--family", "kelly", "--n", "3", "--count", "1", "--jobs", "1"], None, None,
                          1, "instances: 1  failures: 1  max extensions: 0\n", "failed seed 0: input graph has treewidth greater than 2\n"),
}


class TestErrorContract:
    @pytest.mark.parametrize("case", ERROR_CONTRACT)
    def test_exit_code_and_output(self, case, request):
        args, stdin, fixture, code, stdout, stderr = ERROR_CONTRACT[case]
        if fixture:
            request.getfixturevalue(fixture)
        res = run(args, stdin=stdin)
        assert (res.exit_code, res.stdout, res.stderr) == (code, stdout, stderr)

    @pytest.mark.parametrize("args, poset, code", [(["realize"], generators.kelly(3), 2),
                                                   (["dim", "--max-d", "2"], standard_example(3), 1)],
                             ids=["realize-treewidth-3", "dim-max-d-exceeded"])
    def test_python_m_spdim_exits_without_a_traceback(self, args, poset, code, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-m", "spdim", *args], input=dumps_poset(poset),
                             capture_output=True, text=True, cwd=tmp_path, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == code, out.stderr
        assert out.stdout == "" and out.stderr and "Traceback" not in out.stderr


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

    def test_oracle_refusal_skips_the_instance(self, monkeypatch):
        # At a budget of 40 attempts the oracle refuses four of these eight
        # instances; like one over the cap, each is skipped, not failed.
        refused = []
        dimension_exact = exactdim.dimension_exact

        def spy(*args, **kwargs):
            try:
                return dimension_exact(*args, **kwargs)
            except TooLarge as exc:
                refused.append(str(exc))
                raise

        monkeypatch.setattr(exactdim, "SEARCH_BUDGET", 40)
        monkeypatch.setattr(exactdim, "dimension_exact", spy)
        res = run(["batch", "--family", "random_tw2", "--n", "8", "--count", "8",
                   "--seed", "3", "--oracle-cap", "60"])
        assert refused == ["the search passed its budget of 40 placement attempts"] * 4
        assert res.exit_code == 0
        assert "instances: 8  failures: 0" in res.stdout
        assert "max exact dimension observed: 2" in res.stdout
        assert res.stderr == ""

    def test_oracle_cap_refuses_before_any_pair_is_listed(self, monkeypatch):
        def no_listing(poset):
            raise AssertionError("the pairs were listed before the cap was checked")

        monkeypatch.setattr(exactdim, "_index_pairs", no_listing)
        res = run(["batch", "--family", "antichain", "--n", "100", "--count", "1", "--oracle-cap", "60"])
        assert res.exit_code == 0, res.stderr
        assert res.stdout.startswith("instances: 1  failures: 0  max extensions: ")
        assert "max exact dimension" not in res.stdout
        assert res.stderr == ""

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


    def test_serial_batch_memory_does_not_grow_with_count(self, monkeypatch):
        # Seeds are made as they run and only failures are kept: the peak of a
        # serial batch of 50,000 stubbed instances stays near a few records.
        def stub(task):
            return {"seed": task[2], "error": "stub" if task[2] % 25000 == 0 else None,
                    "extensions": task[2] % 13, "dimension": None, "witness": []}

        monkeypatch.setattr("spdim.cli._batch_one", stub)
        gc.collect()
        tracemalloc.start()
        try:
            res = run(["batch", "--n", "5", "--count", "50000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exit_code == 1
        assert res.stdout == "instances: 50000  failures: 2  max extensions: 12\n"
        assert res.stderr == "failed seed 0: stub\nfailed seed 25000: stub\n"
        assert peak < 1_000_000, peak


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
