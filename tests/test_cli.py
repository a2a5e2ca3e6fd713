import gc
import json
import tracemalloc

from click.testing import CliRunner

import pytest

from spdim import realizer
from spdim.cli import main
from spdim.generators import standard_example
from spdim.poset import dumps as dumps_poset
from spdim.realizer import ALL_CLASSES, SignatureRows, dumps_realizer, realize_tw2


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

    @pytest.mark.parametrize("entries", [
        [1],
        [{"signature": None}],
        [{"signature": {"kind": 7, "order": 1, "up": 1}, "extension": ["a1"]}],
        [{"signature": {"kind": 2, "order": 1, "up": 1}, "extension": ["a1"]}],
        [{"signature": {"kind": 1, "order": 3, "up": 1}, "extension": ["a1"]}],
        [{"signature": None, "extension": [1, 2]}],
        {"signature": None, "extension": []},
    ], ids=["not-an-object", "no-extension", "kind-7", "kind-1-as-kind-2",
            "bad-order", "non-string-extension", "not-a-list"])
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


class TestReversibilityFailure:
    def test_realize_prints_witness(self, one_class):
        res = run(["realize"], stdin=gen_text("standard_example", 2))
        assert res.exit_code == 1
        assert "Traceback" not in res.output + res.stderr
        assert res.stdout == ""
        cycle, signature = printed_witness(res.stderr)
        assert standard_example(2).is_strict_alternating_cycle(cycle)
        assert signature == ALL_CLASSES[0].to_json()

    def test_batch_prints_witness(self, one_class):
        res = run(["batch", "--family", "standard_example", "--n", "2", "--count", "1"])
        assert res.exit_code == 1
        assert "Traceback" not in res.output + res.stderr
        assert "failed seed 0: signature class" in res.stderr
        cycle, signature = printed_witness(res.stderr)
        assert standard_example(2).is_strict_alternating_cycle(cycle)
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
