"""Tests of the benchmark itself: seeded argv, argv parsing, oracles, tracing."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import bench_oracles  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from liegen import cli  # noqa: E402
from liegen.closure import predicted_type  # noqa: E402
from liegen.generators import prop2_criterion, type_a_cartan  # noqa: E402

BLOCKS = 3


def first_blocks(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    return list(itertools.islice(bench_workloads.BLOCKS[workload](seed), count))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = first_blocks(workload, 7, BLOCKS)
    assert first == first_blocks(workload, 7, BLOCKS)
    assert first != first_blocks(workload, 8, BLOCKS)


@pytest.mark.parametrize("workload", bench_workloads.WORKLOADS)
def test_every_argv_parses(workload):
    parser = cli.build_parser()
    for seed in (1, 2):
        for block in first_blocks(workload, seed, BLOCKS):
            for argv in block:
                assert all(a.startswith("--") and "=" in a for a in argv[1:]), argv
                try:
                    parser.parse_args(argv)
                except SystemExit:
                    pytest.fail(f"argparse rejects {argv}")


def test_classify_inputs_never_repeat():
    blocks = first_blocks("classify_sweep", 3, 5)
    argvs = [tuple(a) for block in blocks for a in block]
    assert len(argvs) == len(set(argvs))


def test_random_lower_closures_are_known():
    """Lower pairs whose closure an oracle predicts pass Proposition 2."""
    for workload in ("classify_sweep", "certify_mix"):
        for block in first_blocks(workload, 4, BLOCKS):
            for argv in block:
                opts = bench_oracles.options(argv)
                if argv[0] in ("classify", "certify") and opts.get("family") == "lower":
                    b = bench_oracles.parse_b(opts["b"], int(opts["n"]))
                    assert bench_workloads.type_a_generates(tuple(map(int, b))), argv


def test_type_table_matches_predicted_type():
    for family, n in bench_workloads.SHIFT_CASES + [("double_corner", 9), ("corner", 12)]:
        label = predicted_type(family, n)
        assert bench_oracles.expected_type(family, n) == (label.name, label.dim)
    label = predicted_type("g2_7x7", 7)
    assert bench_oracles.expected_type("g2", 7) == (label.name, label.dim)


def test_type_a_filter_matches_prop2():
    rng = random.Random(0)
    for n in range(3, 9):
        for _ in range(50):
            b = bench_workloads.random_b(rng, n)
            expected = prop2_criterion(type_a_cartan(n - 1), b).holds
            assert bench_workloads.type_a_generates(b) == expected


def test_classify_oracle_rejects_dim_off_by_one():
    argv = ["classify", "--family=corner", "--n=4"]
    code, out = run_cli(argv)
    assert bench_oracles.check(argv, code, out) == []
    doc = json.loads(out)
    doc["dim"] += 1
    assert bench_oracles.check(argv, code, json.dumps(doc))


def test_scan_oracle_rejects_non_identity_collision():
    argv = ["scan", "--n=2", "--t=1", "--s=1", "--max-syll=8", "--max-exp=1"]
    code, out = run_cli(argv)
    doc = json.loads(out)
    assert code == 1 and len(doc["collisions"]) == 12
    assert bench_oracles.check(argv, code, out) == []
    doc["collisions"][0] = [["A", 1], ["B", 1]]
    problems = bench_oracles.check(argv, code, json.dumps(doc))
    assert any("not the identity" in p for p in problems)


def test_scan_oracle_rejects_wrong_exit_code_and_word_count():
    argv = ["scan", "--n=2", "--t=3", "--s=3", "--max-syll=3", "--max-exp=2"]
    code, out = run_cli(argv)
    assert code == 0 and bench_oracles.check(argv, code, out) == []
    assert bench_oracles.check(argv, 1, out)
    doc = json.loads(out)
    doc["words_checked"] -= 1
    assert bench_oracles.check(argv, code, json.dumps(doc))


def test_bounds_oracle_rejects_unsafe_value():
    argv = ["bounds", "--family=corner", "--n=3", "--width=1/1048576"]
    code, out = run_cli(argv)
    assert bench_oracles.check(argv, code, out) == []
    doc = json.loads(out)
    doc["t"]["safe_value"] = "4"  # p(4) = 8 - 2 - 8 < 0 for n = 3
    problems = bench_oracles.check(argv, code, json.dumps(doc))
    assert any("p(safe) <= 0" in p for p in problems)


def test_certify_oracle_rejects_wrong_conclusion():
    argv = ["certify", "--family=lower", "--n=4", "--b=doubling", "--t=8", "--r=1"]
    code, out = run_cli(argv)
    assert bench_oracles.check(argv, code, out) == []
    doc = json.loads(out)
    doc["conclusion"] = "insufficient"
    assert bench_oracles.check(argv, code, json.dumps(doc))


def test_exp_and_thin_oracles_accept_real_output():
    for argv in (
        ["exp", "--kind=lower", "--n=4", "--r=-3/2", "--b=2,-5,1"],
        ["thin", "--n=3", "--q=3", "--s=3"],
        ["thin", "--n=4", "--q=1", "--s=3"],
    ):
        code, out = run_cli(argv)
        assert bench_oracles.check(argv, code, out) == [], argv


def test_oracle_rejects_bad_exit_code():
    assert bench_oracles.check(["classify", "--family=g2"], 2, "") != []


def test_positivity_witness():
    p = [Fraction(-2), Fraction(-2), Fraction(1, 2)]  # the n = 3 t polynomial
    assert bench_oracles.sign_changes(bench_oracles.taylor_shift(p, Fraction(5))) == 0
    assert bench_oracles.sign_changes(bench_oracles.taylor_shift(p, Fraction(4))) == 1


def test_trace_records_nested_spans_and_restores():
    original_main, original_mul = cli.main, cli.Matrix.__mul__
    tracer = bench_trace.Tracer()
    restore = bench_trace.install(tracer)
    try:
        tracer.active = True
        run_cli(["certify", "--family=corner", "--n=4", "--t=8", "--s=3"])
        tracer.active = False
    finally:
        restore()
    assert cli.main is original_main and cli.Matrix.__mul__ is original_mul
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    for name in ("pingpong.certify", "closure.subalgebra_closure", "exact.isolate",
                 "exact.poly_eval", "exact.insert_flat", "generators.shift_pair"):
        assert name in names
    summary = bench_trace.summarize(tracer)
    root = tracer.spans[0]
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx((root[2] - root[1]) / 1e9)


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    fake = [run.Invocation(["x"], 10**6 * (i + 1), 1, []) for i in range(20)]
    reported = run.end_to_end(fake, 0.05)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in reported.items()
    }
    tracer = bench_trace.Tracer()
    reported = run.per_layer(bench_trace.summarize(tracer), tracer, [], [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in reported.items()
    }
