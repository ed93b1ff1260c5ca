#!/usr/bin/env python3
"""Benchmark of the ``liegen`` command line, run in one process.

    python3 bench/run.py --workload classify_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a seeded list of ``liegen`` argv lists (``bench_workloads``),
driven through ``liegen.cli.main`` as a closed loop with one client: the next
invocation starts only after the previous one returns.  Whole blocks of
invocations run until ``--seconds`` have passed and at least 100 invocations
are done, so that the 90th percentile has ten samples beyond it.  Every
output is checked by an oracle outside the library (``bench_oracles``).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over several fresh interpreters of the time to import
  ``liegen`` and build the CLI parser (interpreter start-up excluded; one
  discarded warm-up run writes the bytecode cache first);
- ``ops_per_s``: invocations that succeeded per second spent in ``cli.main``;
- ``latency_p50_ms``, ``latency_p90_ms``: quantiles of the per-invocation
  time of ``cli.main``;
- ``peak_rss_mb``: the peak resident set size of this process (with
  ``--workload all``, the peak so far).

Times are given at reference speed.  The machine is shared and unpinned:
the same pure-Python loop runs up to twice as slow for tens of seconds at a
time when neighbours are busy, which moved a run's medians by up to 40%.
So after every invocation the benchmark times a fixed kernel that does not
call ``liegen`` (``bench_reference``), and divides each block's times by the
block's median kernel time over ``REFERENCE_NS``; each set-up sample is
scaled by the kernel time measured in its own interpreter.  The record under
``.bench_out/`` keeps the unscaled figures and the scale.  The benchmark
pins no CPU and changes no system setting.

``--trace 1`` runs half the time untraced, then the same invocations again
with every layer's public functions wrapped from outside (``bench_trace``),
and reports the per-layer metrics (unscaled), including the tracing
overhead (scaled) and the untraced end-to-end figures next to it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failure is an
exception, a ``SystemExit``, an exit code outside {0, 1} or an oracle
mismatch; each failing argv is printed to standard error and kept in the
record, with the Python version, git revision and CPU count.  The traced
run writes its spans under ``.bench_out/`` too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import bench_oracles
import bench_trace
import bench_workloads
from bench_reference import REFERENCE_NS, reference_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_INVOCATIONS = 100
SETUP_SAMPLES = 11
PROBE = Path(__file__).resolve().parent / "bench_reference.py"
MACHINE_NOTE = (
    "shared machine, unpinned: no CPU pinning and no system setting changed; "
    "times scaled to reference speed by a fixed kernel timed between invocations"
)


def import_cli():
    """``liegen.cli`` from this checkout's ``src``; exits 1 when it is missing."""
    if not (SRC / "liegen" / "cli.py").is_file():
        sys.exit(f"bench: no liegen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from liegen import cli

    if Path(cli.__file__).resolve().parent != SRC / "liegen":
        sys.exit(f"bench: imported liegen from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds() -> tuple[float, float]:
    """(scaled, unscaled) median set-up time over fresh interpreters; each
    sample is scaled by the kernel time its own interpreter measured."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", str(PROBE), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed_ns, ref_ns = map(int, done.stdout.split())
        raw.append(elapsed_ns / 1e9)
        scaled.append(elapsed_ns / 1e9 * REFERENCE_NS / ref_ns)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


@dataclass
class Invocation:
    argv: list[str]
    latency_ns: int
    out_bytes: int
    problems: list[str]
    scale: float = 1.0  # machine slowdown while it ran, set by run_argvs

    @property
    def scaled_ns(self) -> float:
        return self.latency_ns / self.scale


def invoke(cli, argv: list[str], tracer=None) -> Invocation:
    """Run ``cli.main(argv)`` with its output captured, then check the output."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    problems: list[str] = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.invocation += 1
            tracer.active = True
        start = perf_counter_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            problems.append(f"SystemExit({exc.code!r}): {err.getvalue().strip()}")
        except Exception:  # a crash is a measured failure, not a benchmark error
            problems.append("exception: " + traceback.format_exc(limit=-3))
        latency = perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
    stdout = out.getvalue()
    if not problems:
        problems = bench_oracles.check(argv, code, stdout)
    return Invocation(argv, latency, len(stdout.encode()), problems)


def run_argvs(cli, argvs: list[list[str]], tracer=None) -> list[Invocation]:
    """Invoke each argv, timing the reference kernel after each one; scale the
    block's latencies by its median kernel time."""
    runs, refs = [], []
    for argv in argvs:
        runs.append(invoke(cli, argv, tracer))
        refs.append(reference_ns())
    scale = statistics.median(refs) / REFERENCE_NS
    for r in runs:
        r.scale = scale
    return runs


def run_blocks(cli, workload: str, seed: int, seconds: float, min_count: int) -> list[list[Invocation]]:
    """Whole blocks, until ``seconds`` have passed and ``min_count`` ran."""
    blocks: list[list[Invocation]] = []
    gc.collect()
    deadline = perf_counter() + seconds
    for argvs in bench_workloads.BLOCKS[workload](seed):
        blocks.append(run_argvs(cli, argvs))
        if perf_counter() >= deadline and sum(map(len, blocks)) >= min_count:
            return blocks


def latency_metrics(runs: list[Invocation], scaled: bool = True) -> dict:
    lat_ms = [(r.scaled_ns if scaled else r.latency_ns) / 1e6 for r in runs]
    ok = sum(1 for r in runs if not r.problems)
    return {
        "ops_per_s": (ok / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def end_to_end(runs: list[Invocation], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics(runs),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(g: dict, tracer: bench_trace.Tracer, untraced: list[Invocation],
              traced: list[Invocation]) -> dict:
    """Per-layer metrics from the span summary ``g`` and the tracer's counters."""
    traced_ns = sum(r.latency_ns for r in traced)
    overhead = _share(sum(r.scaled_ns for r in traced), sum(r.scaled_ns for r in untraced))
    c = tracer.counts
    isolate = g["exact.isolate"]
    scan = g["groups.scan"]
    self_total = sum(row["self_s"] for row in g.values())
    return {
        "cli.calls": (g["cli"]["calls"], "count"),
        "cli.self_s": (g["cli"]["self_s"], "s"),
        "cli.output_bytes": (sum(r.out_bytes for r in traced), "bytes"),
        "generators.calls": (g["generators"]["calls"], "count"),
        "generators.busy_s": (g["generators"]["busy_s"], "s"),
        "generators.self_s": (g["generators"]["self_s"], "s"),
        "closure.calls": (g["closure"]["calls"], "count"),
        "closure.busy_s": (g["closure"]["busy_s"], "s"),
        "closure.self_s": (g["closure"]["self_s"], "s"),
        "closure.dim_sum": (c["closure.dim_sum"], "count"),
        "closure.insert_attempts": (g["exact.insert_flat"]["calls"], "count"),
        "closure.insert_accept_ratio": (
            _share(c["closure.insert_accepted"], g["exact.insert_flat"]["calls"]), "1"),
        "closure.repeat_share": (_share(c["closure.repeats"], g["closure"]["calls"]), "1"),
        "exact.insert_flat_busy_s": (g["exact.insert_flat"]["busy_s"], "s"),
        "exact.matmul_calls": (g["exact.matmul"]["calls"], "count"),
        "exact.matmul_busy_s": (g["exact.matmul"]["busy_s"], "s"),
        "exact.matmul_ops": (c["exact.matmul_ops"], "madd_computed"),
        "exact.poly_evals": (g["exact.poly_eval"]["calls"], "count"),
        "exact.poly_eval_busy_s": (g["exact.poly_eval"]["busy_s"], "s"),
        "exact.isolate_calls": (isolate["calls"], "count"),
        "exact.isolate_busy_s": (isolate["busy_s"], "s"),
        "exact.isolate_self_s": (isolate["self_s"], "s"),
        "exact.evals_per_isolation": (_share(isolate["evals_inside"], isolate["calls"]), "count"),
        "groups.scan_calls": (scan["calls"], "count"),
        "groups.scan_busy_s": (scan["busy_s"], "s"),
        "groups.scan_self_s": (scan["self_s"], "s"),
        "groups.words_checked": (c["groups.words_checked"], "count"),
        "groups.words_per_s": (_share(c["groups.words_checked"], scan["busy_s"]), "1/s"),
        "groups.collisions": (c["groups.collisions"], "count"),
        "groups.exp_calls": (g["groups.exp"]["calls"], "count"),
        "groups.exp_busy_s": (g["groups.exp"]["busy_s"], "s"),
        "pingpong.bound_calls": (g["pingpong.bound"]["calls"], "count"),
        "pingpong.bound_busy_s": (g["pingpong.bound"]["busy_s"], "s"),
        "pingpong.bound_self_s": (g["pingpong.bound"]["self_s"], "s"),
        "pingpong.bound_repeat_share": (
            _share(c["pingpong.bound.repeats"], g["pingpong.bound"]["calls"]), "1"),
        "pingpong.certify_calls": (g["pingpong.certify"]["calls"], "count"),
        "pingpong.certify_busy_s": (g["pingpong.certify"]["busy_s"], "s"),
        "pingpong.certify_self_s": (g["pingpong.certify"]["self_s"], "s"),
        "trace.overhead_ratio": (overhead - 1 if overhead else 0.0, "1"),
        "trace.self_coverage": (_share(self_total, traced_ns / 1e9), "1"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def self_time_shares(g: dict) -> list[tuple[str, float]]:
    total = sum(row["self_s"] for row in g.values())
    shares = [(name, _share(row["self_s"], total)) for name, row in g.items()]
    return sorted(shares, key=lambda x: -x[1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": MACHINE_NOTE,
    }


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _values(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report(workload, seed, trace, runs, metrics, extra) -> dict:
    failures = [{"argv": r.argv, "problems": r.problems} for r in runs if r.problems]
    for f in failures:
        print(f"bench: FAILED {' '.join(f['argv'])}: {'; '.join(f['problems'])}", file=sys.stderr)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "loop": "closed, one client, in-process cli.main",
        "invocations": len(runs),
        "fail_ratio": len(failures) / len(runs),
        "metrics": _values(metrics),
        **extra,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def measure(cli, workload: str, seed: int, seconds: float) -> dict:
    setup_s, setup_unscaled = setup_seconds()
    runs = [r for block in run_blocks(cli, workload, seed, seconds, MIN_INVOCATIONS) for r in block]
    unscaled = {"setup_s": (setup_unscaled, "s"), **latency_metrics(runs, scaled=False)}
    extra = {
        "unscaled": _values(unscaled),
        "scale_median": statistics.median(r.scale for r in runs),
    }
    return report(workload, seed, 0, runs, end_to_end(runs, setup_s), extra)


def measure_traced(cli, workload: str, seed: int, seconds: float) -> dict:
    blocks = run_blocks(cli, workload, seed, seconds / 2, 1)
    untraced = [r for block in blocks for r in block]
    tracer = bench_trace.Tracer()
    restore = bench_trace.install(tracer)
    try:
        traced = [r for b in blocks for r in run_argvs(cli, [u.argv for u in b], tracer)]
    finally:
        restore()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-seed{seed}-spans.jsonl.gz")
    summary = bench_trace.summarize(tracer)
    shares = self_time_shares(summary)
    print("self time by layer: " + ", ".join(f"{k} {v:.1%}" for k, v in shares if v >= 0.001))
    extra = {
        "untraced": _values(latency_metrics(untraced)),
        "traced": _values(latency_metrics(traced)),
        "self_time_shares": dict(shares),
    }
    metrics = per_layer(summary, tracer, untraced, traced)
    return report(workload, seed, 1, untraced + traced, metrics, extra)


def result_line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            metrics[f"{rec['workload']}.{name}" if prefix else name] = m
    attempted = sum(rec["invocations"] for rec in records)
    failed = sum(len(rec["failures"]) for rec in records)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*bench_workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.environ.pop("LIEGEN_DEFAULT_WIDTH", None)  # the argv alone sets every width
    cli = import_cli()
    workloads = bench_workloads.WORKLOADS if args.workload == "all" else [args.workload]
    measure_one = measure_traced if args.trace else measure
    records = [measure_one(cli, w, args.seed, args.seconds) for w in workloads]

    print(json.dumps({"environment": environment()}))
    for rec in records:
        print(f"{rec['workload']}: {rec['invocations']} invocations, "
              f"fail_ratio {rec['fail_ratio']:.4g} (1)")
        for section in ("metrics", "unscaled", "untraced", "traced"):
            for name, m in rec.get(section, {}).items():
                label = name if section == "metrics" else f"{name} ({section})"
                print(f"  {label:36s} {m['value']:.6g} {m['unit']}")
    print(result_line(records, prefix=args.workload == "all"))


if __name__ == "__main__":
    main()
