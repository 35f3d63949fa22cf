"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics the code reports, runs every
workload at a tiny size (traced and untraced) and checks that every named
metric is present with its unit, and feeds corrupted results through each
output check to show that they count as failures.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys

import run
import tracer
import worker

worker.import_laplab()
import workloads  # noqa: E402
from laplab import perturb  # noqa: E402

TINY_PAIRS = ("lattice_limit.json limit", "malformed_j.json scan")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_benchmark_json_matches_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS), "workload names")
    expect([tuple(m.values()) for m in doc["end_to_end"]] == list(run.END_TO_END), "end_to_end list")
    expect([tuple(m.values()) for m in doc["per_layer"]] == list(tracer.PER_LAYER), "per_layer list")


def tiny_raw(workload: str, trace: bool) -> dict:
    if workload == "cli-cold":
        return run.cli_cold(1, 0.0, trace, pairs=TINY_PAIRS)
    if workload == "cert-sweep":
        rounds = workloads.cert_sweep(1, pool=3)
    else:
        rounds = workloads.wide_channel(1, ks=(2, 3), rounds=1)
    return worker.run(workload, 1, trace, rounds)


def test_tiny_runs_report_every_metric():
    imports = run.import_metrics(1)
    expect(all(v > 0 for v in imports.values()), f"import metrics {imports}")
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, listed in ((False, doc["end_to_end"]), (True, doc["per_layer"])):
            raw = tiny_raw(workload, trace)
            result = run.assemble(raw, [0.5], imports if trace else None)
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {result['details']['failures']}")
            metrics = result["metrics"]
            expect(list(metrics) == [m["name"] for m in listed], f"{workload} trace={trace}: metric names")
            for m in listed:
                got = metrics[m["name"]]
                expect(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}")
                expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"])


def counted_failures(case: workloads.Case) -> int:
    """Failures the measuring loop records for one round of one case."""
    return sum(worker.measure([[case]], 1)["reasons"].values())


def test_cli_check_counts_corruption():
    pair = "lattice_limit.json limit"
    proc = subprocess.run(run.python("-m", "laplab", *run.cli_argv(pair)), capture_output=True,
                          env=run.child_env(), cwd=run.ROOT, timeout=60)
    expected = run.load_reference()[pair]
    expect(run.check_cli(pair, proc.returncode, proc.stdout, expected, {}) is None, "clean CLI report")
    expect(run.check_cli(pair, 3, proc.stdout, expected, {}) is not None, "wrong exit code")
    report = json.loads(proc.stdout)
    report["result"]["value"][0][0][1] += 1e-3
    shifted = json.dumps(report).encode()
    expect(run.check_cli(pair, 0, shifted, expected, {}) is not None, "shifted limit value")
    expect(run.check_cli(pair, 0, proc.stdout + b" ", expected, {pair: proc.stdout}) is not None,
           "bytes differ between invocations")
    report["result"]["outcome"] = "diverged"
    expect(run.check_cli(pair, 0, json.dumps(report).encode(), expected, {}) is not None, "verdict class")


def test_certificate_check_counts_corruption():
    case = workloads.cert_sweep(2, pool=3)[0][0]
    cert = case.run()
    expect(case.check(cert) is None, "clean certificate")
    failed = dataclasses.replace(cert, passed=False)
    expect(counted_failures(dataclasses.replace(case, run=lambda: failed)) == 1, "certificate not passed")
    regular = cert.premise if isinstance(cert.premise, perturb.Regular) else cert.conclusion
    flipped = dataclasses.replace(regular, limit=regular.limit.conj())
    bad = dataclasses.replace(cert, premise=flipped, conclusion=flipped)
    expect(counted_failures(dataclasses.replace(case, run=lambda: bad)) == 1, "Im T < 0 limit")


def test_wide_channel_checks_count_corruption():
    rounds = workloads.wide_channel(3, ks=(3,), rounds=1)
    for case in rounds[0]:
        verdict = case.run()
        expect(case.check(verdict) is None, f"clean {case.label}")
        # A scan miss, as for T=[[1234.5]], J=[[1]] on (-1, 1), where the dip is narrower than a scan step.
        missed = dataclasses.replace(verdict, resonances=dataclasses.replace(verdict.resonances, scan_agrees=False))
        expect(counted_failures(dataclasses.replace(case, run=lambda: missed)) == 1, f"{case.label} scan miss")
        if case.label.startswith("finite"):
            off = dataclasses.replace(verdict, limit=verdict.limit * (1 + 1e-6))
            expect(counted_failures(dataclasses.replace(case, run=lambda: off)) == 1, "dense-assembly mismatch")

    def boom():
        raise RuntimeError("raised on purpose")

    expect(counted_failures(dataclasses.replace(rounds[0][0], run=boom)) == 1, "raising operation")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"selftest: {name} ok", flush=True)
    print(f"selftest: all {len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
