"""Measuring process of the in-process workloads (cert-sweep, wide-channel).

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Imports laplab from the checkout's ``src``, builds the workload's inputs,
prints ``READY`` (the end of set-up), then measures a fixed number of whole
rounds of cases, sized to take about ``--seconds``, and prints one JSON line
of raw measurements for ``run.py``.  With ``--trace 1`` the first half of
the rounds runs untraced and the second half traced, which gives
``trace.overhead``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: Seconds one round takes on the machine the benchmark was sized on (2
#: x86-64 vCPUs, Python 3.11, numpy 2.4, one BLAS thread).  A run measures
#: seconds / ROUND_SECONDS rounds, so every run holds the same mix of cases
#: however fast the machine is at the moment; time alone would let the
#: tail percentile move between clusters of cases from run to run.
ROUND_SECONDS = {"cert-sweep": 0.055, "wide-channel": 3.75}

#: A run stops early past this multiple of --seconds, to end in time.
TIME_LIMIT_FACTOR = 4.0


def import_laplab():
    """Import laplab from this checkout's src, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import laplab

    if Path(laplab.__file__).resolve().parent != src / "laplab":
        raise SystemExit(f"perfbench: laplab imported from {laplab.__file__}, not from {src}")
    return laplab


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def measure(rounds, count: int, tracer=None, time_limit: float = float("inf")) -> dict:
    """Run ``count`` whole rounds, cycling through ``rounds``."""
    durations: list[float] = []
    reasons: Counter = Counter()
    attempted = 0
    started = time.perf_counter()
    for i in range(count):
        if i and time.perf_counter() - started > time_limit:
            break
        for case in rounds[i % len(rounds)]:
            attempted += 1
            if tracer is not None:
                tracer.begin_op(case.k)
            t0 = time.perf_counter()
            try:
                result = case.run()
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exc()
                reasons[f"{case.label}: raised {type(exc).__name__}: {exc}"] += 1
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
            durations.append(elapsed)
            reason = case.check(result)
            if reason is not None:
                reasons[f"{case.label}: {reason}"] += 1
    return {"durations": durations, "attempted": attempted, "reasons": dict(reasons)}


def ops_per_s(durations: list[float]) -> float:
    return len(durations) / sum(durations) if durations else 0.0


def run(workload: str, count: int, trace: bool, rounds, time_limit: float = float("inf")) -> dict:
    """Raw measurements of ``count`` rounds over prepared ``rounds``."""
    if not trace:
        plain = measure(rounds, count, time_limit=time_limit)
        plain["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return plain
    from tracer import Tracer, write_json

    half = max(1, count // 2)
    plain = measure(rounds, half, time_limit=time_limit / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(rounds, half, tracer, time_limit=time_limit / 2)
    finally:
        tracer.uninstall()
    write_json(OUT / f"spans-{workload}.json.gz", tracer.spans())
    reasons = Counter(plain["reasons"])
    reasons.update(traced["reasons"])
    return {
        "durations": plain["durations"],
        "attempted": plain["attempted"] + traced["attempted"],
        "reasons": dict(reasons),
        "summary": tracer.summary(),
        "overhead": ops_per_s(traced["durations"]) / ops_per_s(plain["durations"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_laplab()
    import workloads

    rounds = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    count = round_count(args.workload, args.seconds)
    raw = run(args.workload, count, bool(args.trace), rounds, TIME_LIMIT_FACTOR * args.seconds)
    print(json.dumps(raw), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
