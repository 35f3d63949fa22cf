"""Out-of-program tracing for the laplab benchmark (standard library only).

``install`` replaces every public function of the traced laplab modules, at
every ``laplab.*`` module binding that refers to it, with a wrapper that
records a span.  Rebinding each name matters: ``from .models import
sandwiched_resolvent`` gives ``lap`` and ``perturb`` their own references,
which a patch of ``laplab.models`` alone would miss.  The numpy.linalg entry
points that laplab calls are wrapped with plain counters.

Spans and counts are recorded only between ``begin_op`` and ``end_op``, so
input generation and output checks never show up in per-layer numbers.
Spans (name, start, end, parent, k) stay in memory and are written when the
run ends; ``summary`` reduces them to additive totals that ``layer_metrics``
turns into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter

TRACED_MODULES = ("matkit", "models", "lap", "perturb", "verify", "scenario", "cli")

#: Public functions left unwrapped.  The lattice kernel runs k^2 * support^2
#: times per z (about 350k calls in one k=64 verdict); a span each would
#: swamp the trace, and its time is the resolvent's own work, so it stays in
#: the self time of models.sandwiched_resolvent.
UNWRAPPED = ("models.free_lattice_kernel",)

#: numpy.linalg entry points counted, and the counter each one feeds.
LINALG_COUNTERS = {
    "svd": "lapack.svd.calls",
    "solve": "lapack.solve.calls",
    "eig": "lapack.eig.calls",
    "eigvals": "lapack.eig.calls",
    "eigh": "lapack.eig.calls",
    "eigvalsh": "lapack.eig.calls",
}

CERTIFICATE_SPANS = (
    "verify.verify_regular_direction_theorem",
    "verify.verify_cor_abs",
    "verify.verify_cor_monotone",
)

#: Channel sizes of the wide-channel workload that get their own split.
K_SPLITS = (8, 32, 64)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("import.total_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.laplab_self_ms", "ms", "lower"),
    ("package.runtime_deps", "count", "lower"),
    ("package.src_lines", "lines", "lower"),
    ("scenario.load_scenario.self_ms", "ms", "lower"),
    ("cli.run_scenario.self_ms", "ms", "lower"),
    ("cli.emit_report.self_ms", "ms", "lower"),
    ("models.sandwiched_resolvent.calls", "count", "lower"),
    ("models.sandwiched_resolvent.self_ms", "ms", "lower"),
    ("models.sandwiched_resolvent.unique_ratio", "ratio", "higher"),
    ("models.boundary_exact.calls", "count", "lower"),
    ("models.boundary_exact.self_ms", "ms", "lower"),
    ("lap.evaluate_on_grid.calls", "count", "lower"),
    ("lap.evaluate_on_grid.self_ms", "ms", "lower"),
    ("lap.extrapolate_limit.calls", "count", "lower"),
    ("lap.extrapolate_limit.self_ms", "ms", "lower"),
    ("lap.extrapolate_limit.converged_ratio", "ratio", "higher"),
    ("perturb.regular_direction.anchors_per_verdict", "count", "lower"),
    ("perturb.perturbed_resolvent.calls", "count", "lower"),
    ("perturb.perturbed_resolvent.self_ms", "ms", "lower"),
    ("matkit.solve_linear.calls", "count", "lower"),
    ("matkit.solve_linear.self_ms", "ms", "lower"),
    ("matkit.smallest_singular.calls", "count", "lower"),
    ("matkit.smallest_singular.self_ms", "ms", "lower"),
    ("lapack.svd.calls", "count", "lower"),
    ("lapack.solve.calls", "count", "lower"),
    ("lapack.eig.calls", "count", "lower"),
    ("perturb.resonance_couplings.self_ms", "ms", "lower"),
    ("perturb.resonance_couplings.peak_mb", "MB", "lower"),
    ("perturb.resonance_couplings.scan_agree_ratio", "ratio", "higher"),
    ("verify.certificate.self_ms", "ms", "lower"),
]
for _base, _unit in (
    ("models.sandwiched_resolvent.self_ms", "ms"),
    ("lap.extrapolate_limit.self_ms", "ms"),
    ("perturb.resonance_couplings.self_ms", "ms"),
    ("perturb.resonance_couplings.peak_mb", "MB"),
):
    PER_LAYER.extend((f"{_base}.k{k}", _unit, "lower") for k in K_SPLITS)
PER_LAYER.append(("trace.overhead", "ratio", "higher"))


class Tracer:
    """In-memory span store and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_k = array("i")
        self._stack: list[int] = []
        self.active = False
        self.k = 0
        self.ops: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_mb: dict[int, float] = {}
        self._seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, k: int) -> None:
        self.k = k
        self._seen.clear()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.ops[self.k] += 1
        self.counts["models.sandwiched_resolvent.distinct"] += len(self._seen)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_k.append(self.k)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = before(self, sig, args, kwargs) if before else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                if name == "perturb.resonance_couplings":
                    _stop_memory(self, state)
            if after:
                after(self, sig, args, kwargs, result)
            return result

        return traced

    def _count(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap laplab's public functions and count numpy.linalg calls."""
        import numpy.linalg

        import laplab  # noqa: F401  (loads every traced module)

        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "laplab" or name.startswith("laplab.")
        }
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[f"laplab.{short}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                    and f"{short}.{attr}" not in UNWRAPPED
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for attr, counter in LINALG_COUNTERS.items():
            original = getattr(numpy.linalg, attr)
            self._restore.append((numpy.linalg, attr, original))
            setattr(numpy.linalg, attr, self._count(counter, original))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals: calls and self time per (span name, k), counts, peaks."""
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            key = f"{self.names[self.span_name[i]]}@{self.span_k[i]}"
            calls[key] += 1
            self_s[key] += self.span_end[i] - self.span_start[i] - covered[i]
        return {
            "ops": {str(k): v for k, v in self.ops.items()},
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "peak_mb": {str(k): v for k, v in self.peak_mb.items()},
        }

    def spans(self) -> dict:
        """Columnar span table, times in microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "k": self.span_k.tolist(),
        }


# -- per-function hooks -----------------------------------------------------


def _resolvent_before(tracer, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    z = bound.arguments["z"]
    z = z.z if hasattr(z, "z") else complex(z)
    tracer._seen.add((id(bound.arguments["model"]), id(bound.arguments["rigging"]), z))


def _extrapolate_after(tracer, sig, args, kwargs, result):
    if type(result).__name__ == "Converged":
        tracer.counts["lap.extrapolate_limit.converged"] += 1


def _regular_after(tracer, sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    if type(result).__name__ == "Regular":
        tried = list(bound.arguments["anchors"]).index(result.witness_coupling) + 1
    else:
        tried = len(result.attempts)
    tracer.counts["perturb.regular_direction.anchors"] += tried
    tracer.counts["perturb.regular_direction.verdicts"] += 1


def _resonance_before(tracer, sig, args, kwargs):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    else:
        tracemalloc.reset_peak()
    return started


def _stop_memory(tracer, started):
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    if started:
        tracemalloc.stop()
    tracer.peak_mb[tracer.k] = max(tracer.peak_mb.get(tracer.k, 0.0), peak)


def _resonance_after(tracer, sig, args, kwargs, result):
    if result.scan_agrees is not None:
        tracer.counts["perturb.resonance_couplings.scanned"] += 1
        tracer.counts["perturb.resonance_couplings.agreed"] += bool(result.scan_agrees)


_HOOKS = {
    "models.sandwiched_resolvent": (_resolvent_before, None),
    "lap.extrapolate_limit": (None, _extrapolate_after),
    "perturb.regular_direction": (None, _regular_after),
    "perturb.resonance_couplings": (_resonance_before, _resonance_after),
}


# -- reduction to metrics ---------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several processes (peaks take the maximum)."""
    out = {"ops": Counter(), "calls": Counter(), "self_s": Counter(), "counts": Counter(), "peak_mb": {}}
    for s in summaries:
        for field in ("ops", "calls", "self_s", "counts"):
            out[field].update(s[field])
        for k, v in s["peak_mb"].items():
            out["peak_mb"][k] = max(out["peak_mb"].get(k, 0.0), v)
    return {field: dict(v) for field, v in out.items()}


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def layer_metrics(summary: dict, imports: dict, package: dict, overhead: float) -> dict:
    """Per-layer metrics, per operation, from a merged summary.

    ``imports`` holds the four ``import.*`` values, ``package`` the two
    static ``package.*`` counts.  A ratio with nothing to count reads 1.0
    (nothing wasted); ``anchors_per_verdict`` without verdicts reads 0.
    """
    ops_by_k = {int(k): v for k, v in summary["ops"].items()}
    ops = sum(ops_by_k.values())

    def total(field: str, name: str, k: int | None = None) -> float:
        return sum(
            v for key, v in summary[field].items()
            if key.rsplit("@", 1)[0] == name and (k is None or int(key.rsplit("@", 1)[1]) == k)
        )

    def per_op(value: float, k: int | None = None) -> float:
        n = ops if k is None else ops_by_k.get(k, 0)
        return value / n if n else 0.0

    counts = summary["counts"]
    out = dict(imports)
    out.update(package)
    for name in ("scenario.load_scenario", "cli.run_scenario", "cli.emit_report"):
        out[f"{name}.self_ms"] = per_op(1e3 * total("self_s", name))
    for name in (
        "models.sandwiched_resolvent", "models.boundary_exact", "lap.evaluate_on_grid",
        "lap.extrapolate_limit", "perturb.perturbed_resolvent", "matkit.solve_linear",
        "matkit.smallest_singular",
    ):
        out[f"{name}.calls"] = per_op(total("calls", name))
        out[f"{name}.self_ms"] = per_op(1e3 * total("self_s", name))
    out["models.sandwiched_resolvent.unique_ratio"] = _ratio(
        counts.get("models.sandwiched_resolvent.distinct", 0),
        total("calls", "models.sandwiched_resolvent"), 1.0,
    )
    out["lap.extrapolate_limit.converged_ratio"] = _ratio(
        counts.get("lap.extrapolate_limit.converged", 0), total("calls", "lap.extrapolate_limit"), 1.0
    )
    out["perturb.regular_direction.anchors_per_verdict"] = _ratio(
        counts.get("perturb.regular_direction.anchors", 0),
        counts.get("perturb.regular_direction.verdicts", 0), 0.0,
    )
    for counter in sorted(set(LINALG_COUNTERS.values())):
        out[counter] = per_op(counts.get(counter, 0))
    out["perturb.resonance_couplings.self_ms"] = per_op(1e3 * total("self_s", "perturb.resonance_couplings"))
    peaks = {int(k): v for k, v in summary["peak_mb"].items()}
    out["perturb.resonance_couplings.peak_mb"] = max(peaks.values(), default=0.0)
    out["perturb.resonance_couplings.scan_agree_ratio"] = _ratio(
        counts.get("perturb.resonance_couplings.agreed", 0),
        counts.get("perturb.resonance_couplings.scanned", 0), 1.0,
    )
    out["verify.certificate.self_ms"] = per_op(1e3 * sum(total("self_s", n) for n in CERTIFICATE_SPANS))
    for k in K_SPLITS:
        for name in ("models.sandwiched_resolvent", "lap.extrapolate_limit", "perturb.resonance_couplings"):
            out[f"{name}.self_ms.k{k}"] = per_op(1e3 * total("self_s", name, k), k)
        out[f"perturb.resonance_couplings.peak_mb.k{k}"] = peaks.get(k, 0.0)
    out["trace.overhead"] = overhead
    return {name: out[name] for name, _, _ in PER_LAYER}


def parse_importtime(stderr: str) -> dict:
    """The four ``import.*`` values (ms) from ``python -X importtime`` output.

    ``import.numpy_ms`` and ``import.scipy_ms`` add the cumulative time of
    each numpy (scipy) import not made from inside numpy or scipy, so a
    numpy module that scipy pulls in counts under scipy and the two never
    overlap.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[0]), int(parts[1])))
    result = {"import.total_ms": 0.0, "import.scipy_ms": 0.0, "import.numpy_ms": 0.0, "import.laplab_self_ms": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; walk backwards so
    # each module's enclosing import is on the stack when it is reached.
    for depth, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        nested = any(outer in ("numpy", "scipy") for _, outer in stack)
        pkg = name.split(".")[0]
        stack.append((depth, pkg))
        if name == "laplab":
            result["import.total_ms"] = cum_us / 1e3
        if pkg == "laplab":
            result["import.laplab_self_ms"] += self_us / 1e3
        elif pkg in ("numpy", "scipy") and not nested:
            result[f"import.{pkg}_ms"] += cum_us / 1e3
    return result


def write_json(path, payload) -> None:
    """Compact JSON; gzip-compressed when the name ends in .gz."""
    path.parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
