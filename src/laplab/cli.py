"""Scenario-driven batch front end.

One scenario file in, one report out.  Exit codes: 0 computed (and, for a
verifier, certified), 1 verification failed, 2 invalid input, 3
inconclusive (NotObserved / Inconclusive outcomes, vacuous certificates,
a ``scan`` whose contour cross-check disagrees with the eigenvalue route).

Reports are deterministic: the same scenario and tool version give
byte-identical output.  Wall-clock time therefore goes to stderr, never
into the canonical report.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import matkit
from .config import DEFAULT_TOLERANCES
from .errors import (
    AtResonance,
    GridEvaluationError,
    InvalidPremise,
    LapLabError,
    ScenarioError,
)
from .lap import Converged, Diverged, Inconclusive, extrapolate_limit
from .models import (
    FiniteHermitian,
    FiniteRigging,
    boundary_exact,
    channel_count,
    essential_spectrum,
    sandwiched_resolvent,
)
from .perturb import (
    Direction,
    Regular,
    ResonanceReport,
    _coupled,
    _limit_from,
    _samples,
    boundary_limit,
    finite_perturbed_hamiltonian,
    perturbed_resolvent,
    regular_direction,
    spectral_flow_finite,
)
from .scenario import Scenario, load_scenario
from .verify import (
    TheoremCertificate,
    verify_cor_abs,
    verify_cor_monotone,
    verify_regular_direction_theorem,
)

COMMANDS = ("limit", "scan", "verify-thm", "verify-cor-abs", "verify-cor-mono", "flow")

_EXIT_OK = 0
_EXIT_FAILED = 1
_EXIT_INVALID = 2
_EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# JSON-safe conversion (complex -> [re, im]) and canonical emission
# ---------------------------------------------------------------------------


def _pair(z) -> list[float]:
    zc = complex(z)
    return [float(zc.real), float(zc.imag)]


def _matrix(m) -> list[list[list[float]]]:
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_pair(v) for v in row] for row in a]


def _limit_dict(outcome) -> dict:
    if isinstance(outcome, Converged):
        return {
            "outcome": "converged",
            "value": _matrix(outcome.value),
            "error_estimate": float(outcome.error_estimate),
            "method": outcome.method,
        }
    out = {
        "outcome": "diverged" if isinstance(outcome, Diverged) else "inconclusive",
        "blowup_exponent": float(outcome.blowup_exponent),
        "norms_trace": [[float(y), float(nm)] for y, nm in outcome.norms_trace],
    }
    if not isinstance(outcome, Diverged):
        out["last_delta"] = float(outcome.last_delta)
    return out


def _resonances_dict(report: ResonanceReport) -> dict:
    out = {
        "anchor": float(report.anchor),
        "window": [float(report.window[0]), float(report.window[1])],
        "imag_tolerance": float(report.imag_tolerance),
        "resonances": [
            {"r": float(res.coupling), "multiplicity": int(res.multiplicity)}
            for res in report.resonances
        ],
    }
    if report.scan_agrees is not None:
        out["missed"] = [float(r) for r in report.missed]
        out["root_count"] = report.root_count
        out["scan_agrees"] = bool(report.scan_agrees)
    return out


def _verdict_dict(verdict) -> dict:
    if isinstance(verdict, Regular):
        return {
            "verdict": "regular",
            "witness_coupling": float(verdict.witness_coupling),
            "limit": _matrix(verdict.limit),
            "error_estimate": float(verdict.error_estimate),
            "method": verdict.method,
            "resonances": _resonances_dict(verdict.resonances),
        }
    return {
        "verdict": "not_observed",
        "attempts": [
            {
                "anchor": float(att.anchor),
                "outcome": att.outcome,
                "detail": None if att.detail is None else float(att.detail),
            }
            for att in verdict.attempts
        ],
    }


def _certificate_dict(cert: TheoremCertificate) -> dict:
    out = {
        "claim": cert.claim,
        "scenario": cert.scenario,
        "passed": bool(cert.passed),
        "vacuous": bool(cert.vacuous),
        "notes": list(cert.notes),
        "premise_direction": _matrix(cert.premise_direction.j),
        "premise": None if cert.premise is None else _verdict_dict(cert.premise),
        "conclusion_direction": None
        if cert.conclusion_direction is None
        else _matrix(cert.conclusion_direction.j),
        "conclusion": None if cert.conclusion is None else _verdict_dict(cert.conclusion),
    }
    if cert.projected_resonances is not None:
        out["projected_resonances"] = _resonances_dict(cert.projected_resonances)
    return out


def _canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError("reports must not contain non-finite numbers")
        return format(obj, ".17g")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("report keys must be strings")
            items.append(f'{pad}  {json.dumps(key, ensure_ascii=False)}: {_canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}  {_canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _report_rows(report: dict) -> tuple[list[str], list[list]]:
    """The report's primary table, for the CSV emission path."""
    result = report.get("result", {})
    kind = result.get("kind")
    if kind == "sweep":
        header = ["axis", "value", "t_norm", "im_t_min_eig", "criterion_sigma_min", "verdict", "at_resonance"]
        rows = [
            [r["axis"], r["value"], r["t_norm"], r["im_t_min_eig"], r["criterion_sigma_min"], r["verdict"], r["at_resonance"]]
            for r in result["rows"]
        ]
        return header, rows
    if kind == "scan":
        header = ["r", "multiplicity"]
        if result["verdict"]["verdict"] == "regular":
            table = result["verdict"]["resonances"]["resonances"]
            return header, [[r["r"], r["multiplicity"]] for r in table]
        return header, []
    if kind == "limit":
        return ["y", "t_norm"], [[y, nm] for y, nm in result.get("norms_trace", [])]
    if kind == "flow":
        return (
            ["lambda", "r_from", "r_to", "count_from", "count_to", "flow"],
            [[result["lambda"], result["r_from"], result["r_to"], result["count_from"], result["count_to"], result["flow"]]],
        )
    if kind == "certificate":
        cert = result["certificate"]
        return (
            ["claim", "scenario", "passed", "vacuous"],
            [[cert["claim"], cert["scenario"], cert["passed"], cert["vacuous"]]],
        )
    raise ValueError("report has no tabular section")


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report deterministically.

    JSON: UTF-8, sorted keys, complex numbers as [re, im] pairs, floats
    with 17 significant digits (lossless round trip).  CSV: RFC-4180
    quoting, header row, '.' decimal separator, locale independent.
    """
    if fmt == "json":
        return (_canonical_json(report) + "\n").encode("utf-8")
    if fmt == "csv":
        header, rows = _report_rows(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buf.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(blob: bytes) -> dict:
    """Inverse of the JSON emission; parse(emit(report)) == report."""
    return json.loads(blob.decode("utf-8"))


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _effective_dict(scn: Scenario) -> dict:
    return {
        "grid": {"y0": scn.grid.y0, "q": scn.grid.q, "n": scn.grid.n},
        "anchors": list(scn.anchors),
        "window": [scn.window[0], scn.window[1]],
        "tol": scn.tol,
        # advisory metadata, never used to gate computations
        "essential_spectrum": [[lo, hi] for lo, hi in essential_spectrum(scn.model)],
    }


def _require_direction(scn: Scenario, command: str) -> Direction:
    if scn.direction is None:
        raise ScenarioError("/J", f"required for command {command!r}")
    return scn.direction


def _j_or_identity(scn: Scenario) -> np.ndarray:
    """The scenario's J; a scenario without ``J`` couples by the identity."""
    if scn.direction is not None:
        return scn.direction.j
    return np.eye(channel_count(scn.rigging))


def _cmd_limit(scn: Scenario) -> tuple[dict, int]:
    """The limit at the first anchor; with an exact base value, both routes."""
    r0 = scn.anchors[0]
    a = r0 * _j_or_identity(scn)
    result = {"kind": "limit", "coupling": float(r0)}
    try:
        samples = _coupled(_samples(scn.model, scn.rigging, scn.lam, scn.grid), a)
    except GridEvaluationError as exc:
        result.update(outcome="error", error=str(exc))
        return result, _EXIT_INCONCLUSIVE
    numeric = extrapolate_limit(samples, scn.tol)
    result["norms_trace"] = [[float(y), float(np.linalg.norm(v, 2))] for y, v in samples]
    base = boundary_exact(scn.model, scn.rigging, scn.lam)
    if base is None:
        result.update(_limit_dict(numeric))
        return result, _EXIT_INCONCLUSIVE if isinstance(numeric, Inconclusive) else _EXIT_OK
    try:
        result.update(_limit_dict(_limit_from(base, a, scn.tol)))
    except AtResonance as exc:
        result.update(outcome="at_resonance", method="exact", sigma_min=float(exc.sigma_min))
    result["extrapolation"] = _limit_dict(numeric)
    return result, _EXIT_OK


def _cmd_scan(scn: Scenario) -> tuple[dict, int]:
    direction = _require_direction(scn, "scan")
    verdict = regular_direction(
        scn.model, scn.rigging, scn.lam, direction, scn.anchors, scn.grid, scn.tol, scn.window,
    )
    result = {"kind": "scan", "verdict": _verdict_dict(verdict)}
    agreed = isinstance(verdict, Regular) and verdict.resonances.scan_agrees
    code = _EXIT_OK if agreed else _EXIT_INCONCLUSIVE
    return result, code


def _cmd_verify(scn: Scenario, command: str) -> tuple[dict, int]:
    direction = _require_direction(scn, command)
    kwargs = dict(anchors=scn.anchors, grid=scn.grid, window=scn.window)
    if command == "verify-thm":
        cert = verify_regular_direction_theorem(scn.model, scn.rigging, scn.lam, direction, **kwargs)
    elif command == "verify-cor-abs":
        cert = verify_cor_abs(scn.model, scn.rigging, scn.lam, direction, **kwargs)
    else:
        if scn.direction_tilde is None:
            raise ScenarioError("/Jtilde", "required for command 'verify-cor-mono'")
        try:
            cert = verify_cor_monotone(
                scn.model, scn.rigging, scn.lam, direction, scn.direction_tilde, **kwargs
            )
        except InvalidPremise as exc:
            cert = TheoremCertificate(
                "corollary-monotone", "", direction, scn.direction_tilde, None, None,
                vacuous=False, passed=False, notes=(f"invalid premise: {exc}",),
            )
    result = {"kind": "certificate", "certificate": _certificate_dict(cert)}
    if cert.vacuous:
        return result, _EXIT_INCONCLUSIVE
    return result, _EXIT_OK if cert.passed else _EXIT_FAILED


def _cmd_flow(scn: Scenario) -> tuple[dict, int]:
    if not isinstance(scn.model, FiniteHermitian) or not isinstance(scn.rigging, FiniteRigging):
        raise ScenarioError("/model/type", "flow needs a finite_hermitian model")
    direction = _require_direction(scn, "flow")
    if scn.flow is None:
        raise ScenarioError("/flow", "required for command 'flow'")
    r_from, r_to = scn.flow
    v = finite_perturbed_hamiltonian(scn.model, scn.rigging, direction.j) - scn.model.h
    v = 0.5 * (v + v.conj().T)
    flow = spectral_flow_finite(scn.model.h, v, scn.lam, r_from, r_to)
    w_from = np.linalg.eigvalsh(scn.model.h + r_from * v)
    w_to = np.linalg.eigvalsh(scn.model.h + r_to * v)
    result = {
        "kind": "flow",
        "lambda": scn.lam,
        "r_from": r_from,
        "r_to": r_to,
        "count_from": int((w_from < scn.lam).sum()),
        "count_to": int((w_to < scn.lam).sum()),
        "flow": int(flow),
    }
    return result, _EXIT_OK


def _row(axis: str, value: float, t: np.ndarray | None, tj_ref: np.ndarray | None, verdict: str) -> dict:
    if t is None:
        t_norm = im_min = sigma = float("inf")
    else:
        t_norm = matkit.operator_norm(t)
        im_min = matkit.min_eig_hermitian(matkit.im_part(t))
        sigma = float("inf") if tj_ref is None else matkit.smallest_singular(np.eye(t.shape[0]) + tj_ref)
    finite = np.isfinite([t_norm, im_min, sigma]).all()
    return {
        "axis": axis,
        "value": float(value),
        "t_norm": float(t_norm) if np.isfinite(t_norm) else None,
        "im_t_min_eig": float(im_min) if np.isfinite(im_min) else None,
        "criterion_sigma_min": float(sigma) if np.isfinite(sigma) else None,
        "verdict": verdict,
        "at_resonance": verdict == "at_resonance" or bool(finite and sigma < DEFAULT_TOLERANCES.sigma_dip),
    }


def sweep_grid(scn: Scenario, command: str) -> tuple[dict, int]:
    """Run a parameter sweep; one row per grid point, deterministic order.

    Every axis couples by J, which is the identity when the scenario has
    none.  Row semantics by axis: "lambda" re-runs the limit at each
    lambda with coupling r0 J (r0 the first anchor); "r" moves the
    coupling of J relative to the first convergent anchor, transporting
    the anchor limit through the identity; "y" records the samples
    T(lambda + iy) coupled by r0 J.  The criterion column is
    sigma_min(1 + (r - r0) T J) for the "r" axis and sigma_min(1 + T J)
    otherwise.
    """
    spec = scn.sweep
    assert spec is not None
    values = np.linspace(spec.start, spec.stop, spec.points)
    j = _j_or_identity(scn)
    rows = []
    if spec.axis == "r":
        anchor_verdict = regular_direction(
            scn.model, scn.rigging, scn.lam, Direction(j),
            scn.anchors, scn.grid, scn.tol, scn.window, cross_check=False,
        )
        if not isinstance(anchor_verdict, Regular):
            raise ScenarioError("/sweep", "no convergent anchor for the coupling sweep")
        r0 = anchor_verdict.witness_coupling
        t0 = anchor_verdict.limit
        for r in values:
            tj = (r - r0) * (t0 @ j)
            try:
                t_r = perturbed_resolvent(t0, (r - r0) * j)
                rows.append(_row("r", r, t_r, tj, "converged"))
            except AtResonance:
                rows.append(_row("r", r, t0, tj, "at_resonance"))
    elif spec.axis == "lambda":
        a = scn.anchors[0] * j
        for lam in values:
            try:
                outcome = boundary_limit(scn.model, scn.rigging, float(lam), a, scn.grid, scn.tol)
                verdict = type(outcome).__name__.lower()  # converged | diverged | inconclusive
            except AtResonance:
                verdict = "at_resonance"
            except GridEvaluationError:
                verdict = "error"
            t = outcome.value if verdict == "converged" else None
            rows.append(_row("lambda", lam, t, None if t is None else t @ j, verdict))
    else:  # axis == "y"
        a = scn.anchors[0] * j
        for y in values:
            base = sandwiched_resolvent(scn.model, scn.rigging, complex(scn.lam, y))
            try:
                t = perturbed_resolvent(base, a)
                rows.append(_row("y", y, t, t @ j, "value"))
            except AtResonance:
                rows.append(_row("y", y, None, None, "at_resonance"))
    result = {"kind": "sweep", "axis": spec.axis, "command": command, "rows": rows}
    return result, _EXIT_OK


def run_scenario(scn: Scenario, command: str) -> tuple[dict, int]:
    """Dispatch a validated scenario to its command implementation.

    Returns (report, exit_code).  Domain errors surface as exit-code-2
    reports instead of raising.
    """
    from . import __version__

    try:
        if scn.sweep is not None and command in ("limit", "scan"):
            result, code = sweep_grid(scn, command)
        elif command == "limit":
            result, code = _cmd_limit(scn)
        elif command == "scan":
            result, code = _cmd_scan(scn)
        elif command in ("verify-thm", "verify-cor-abs", "verify-cor-mono"):
            result, code = _cmd_verify(scn, command)
        elif command == "flow":
            result, code = _cmd_flow(scn)
        else:
            raise ScenarioError("", f"unknown command {command!r}")
    except ScenarioError as exc:
        result, code = {"kind": "error", "path": exc.path, "error": str(exc)}, _EXIT_INVALID
    except LapLabError as exc:
        result, code = {"kind": "error", "error": f"{type(exc).__name__}: {exc}"}, _EXIT_INVALID
    report = {
        "tool": "laplab",
        "version": __version__,
        "command": command,
        "scenario": scn.raw,
        "effective": _effective_dict(scn),
        "result": result,
    }
    return report, code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplab",
        description="Boundary values of sandwiched resolvents: limits, scans, verifications.",
    )
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out", default=None, help="write the report here (default: stdout)")
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    parser.add_argument("--tol", type=float, default=None, help="override the extrapolation tolerance")
    parser.add_argument("--anchors", default=None, help="comma-separated anchor couplings")
    parser.add_argument("--window", default=None, help="resonance search window A:B")
    return parser


def _apply_overrides(scn: Scenario, args) -> Scenario:
    from dataclasses import replace

    updates = {}
    if args.tol is not None:
        if args.tol <= 0:
            raise ScenarioError("/tol/extrapolation", "must be positive")
        updates["tol"] = args.tol
    if args.anchors is not None:
        try:
            anchors = tuple(float(x) for x in args.anchors.split(",") if x.strip())
        except ValueError as exc:
            raise ScenarioError("/anchors", f"bad --anchors: {exc}") from exc
        if not anchors:
            raise ScenarioError("/anchors", "empty --anchors")
        updates["anchors"] = anchors
    if args.window is not None:
        parts = args.window.split(":")
        if len(parts) != 2:
            raise ScenarioError("/window", "--window must be A:B")
        try:
            window = (float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ScenarioError("/window", f"bad --window: {exc}") from exc
        if not window[0] < window[1]:
            raise ScenarioError("/window", "window must be a nonempty interval")
        updates["window"] = window
    return replace(scn, **updates) if updates else scn


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        scn = load_scenario(args.scenario)
        scn = _apply_overrides(scn, args)
    except ScenarioError as exc:
        print(f"laplab: invalid scenario: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except OSError as exc:
        print(f"laplab: cannot read scenario: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    report, code = run_scenario(scn, args.command)
    try:
        blob = emit_report(report, args.format)
    except ValueError as exc:
        print(f"laplab: cannot emit report: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    if args.out is None:
        sys.stdout.write(blob.decode("utf-8"))
    else:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    print(f"laplab: {args.command} finished in {elapsed_ms:.1f} ms (exit {code})", file=sys.stderr)
    return code
