"""Golden reports: the exit code and report of each shipped scenario/command pair.

    PYTHONPATH=src python tests/golden/regen.py

rewrites ``tests/golden/<scenario>.<command>.json`` from the code in
``src/``.  Each file holds ``{"exit": code, "report": report}``, or
``{"exit": 2, "path": pointer}`` for a scenario that fails validation.
Regenerate only when CHANGES.md names every changed field and the reason.
"""

from __future__ import annotations

import sys
from pathlib import Path

from laplab import cli
from laplab.errors import ScenarioError
from laplab.scenario import load_scenario

GOLDEN = Path(__file__).resolve().parent
SCENARIOS = GOLDEN.parent.parent / "scenarios"

#: Each shipped scenario with the command it is built for.
PAIRS = (
    ("cor_mono_invalid.json", "verify-cor-mono"),
    ("embedded_limit.json", "limit"),
    ("embedded_sweep_y.json", "limit"),
    ("embedded_verify_cor_abs.json", "verify-cor-abs"),
    ("embedded_verify_thm.json", "verify-thm"),
    ("embedded_verify_thm_zero.json", "verify-thm"),
    ("finite_flow.json", "flow"),
    ("lattice_cor_mono.json", "verify-cor-mono"),
    ("lattice_lambda3_scan.json", "scan"),
    ("lattice_limit.json", "limit"),
    ("lattice_sweep_lambda.json", "limit"),
    ("lattice_sweep_r.json", "scan"),
    ("malformed_j.json", "scan"),
)


def golden_path(scenario: str, command: str) -> Path:
    return GOLDEN / f"{Path(scenario).stem}.{command}.json"


def record(scenario: str, command: str) -> dict:
    """What the CLI produces for one pair, as the golden file stores it."""
    try:
        scn = load_scenario(SCENARIOS / scenario)
    except ScenarioError as exc:
        return {"exit": 2, "path": exc.path}
    report, code = cli.run_scenario(scn, command)
    return {"exit": code, "report": cli.parse_report(cli.emit_report(report))}


def main() -> int:
    for scenario, command in PAIRS:
        golden_path(scenario, command).write_bytes(cli.emit_report(record(scenario, command)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
