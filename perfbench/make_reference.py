"""Write reference.json: exit code and verdict fields of each cli-cold pair.

    python3 perfbench/make_reference.py

Run from the root of a laplab checkout whose verdicts are trusted; the
benchmark compares every cli-cold operation against this file.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    reference = {}
    for pair in run.CLI_PAIRS:
        proc = subprocess.run(run.python("-m", "laplab", *run.cli_argv(pair)), capture_output=True,
                              env=run.child_env(), cwd=run.ROOT, timeout=60)
        reference[pair] = {"exit": proc.returncode, "fields": run.report_fields(proc.stdout)}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
