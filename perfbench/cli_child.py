"""One traced ``laplab`` CLI invocation, for the traced cli-cold run.

    python perfbench/cli_child.py OUT_JSON --scenario PATH --command NAME

Behaves like ``python -m laplab --scenario PATH --command NAME`` (same
report bytes, same exit code) with laplab's public functions wrapped by the
tracer; writes the span summary and the spans to OUT_JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, write_json
from worker import import_laplab


def main() -> int:
    out = Path(sys.argv[1])
    import_laplab()
    tracer = Tracer()
    tracer.install()
    import laplab.cli

    tracer.begin_op(0)
    try:
        code = laplab.cli.main(sys.argv[2:])
    finally:
        tracer.end_op()
    write_json(out, {"summary": tracer.summary(), "spans": tracer.spans()})
    return code


if __name__ == "__main__":
    sys.exit(main())
