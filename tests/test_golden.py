"""Shipped scenarios against their golden reports (``tests/golden``).

Exit codes, keys, strings and booleans must match exactly; numbers within
1e-9 relative, with a 1e-12 absolute floor for entries that are rounding
noise around zero.  Byte identity on one machine is tested in test_cli.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def assert_matches(got, want, path="") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}/{i}")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("scenario,command", regen.PAIRS)
def test_golden_report(scenario, command):
    want = json.loads(regen.golden_path(scenario, command).read_text(encoding="utf-8"))
    assert_matches(regen.record(scenario, command), want)


def test_numbers_compare_with_tolerance():
    assert_matches({"a": [1.0, 0]}, {"a": [1.0 + 1e-12, 1e-14]})
    with pytest.raises(AssertionError):
        assert_matches({"a": [1.0]}, {"a": [1.0 + 1e-6]})
    with pytest.raises(AssertionError):
        assert_matches({"a": True}, {"a": 1})
    with pytest.raises(AssertionError):
        assert_matches({"a": 1, "b": 2}, {"a": 1})
