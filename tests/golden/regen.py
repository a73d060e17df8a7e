"""The golden report corpus: each case in ``cases.json`` is one ``mhbound``
command, and ``<name>.json`` next to it holds what that command gave, its
exit code and its JSON report without ``duration_seconds`` (or, for a run
that writes no report, its last stderr line).

``tests/test_golden.py`` reruns every case through ``cli.main`` in process
and compares with ``compare``.  Rewrite the files with

    PYTHONPATH=src python tests/golden/regen.py

A regeneration changes test data: name every field that moved, with its
old and new value (the test's failure message prints them).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from mhbound import cli

HERE = Path(__file__).resolve().parent
#: absolute tolerance on every float leaf
FLOAT_TOL = 1e-10


def load_cases() -> list:
    return json.loads((HERE / "cases.json").read_text())


def run_case(case: dict, out: Path) -> dict:
    """Run ``case`` through ``cli.main``, writing its report into ``out``."""
    argv = [case["command"], "--out", str(out), "--format", "json"]
    for item in case["set"]:
        argv += ["--set", item]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    outcome = {"case": case, "exit_code": code}
    path = out / f"{case['command']}.json"
    if path.exists():
        report = json.loads(path.read_text())
        del report["duration_seconds"]
        outcome["report"] = report
    else:
        outcome["error"] = [line for line in stderr.getvalue().splitlines() if line.strip()][-1]
    return outcome


def compare(old, new, path: str = "") -> list:
    """Every difference between two decoded JSON values, as ``path: old ->
    new`` lines: floats differ when they are more than FLOAT_TOL apart (NaN
    equals NaN), anything else when it is not identical."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = [f"{path}/{key}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}"
                 for key in sorted(old.keys() ^ new.keys())]
        for key in old.keys() & new.keys():
            lines += compare(old[key], new[key], f"{path}/{key}")
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in compare(a, b, f"{path}/{i}")]
    if (type(old) is float or type(new) is float) and {type(old), type(new)} <= {int, float}:
        if old == new or (math.isnan(old) and math.isnan(new)) or abs(old - new) <= FLOAT_TOL:
            return []
    elif type(old) is type(new) and old == new:
        return []
    return [f"{path}: {old!r} -> {new!r}"]


def main() -> int:
    for case in load_cases():
        with tempfile.TemporaryDirectory() as tmp:
            outcome = run_case(case, Path(tmp))
        (HERE / f"{case['name']}.json").write_text(json.dumps(outcome, indent=1) + "\n")
        print(f"{case['name']}: exit {outcome['exit_code']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
