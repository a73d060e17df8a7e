"""Every case of the golden corpus (``tests/golden``) gives the recorded
exit code and report: floats within ``regen.FLOAT_TOL``, everything else
identical.  A case with a ``known_defect`` records a defect as it stands;
the change that mends it regenerates that file."""

import json

import pytest

from golden import regen

CASES = regen.load_cases()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case, tmp_path):
    recorded = json.loads((regen.HERE / f"{case['name']}.json").read_text())
    moved = regen.compare(recorded, regen.run_case(case, tmp_path))
    assert not moved, f"{case['name']} moved (recorded -> now):\n" + "\n".join(moved)
