"""Fuzz of the command line: every config the schema accepts ends in exit 0,
1 or 2, and no report of an exit 0 or 2 holds a float that is not finite."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhbound import cli

#: numbers that have broken commands: zero, a negative, the ends of the
#: float range, a fraction, the non-finite values json.loads reads and an
#: integer too large for a float (401 digits)
EDGES = [0, -1, 1e-300, -1e-300, 1e300, -1e300, 0.5, math.nan, math.inf, -math.inf, 10**400]
#: the largest small value of each integer key: a few chains and a spectrum
#: matrix that solves in well under a second
SMALL = {"steps": 5000, "burn_in": 5000, "seed": 2**32, "chains": 3, "n": 201}
#: the config sections each command reads, besides target and proposal
SECTIONS = {"bound": ["bound"], "asymptotic": [], "profile": ["profile"], "spectrum": ["spectrum"], "sample": ["sample"]}
#: settings that keep a run short, which a drawn key overrides
BASE = {"sample": ["sample.steps=2000", "sample.burn_in=100"], "spectrum": ["spectrum.n=101"]}

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def values(section: str, key: str):
    """Values for a numeric key of ``cli._SCHEMA``: an edge value, or a
    finite float, or for an integer key a size that is small or above
    ``cli.MAX_POINTS``."""
    allowed = cli._SCHEMA[section][key]
    numbers = st.one_of(st.sampled_from(EDGES), finite_floats)
    if list in allowed:
        return st.lists(numbers, min_size=1, max_size=3)
    if float in allowed:
        return numbers
    return st.one_of(st.sampled_from(EDGES), st.integers(-1, SMALL[key]), st.integers(cli.MAX_POINTS + 1, 10**12))


@st.composite
def command_lines(draw):
    """A command, a built-in target family and one to three numeric keys of
    the sections it reads, as ``cli.main`` arguments."""
    command = draw(st.sampled_from(sorted(SECTIONS)))
    family = draw(st.sampled_from(["laplace", "gauss"]))
    keys = [
        (section, key)
        for section in ["target", "proposal", *SECTIONS[command]]
        for key, allowed in cli._SCHEMA[section].items()
        if allowed != (str,)
    ]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    sets = [*BASE.get(command, []), f"target.family={family}"]
    sets += [f"{section}.{key}={json.dumps(draw(values(section, key)))}" for section, key in chosen]
    return [command, *(arg for item in sets for arg in ("--set", item))]


def floats_of(doc):
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for value in doc.values():
            yield from floats_of(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from floats_of(value)


def check(argv) -> None:
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([*argv, "--out", out, "--format", "json"])
        assert code in (0, 1, 2)
        if code != 1:
            for path in Path(out).glob("*.json"):
                bad = [x for x in floats_of(json.loads(path.read_text())) if not math.isfinite(x)]
                assert not bad, f"{path.name} holds {bad[:3]}"


# extreme inputs overflow inside numpy, which warns; the exit code and the
# report decide the test
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=command_lines())
# a chain that cannot leave x0: log pi(x0) is -inf (gauss), or x0 + u rounds
# to x0 (laplace); both reported inf and NaN with exit 0
@example(argv=["sample", "--set", "target.family=gauss", "--set", "sample.x0=1e300"])
@example(argv=["sample", "--set", "target.family=laplace", "--set", "sample.x0=1e300"])
# a declared sup of 1e300: the rejection sampler ran into its cap, exit 3
@example(
    argv=[
        "sample",
        "--set",
        "proposal.family=expr",
        "--set",
        "proposal.expr=max(0,1-abs(u))",
        "--set",
        "proposal.sup_shape=1e300",
    ]
)
# a box of area 999,998, just under the cap: each increment reached the cap
# with chance about e^-1, exit 3
@example(
    argv=[
        "sample",
        "--set",
        "proposal.family=expr",
        "--set",
        "proposal.expr=max(0,1-abs(u))",
        "--set",
        "proposal.sup_shape=499999",
        "--set",
        "sample.steps=10",
        "--set",
        "sample.burn_in=1",
    ]
)
# q(u)^2 = 1e600 overflows: hs_norm_t_a was inf with exit 0
@example(argv=["spectrum", "--set", "target.family=laplace", "--set", "proposal.s=1e-300", "--set", "spectrum.n=101"])
@example(argv=["spectrum", "--set", "target.family=gauss", "--set", "proposal.s=1e-300", "--set", "spectrum.n=101"])
# 2A overflows: linspace made NaN nodes, and the exit-1 line named x=nan
@example(argv=["spectrum", "--set", "spectrum.n=101", "--set", "spectrum.A=1.7976931348623157e+308"])
# a subnormal s: r_inf was -inf and beta_inf NaN with exit 2
@example(
    argv=[
        "asymptotic",
        "--set",
        "target.family=gauss",
        "--set",
        "target.scale=8.399087376125471e+282",
        "--set",
        "proposal.s=2.225073858507203e-309",
    ]
)
# a subnormal s: q(0) = 1/s overflows, so S held inf and eigvalsh did not
# converge, exit 3
@example(
    argv=[
        "spectrum",
        "--set",
        "spectrum.n=101",
        "--set",
        "target.family=gauss",
        "--set",
        "proposal.s=2.2250738585e-313",
        "--set",
        "spectrum.A=0.5",
    ]
)
# S is finite, up to 5.2e292, but its tail block's B B^T overflows:
# eigvalsh did not converge, exit 3
@example(
    argv=[
        "spectrum",
        "--set",
        "spectrum.n=101",
        "--set",
        "target.family=gauss",
        "--set",
        "spectrum.A=6.103515625e-05",
        "--set",
        "proposal.s=2.3576867055026495e-299",
    ]
)
# a subnormal s in profile: r(x) was -inf and r_quad_error NaN with exit 2
@example(
    argv=[
        "profile",
        "--set",
        "target.family=gauss",
        "--set",
        "proposal.s=2.225073858507203e-309",
        "--set",
        "proposal.sup_shape=2.225073858507203e-309",
    ]
)
def test_every_config_exits_0_1_or_2_with_finite_reports(argv):
    check(argv)
