"""Bad numbers in an instance end at the parse or model stage, or in a
``HarnessError`` that names its stage; never in a bare exception."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diversitree import (
    ExperimentSpec,
    HarnessError,
    ModelError,
    MpsParseError,
    parse_mps,
    run_two_phase,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
TEXTS = {p.name: p.read_text() for p in sorted(INSTANCES.glob("*.mps"))}
STAGES = ("optimize stage: ", "count stage: ", "subset stage: ")
# limits keep a mutated instance with a huge box from running long
SPEC = ExperimentSpec(q=0.1, p1=50, p=5, node_limit=300, time_limit=2.0)


def numeric_fields(text):
    """(line, token) positions of every number on the data lines of ``text``."""
    spots = []
    for i, line in enumerate(text.split("\n")):
        if not line[:1].isspace():
            continue
        for k, tok in enumerate(line.split()):
            try:
                float(tok)
            except ValueError:
                continue
            spots.append((i, k))
    return spots


FIELDS = {name: numeric_fields(text) for name, text in TEXTS.items()}


def mutate(name, edits):
    """The shipped instance ``name`` with the token at each (line, token) of
    ``edits`` replaced by its text."""
    lines = TEXTS[name].split("\n")
    for (i, k), text in edits.items():
        toks = lines[i].split()
        toks[k] = text
        lines[i] = "    " + "  ".join(toks)
    return "\n".join(lines)


def run_or_stage_error(instance, spec=SPEC):
    """Run the pipeline; a failure must be a ``HarnessError`` naming its
    stage, and never a stalled LP: every number the model admits is one the
    solver handles."""
    try:
        return run_two_phase(instance, spec)
    except HarnessError as exc:
        assert str(exc).startswith(STAGES), str(exc)
        assert "stalled" not in str(exc), str(exc)
        return None


def test_the_shipped_instances_have_numbers_to_mutate():
    assert len(TEXTS) >= 8
    assert all(len(spots) >= 5 for spots in FIELDS.values())


class TestNonFiniteRepros:
    def edit(self, line, text):
        lines = TEXTS["knap3.mps"].split("\n")
        return mutate("knap3.mps", {(lines.index(line), 2): text})

    def test_an_infinite_coefficient_fails_at_parse(self):
        # once a bare OverflowError from round(inc_x[j]) in the optimize mode
        with pytest.raises(MpsParseError, match="finite") as err:
            parse_mps(self.edit("    item2  weight  3.0", "-inf"))
        assert err.value.line_no == 14

    def test_a_nan_objective_fails_at_parse(self):
        # once reported as "optimize stage: instance is infeasible"
        with pytest.raises(MpsParseError, match="nan") as err:
            parse_mps(self.edit("    item1  OBJ  5.0", "nan"))
        assert err.value.line_no == 11

    def test_the_unmutated_instance_runs(self):
        assert run_or_stage_error(parse_mps(TEXTS["knap3.mps"])) is not None


NON_FINITE = ("nan", "inf", "-inf", "1e400")


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_single_non_finite_number_parses_or_fails_cleanly_and_runs_or_fails_by_stage(name):
    for spot in FIELDS[name]:
        for text in NON_FINITE:
            try:
                instance = parse_mps(mutate(name, {spot: text}))
            except (MpsParseError, ModelError):
                continue
            run_or_stage_error(instance)


# the least coefficient magnitude refused, the least bound magnitude read as
# infinite (and rhs refused), and the end of the float range
MAGNITUDES = ("1e15", "-1e15", "1e20", "-1e20", "1e308", "-1e308")
# a bound of +-1e15 opens an integer box so wide that only the clock ends it
SWEEP_SPEC = replace(SPEC, time_limit=0.2)


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_every_single_huge_number_parses_or_fails_cleanly_and_runs_or_fails_by_stage(name):
    """No RuntimeWarning (an error under this suite), no stall and no bare
    exception, whichever one number is set to a magnitude at a limit of the
    model's input contract or past the float range."""
    for spot in FIELDS[name]:
        for text in MAGNITUDES:
            try:
                instance = parse_mps(mutate(name, {spot: text}))
            except (MpsParseError, ModelError):
                continue
            run_or_stage_error(instance, SWEEP_SPEC)


VALUES = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "1e400", "-1e400"]),
    st.integers(-20, 20).map(lambda v: repr(float(v))),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def mutated_instances(draw):
    name = draw(st.sampled_from(sorted(TEXTS)))
    spots = draw(st.lists(st.sampled_from(FIELDS[name]), min_size=1, max_size=2, unique=True))
    return mutate(name, {spot: draw(VALUES) for spot in spots})


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_instances())
def test_mutated_numbers_parse_or_fail_cleanly_and_run_or_fail_by_stage(text):
    try:
        instance = parse_mps(text)
    except (MpsParseError, ModelError):
        return
    run_or_stage_error(instance)
