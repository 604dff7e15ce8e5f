"""MPS reading and writing."""

import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import big_m_mips, small_mips
from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    LinearConstraint,
    MipInstance,
    ModelError,
    MpsParseError,
    VariableDef,
    parse_mps,
    two_cluster_instance,
    write_mps,
)
from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
)
from diversitree.model import INFINITE_BOUND

KNAP2 = """\
NAME          knap2
ROWS
 N  COST
 L  CAP
COLUMNS
    M1  'MARKER'  'INTORG'
    x1  COST  -3.0   CAP  2.0
    x2  COST  -2.0   CAP  1.0
    M2  'MARKER'  'INTEND'
RHS
    RHS  CAP  2.0
BOUNDS
 UP BND  x1  1.0
 UP BND  x2  1.0
ENDATA
"""


# -- an MPS grammar: text in a layout that varies, and the instance it declares --

FIXED_COLUMNS = (1, 4, 14, 24, 39, 49)  # where fixed MPS starts fields 1 to 6
SEPARATORS = (" ", "  ", "\t", " \t  ")
COEFFICIENTS = ("1", "-2", "3.5", "0", "-0.25", "1e3", "4.0")
BOUND_VALUES = ("-2", "0", "1", "2.5", "3", "inf", "-inf", "1e30")
RANGE_VALUES = ("2", "-1.5", "0", "3")


def oracle_bound(btype, value, lower, upper, integer):
    """A column's (lower, upper, integer) after the BOUNDS entry ``btype``."""
    return {
        "UP": (lower, value, integer),
        "LO": (value, upper, integer),
        "FX": (value, value, integer),
        "FR": (-INF, INF, integer),
        "MI": (-INF, upper, integer),
        "PL": (lower, INF, integer),
        "BV": (0.0, 1.0, True),
        "UI": (lower, value, True),
        "LI": (value, upper, True),
    }[btype]


def oracle_rows(name, sense, coeffs, b, r):
    """The rows of a ``sense`` row with right-hand side ``b`` and RANGES
    value ``r`` (None for none): the range makes it lo <= ax <= hi, an L row
    keeps its name on the upper side and any other row on the lower side."""
    if r is None:
        return [LinearConstraint(coeffs, sense, b, name)]
    lo, hi = {LE: (b - abs(r), b), GE: (b, b + abs(r)), EQ: (b + min(r, 0.0), b + max(r, 0.0))}[sense]
    first, second = ((LE, hi), (GE, lo)) if sense == LE else ((GE, lo), (LE, hi))
    return [LinearConstraint(coeffs, *first, name), LinearConstraint(coeffs, *second, f"{name}__rng")]


@st.composite
def mps_texts(draw):
    """MPS text and the MipInstance it declares. The text varies fixed and
    free spacing, tabs, comments, blank lines, line ends, the case of
    keywords, integer markers, OBJSENSE on its own line and inline, RANGES
    of both signs on every row sense, every bound type, one or two
    (row, value) pairs per RHS and RANGES line, and extra free rows."""
    fixed = draw(st.booleans())
    word = str.lower if draw(st.booleans()) else str  # keywords in either case
    lines = []

    def header(*fields):
        lines.append(" ".join(fields))

    def data(*fields):  # an empty field leaves its columns blank
        if fixed:
            line = ""
            for col, field in zip(FIXED_COLUMNS, fields):
                line = line.ljust(col) + field
        else:
            sep = draw(st.sampled_from(SEPARATORS))
            line = sep + sep.join(f for f in fields if f)
        lines.append(line)

    def pair_lines(pairs, leads):
        """``pairs`` one or two to a line, each line after one of ``leads``."""
        while pairs:
            k = draw(st.integers(1, 2))
            data("", draw(st.sampled_from(leads)), *itertools.chain(*pairs[:k]))
            pairs = pairs[k:]

    name = draw(st.sampled_from(["", "t", "knap-2"]))
    header(word("NAME"), name)
    maximize = None
    objsense = draw(st.sampled_from([None, "MIN", "max", "Maximize", "minimize"]))
    if objsense is not None:
        maximize = objsense.upper().startswith("MAX")
        if draw(st.booleans()):
            header(word("OBJSENSE"), objsense)
        else:
            header(word("OBJSENSE"))
            data(objsense)

    obj = draw(st.sampled_from(["obj", "COST"]))
    senses = draw(st.permutations([LE, GE, EQ, EQ]))[:draw(st.integers(0, 4))]
    cons = [f"r{k}" for k in range(len(senses))]
    frees = [f"f{k}" for k in range(draw(st.integers(0, 2)))]
    order = list(draw(st.permutations(cons + frees)))
    first_free = min([order.index(f) for f in frees], default=len(order))
    order.insert(draw(st.integers(0, first_free)), obj)  # the first N row
    letter = {obj: "N", **{f: "N" for f in frees},
              **{c: {LE: "L", GE: "G", EQ: "E"}[s] for c, s in zip(cons, senses)}}
    header(word("ROWS"))
    for row in order:
        data(word(letter[row]), row)

    n = draw(st.integers(1, 4))
    integer = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    entries = [[(row, draw(st.sampled_from(COEFFICIENTS))) for row in order if draw(st.booleans())]
               for _ in range(n)]
    header(word("COLUMNS"))
    in_block = False
    for j in range(n):
        if integer[j] != in_block:
            in_block = integer[j]
            quote = draw(st.sampled_from(["'", '"', ""]))
            data("", draw(st.sampled_from(["M1", "MARKER"])), f"{quote}MARKER{quote}",
                 f"{quote}{'INTORG' if in_block else 'INTEND'}{quote}")
        # a zero objective entry declares a bare column
        pair_lines(entries[j] or [(obj, "0")], [f"c{j}"])
    if in_block and draw(st.booleans()):
        data("", "M9", "'MARKER'", "'INTEND'")

    rhs = {row: draw(st.sampled_from(COEFFICIENTS)) for row in order if draw(st.booleans())}
    ranges = {row: draw(st.sampled_from(RANGE_VALUES)) for row in order if draw(st.booleans())}
    sections = [("RHS", rhs), ("RANGES", ranges)]
    for section, values in draw(st.permutations(sections)):
        if values or draw(st.booleans()):
            header(word(section))
            pair_lines(list(values.items()), ["SET1", ""])

    bounds = [[0.0, 1.0 if integer[j] else INF, integer[j]] for j in range(n)]
    bound_lines = []
    # every bound type at most once, in any order, each on any column
    btypes = draw(st.permutations(["UP", "LO", "FX", "FR", "MI", "PL", "BV", "UI", "LI"]))
    for btype in btypes[:draw(st.integers(0, 9))]:
        j = draw(st.integers(0, n - 1))
        value = draw(st.sampled_from(BOUND_VALUES))
        lower, upper, is_int = oracle_bound(btype, float(value), *bounds[j])
        if lower > upper or lower >= INFINITE_BOUND or upper <= -INFINITE_BOUND:
            continue  # a fault, left to the mutation property
        bounds[j] = [lower, upper, is_int]
        takes_value = btype in ("UP", "LO", "FX", "UI", "LI")
        bound_lines.append((word(btype), draw(st.sampled_from(["BND", ""])), f"c{j}",
                            value if takes_value else ""))
    if bound_lines or draw(st.booleans()):
        header(word("BOUNDS"))
        for fields in bound_lines:
            data(*fields)
    if draw(st.booleans()):
        header(word("ENDATA"))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "* a comment", "\t* one more"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    objective = {j: float(v) for j in range(n) for row, v in entries[j] if row == obj}
    constraints = []
    for row in order:
        if row in cons:
            coeffs = {j: float(v) for j in range(n) for r, v in entries[j] if r == row and float(v)}
            constraints += oracle_rows(row, senses[cons.index(row)], coeffs, float(rhs.get(row, 0.0)),
                                       float(ranges[row]) if row in ranges else None)
    expected = MipInstance(
        name=name,
        variables=[VariableDef(j, lo, up, is_int, f"c{j}") for j, (lo, up, is_int) in enumerate(bounds)],
        constraints=constraints,
        objective={j: -c if maximize else c for j, c in objective.items() if c != 0.0},
        objective_name=obj,
        objective_negated=bool(maximize),
    )
    return end.join(lines) + end, expected


class TestParse:
    def test_two_var_knapsack(self):
        inst = parse_mps(io.StringIO(KNAP2))
        assert inst.name == "knap2"
        assert inst.num_vars == 2
        assert inst.binary_index == [0, 1]
        assert len(inst.constraints) == 1
        con = inst.constraints[0]
        assert con.sense == LE and con.rhs == 2.0
        assert con.coeffs == {0: 2.0, 1: 1.0}
        assert inst.objective == {0: -3.0, 1: -2.0}
        assert not inst.objective_negated

    def test_accepts_bytes_and_path(self, tmp_path):
        from_str = parse_mps(KNAP2)
        from_bytes = parse_mps(KNAP2.encode())
        path = tmp_path / "k.mps"
        path.write_text(KNAP2)
        from_path = parse_mps(path)
        assert from_str == from_bytes == from_path

    def test_max_sense_negated(self):
        text = KNAP2.replace("ROWS", "OBJSENSE\n    MAX\nROWS")
        inst = parse_mps(text)
        assert inst.objective_negated
        assert inst.objective == {0: 3.0, 1: 2.0}
        assert inst.reported_objective(-5.0) == 5.0

    def test_integer_marker_defaults(self):
        # integer columns introduced inside markers default to [0, 1]
        text = KNAP2.replace("BOUNDS\n UP BND  x1  1.0\n UP BND  x2  1.0\n", "")
        inst = parse_mps(text)
        assert [v.upper for v in inst.variables] == [1.0, 1.0]
        assert inst.binary_index == [0, 1]

    def test_bound_types(self):
        text = """\
NAME b
ROWS
 N obj
 G r
COLUMNS
    a  obj  1.0  r  1.0
    b  obj  1.0  r  1.0
    c  obj  1.0  r  1.0
    d  obj  1.0  r  1.0
    e  obj  1.0  r  1.0
RHS
    rhs  r  1.0
BOUNDS
 UP B a 4.0
 LO B a 1.0
 FX B b 2.5
 FR B c
 MI B d
 BV B e
ENDATA
"""
        inst = parse_mps(text)
        by = {v.name: v for v in inst.variables}
        assert (by["a"].lower, by["a"].upper) == (1.0, 4.0)
        assert (by["b"].lower, by["b"].upper) == (2.5, 2.5)
        assert (by["c"].lower, by["c"].upper) == (-INF, INF)
        assert (by["d"].lower, by["d"].upper) == (-INF, INF)
        assert (by["e"].lower, by["e"].upper) == (0.0, 1.0) and by["e"].is_integer

    def test_integer_bound_types(self):
        text = """\
NAME ib
ROWS
 N obj
COLUMNS
    a  obj  1.0
    b  obj  1.0
BOUNDS
 UI B a 7
 LI B b 2
 UI B b 9
ENDATA
"""
        inst = parse_mps(text)
        by = {v.name: v for v in inst.variables}
        assert by["a"].is_integer and by["a"].upper == 7.0
        assert by["b"].is_integer and (by["b"].lower, by["b"].upper) == (2.0, 9.0)

    def test_ranges_le(self):
        text = """\
NAME r
ROWS
 N obj
 L cap
COLUMNS
    x  obj  1.0  cap  1.0
RHS
    rhs  cap  5.0
RANGES
    rng  cap  2.0
BOUNDS
 FR B x
ENDATA
"""
        inst = parse_mps(text)
        # L row with range r: b - |r| <= ax <= b
        names = [c.name for c in inst.constraints]
        assert "cap" in names and "cap__rng" in names
        x_ok = np.array([4.0])
        x_low = np.array([2.0])
        x_high = np.array([5.5])
        assert all(c.satisfied(x_ok) for c in inst.constraints)
        assert not all(c.satisfied(x_low) for c in inst.constraints)
        assert not all(c.satisfied(x_high) for c in inst.constraints)

    def test_ranges_eq_sign(self):
        text = """\
NAME r
ROWS
 N obj
 E bal
COLUMNS
    x  obj  1.0  bal  1.0
RHS
    rhs  bal  3.0
RANGES
    rng  bal  -2.0
BOUNDS
 FR B x
ENDATA
"""
        inst = parse_mps(text)
        # E row with negative range: b - |r| <= ax <= b
        feas = [all(c.satisfied(np.array([t])) for c in inst.constraints)
                for t in (0.5, 1.0, 2.0, 3.0, 3.5)]
        assert feas == [False, True, True, True, False]

    def test_errors_carry_line_numbers(self):
        dup = KNAP2.replace(" L  CAP", " L  CAP\n L  CAP")
        with pytest.raises(MpsParseError) as err:
            parse_mps(dup)
        assert "duplicate row" in str(err.value)
        assert err.value.line_no == 5

        bad_header = KNAP2.replace("RHS\n", "JUNKSECTION\n", 1)
        with pytest.raises(MpsParseError) as err:
            parse_mps(bad_header)
        assert "malformed section header" in str(err.value)

        bad_col = KNAP2.replace(" UP BND  x2  1.0", " UP BND  zz  1.0")
        with pytest.raises(MpsParseError) as err:
            parse_mps(bad_col)
        assert "undeclared column 'zz'" in str(err.value)
        assert err.value.line_no == KNAP2.splitlines().index(" UP BND  x2  1.0") + 1

        bad_row = KNAP2.replace("    x2  COST  -2.0   CAP  1.0",
                                "    x2  COST  -2.0   NOPE  1.0")
        with pytest.raises(MpsParseError) as err:
            parse_mps(bad_row)
        assert "undeclared row" in str(err.value)

        crossing = KNAP2.replace(" UP BND  x2  1.0", " UP BND  x2  1.0\n LO BND  x2  3.0")
        with pytest.raises(MpsParseError) as err:
            parse_mps(crossing)
        assert "cross" in str(err.value)

    def test_non_finite_numbers_fail_with_their_line(self):
        lines = KNAP2.splitlines()
        for old, new in (
            ("    x1  COST  -3.0   CAP  2.0", "    x1  COST  -3.0   CAP  1e400"),
            ("    x2  COST  -2.0   CAP  1.0", "    x2  COST  nan   CAP  1.0"),
            ("    RHS  CAP  2.0", "    RHS  CAP  -inf"),
            (" UP BND  x2  1.0", " UP BND  x2  NaN"),
        ):
            with pytest.raises(MpsParseError, match="expected a finite number") as err:
                parse_mps(KNAP2.replace(old, new))
            assert err.value.line_no == lines.index(old) + 1
        ranged = KNAP2.replace("BOUNDS\n", "RANGES\n    RNG  CAP  inf\nBOUNDS\n")
        with pytest.raises(MpsParseError, match="expected a finite number") as err:
            parse_mps(ranged)
        assert err.value.line_no == lines.index("BOUNDS") + 2

    @pytest.mark.parametrize("btype", ["FR", "MI", "PL", "BV"])
    def test_a_flag_bound_without_a_column_fails_with_its_line(self, btype):
        old = " UP BND  x2  1.0"
        with pytest.raises(MpsParseError, match=f"{btype} bound needs a column") as err:
            parse_mps(KNAP2.replace(old, f"{old}\n {btype}"))
        assert err.value.line_no == KNAP2.splitlines().index(old) + 2

    def test_bytes_that_are_not_utf8_fail_with_their_line(self, tmp_path):
        data = KNAP2.encode().replace(b"    RHS  CAP  2.0", b"    RHS  CAP\xff  2.0")
        line = KNAP2.splitlines().index("    RHS  CAP  2.0") + 1
        path = tmp_path / "bad.mps"
        path.write_bytes(data)
        for source in (data, path, str(path), io.BytesIO(data)):
            with pytest.raises(MpsParseError, match="byte 0xff is not UTF-8") as err:
                parse_mps(source)
            assert err.value.line_no == line

    def test_a_path_reads_crlf_and_cr_line_ends(self, tmp_path):
        path = tmp_path / "k.mps"
        for end in ("\r\n", "\r"):
            path.write_bytes(KNAP2.replace("\n", end).encode())
            assert parse_mps(path) == parse_mps(KNAP2)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_str_bytes_and_file_objects_read_crlf_and_cr_line_ends(self, end):
        text = KNAP2.replace("\n", end)
        commented = f"* no NAME first{end}{text}"  # text all the same, not a path
        for source in (text, commented, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
            assert parse_mps(source) == parse_mps(KNAP2)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_an_error_names_the_same_line_whatever_the_line_end(self, end):
        old = "    RHS  CAP  2.0"
        line = KNAP2.splitlines().index(old) + 1
        text = KNAP2.replace(old, "    RHS  CAP  nan").replace("\n", end)
        data = KNAP2.replace("\n", end).encode().replace(b"RHS  CAP  2.0", b"RHS  CAP\xff  2.0")
        for source, message in ((text, "expected a finite number"), (text.encode(), "expected a finite"),
                                (data, "byte 0xff is not UTF-8"), (io.BytesIO(data), "byte 0xff")):
            with pytest.raises(MpsParseError, match=message) as err:
                parse_mps(source)
            assert err.value.line_no == line

    def test_infinite_bounds_stay_legal(self):
        text = KNAP2.replace("    M2  'MARKER'  'INTEND'\n",
                             "    M2  'MARKER'  'INTEND'\n    y  COST  1.0  CAP  1.0\n")
        text = text.replace("ENDATA", " LO BND  y  -inf\n UP BND  y  1e400\nENDATA")
        y = parse_mps(text).variables[2]
        assert (y.is_integer, y.lower, y.upper) == (False, -INF, INF)

    @pytest.mark.parametrize("entries, line", [
        ("    x2  COST  -2.0   CAP  1.0\n    x2  CAP  1.0", 9),  # once summed to 2
        ("    x2  COST  -2.0   CAP  1e308\n    x2  CAP  1e308", 9),  # once summed to inf
        ("    x2  COST  -2.0   CAP  5.0   CAP  7.0", 8),  # once summed to 12
        ("    x2  COST  -2.0   CAP  1.0\n    x2  COST  0.0", 9),  # the objective row
    ])
    def test_a_repeated_entry_fails_with_its_line(self, entries, line):
        text = KNAP2.replace("    x2  COST  -2.0   CAP  1.0", entries)
        with pytest.raises(MpsParseError, match="repeated entry for column 'x2'") as err:
            parse_mps(text)
        assert err.value.line_no == line

    def test_entries_of_one_column_may_span_lines(self):
        text = KNAP2.replace("    x2  COST  -2.0   CAP  1.0", "    x2  COST  -2.0\n    x2  CAP  1.0")
        assert parse_mps(text) == parse_mps(KNAP2)

    @pytest.mark.parametrize("value, negated", [
        ("MIN", False), ("min", False), ("Minimize", False),
        ("MAX", True), ("max", True), ("MAXIMIZE", True),
    ])
    @pytest.mark.parametrize("inline", [False, True])
    def test_objsense_takes_min_or_max_in_any_case(self, value, negated, inline):
        sense = f"OBJSENSE {value}" if inline else f"OBJSENSE\n    {value}"
        inst = parse_mps(KNAP2.replace("ROWS", sense + "\nROWS"))
        assert inst.objective_negated is negated
        assert inst.objective == ({0: 3.0, 1: 2.0} if negated else {0: -3.0, 1: -2.0})

    @pytest.mark.parametrize("sense, line", [
        ("OBJSENSE\n    MAXX", 3),  # once read as a maximization
        ("OBJSENSE\n    FOO", 3),  # once read as a minimization
        ("OBJSENSE MINIMUM", 2),
        ("OBJSENSE\n    MAX\n    MIN", 4),  # a second value, once ignored
    ])
    def test_any_other_objsense_fails_with_its_line(self, sense, line):
        with pytest.raises(MpsParseError) as err:
            parse_mps(KNAP2.replace("ROWS", sense + "\nROWS"))
        assert err.value.line_no == line

    def test_objective_rhs_warning(self, caplog):
        text = KNAP2.replace("    RHS  CAP  2.0", "    RHS  COST  7.0\n    RHS  CAP  2.0")
        with caplog.at_level("WARNING", logger="diversitree.mps"):
            inst = parse_mps(text)
        assert any("ignored" in rec.message for rec in caplog.records)
        assert inst.constraints[0].rhs == 2.0

    def test_extra_free_row_dropped(self, caplog):
        text = KNAP2.replace(" L  CAP", " L  CAP\n N  EXTRA")
        with caplog.at_level("WARNING", logger="diversitree.mps"):
            inst = parse_mps(text)
        assert any("free row" in rec.message for rec in caplog.records)
        assert len(inst.constraints) == 1

    @pytest.mark.parametrize("row", ["COST", "EXTRA"])
    def test_a_range_on_a_free_row_is_ignored(self, row):
        """The objective and an extra free row are declared, so a RANGES
        entry on either is skipped as an RHS entry on them is."""
        text = KNAP2.replace(" L  CAP", " L  CAP\n N  EXTRA").replace(
            "BOUNDS", f"RANGES\n    RNG  {row}  2.0\nBOUNDS")
        inst = parse_mps(text)
        assert [(c.name, c.sense, c.rhs) for c in inst.constraints] == [("CAP", LE, 2.0)]

    def test_missing_endata_tolerated(self):
        inst = parse_mps(KNAP2.replace("ENDATA\n", ""))
        assert inst.num_vars == 2

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("NAME t\n", 1),
        ("NAME t\nROWS\n N obj\n L c1\nRHS\n    RHS c1 1.0\nENDATA\n", 7),
        ("NAME t\nROWS\n N obj\nCOLUMNS\nENDATA\n", 5),
    ])
    def test_an_input_that_declares_no_column_fails_with_a_line(self, text, line, tmp_path):
        """Empty, NAME only, ROWS without COLUMNS, and an empty COLUMNS
        section: no instance, and the line where the input ended."""
        path = tmp_path / "none.mps"
        path.write_text(text)
        for source in (text.encode(), path, io.StringIO(text)):
            with pytest.raises(MpsParseError, match="no COLUMNS entry declares a column") as err:
                parse_mps(source)
            assert err.value.line_no == line


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        knapsack_instance,
        mixed_small_instance,
        general_integer_instance,
        lambda: two_cluster_instance(6, 1),
    ])
    def test_structural_equality(self, build):
        inst = build()
        text = write_mps(inst)
        back = parse_mps(io.StringIO(text))
        assert back == inst

    def test_negated_round_trip(self):
        inst = parse_mps(KNAP2.replace("ROWS", "OBJSENSE\n    MAX\nROWS"))
        back = parse_mps(io.StringIO(write_mps(inst)))
        assert back == inst
        assert back.objective_negated

    def test_free_and_infinite_bounds_round_trip(self):
        text = """\
NAME fb
ROWS
 N obj
 G r
COLUMNS
    a  obj  1.0  r  1.0
    b  obj  -1.0  r  1.0
RHS
    rhs  r  1.0
BOUNDS
 FR B a
 MI B b
 UP B b 3.0
ENDATA
"""
        inst = parse_mps(text)
        back = parse_mps(io.StringIO(write_mps(inst)))
        assert back == inst

    @pytest.mark.parametrize("lower, upper", [
        (0.0, INF), (3.0, INF), (3.0, 5.0), (1.5, 4.0), (-5.0, -3.0), (-INF, 2.0), (-INF, INF),
    ])
    def test_integer_bounds_round_trip(self, lower, upper):
        """An integer column starts at [0, 1]: an infinite upper bound needs a
        PL entry, and a lower bound above 1 must follow the upper one."""
        inst = MipInstance("t", [VariableDef(0, lower, upper, True, "x")], [], {0: 1.0})
        text = write_mps(inst)
        assert parse_mps(text) == inst
        assert (" PL  BND  x" in text.splitlines()) == (upper == INF and lower > -INF)


def named_instance(name="t", objective="obj", rows=("r0",), columns=("x",)):
    return MipInstance(
        name=name,
        variables=[VariableDef(j, 0.0, 1.0, True, col) for j, col in enumerate(columns)],
        constraints=[LinearConstraint({0: 1.0}, LE, 1.0, row) for row in rows],
        objective={0: 1.0},
        objective_name=objective,
    )


class TestWriterNames:
    def test_names_mps_can_carry_are_written(self):
        inst = named_instance(name="", rows=("r0", "MARKERS", "x*"), columns=("x", "INTORG"))
        assert parse_mps(write_mps(inst)) == inst

    @pytest.mark.parametrize("kwargs, kind, name", [
        ({"objective": ""}, "row", ""),
        ({"rows": ("",)}, "row", ""),
        ({"rows": ("r 0",)}, "row", "r 0"),
        ({"objective": "o\tbj"}, "row", "o\tbj"),
        ({"columns": ("x y",)}, "column", "x y"),
        ({"name": "two words"}, "instance", "two words"),
        ({"rows": ("*r",)}, "row", "*r"),
        ({"columns": ("*x",)}, "column", "*x"),
        ({"rows": ("MARKER",)}, "row", "MARKER"),
        ({"columns": ("'MARKER'",)}, "column", "'MARKER'"),
        ({"rows": ("r0", "r1", "r0")}, "row", "r0"),
        ({"rows": ("obj",)}, "row", "obj"),
    ])
    def test_a_name_mps_cannot_carry_is_refused(self, kwargs, kind, name):
        with pytest.raises(ValueError, match=f"^MPS cannot carry the {kind} name {re.escape(repr(name))}"):
            write_mps(named_instance(**kwargs))


# -- grammar properties ------------------------------------------------------

# tokens an edit may insert or substitute, besides the text's own
EDIT_TOKENS = ["NAME", "OBJSENSE", "MAX", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
               "N", "E", "UP", "FR", "BV", "LI", "'MARKER'", "'INTORG'", "'INTEND'", "*", "0",
               "-1", "1e30", "1e400", "-inf", "nan", "x"]


class TestGrammar:
    @settings(max_examples=120)
    @given(mps_texts(), st.sampled_from(["str", "bytes", "text file", "binary file"]))
    def test_parse_gives_the_declared_instance(self, case, kind):
        text, expected = case
        source = {"str": text, "bytes": text.encode(), "text file": io.StringIO(text),
                  "binary file": io.BytesIO(text.encode())}[kind]
        assert parse_mps(source) == expected

    @settings(max_examples=150)
    @given(st.one_of(small_mips(), big_m_mips(), mps_texts().map(lambda case: case[1])))
    def test_write_then_parse_gives_the_instance(self, inst):
        assert parse_mps(write_mps(inst)) == inst

    @settings(max_examples=150)
    @given(mps_texts(), st.data())
    def test_a_one_token_edit_gives_an_instance_or_a_parse_or_model_error(self, case, data):
        parts = re.split(r"(\s+)", case[0])
        tokens = [k for k, part in enumerate(parts) if part and not part.isspace()]
        at = data.draw(st.sampled_from(tokens))
        token = data.draw(st.sampled_from(sorted({parts[k] for k in tokens}) + EDIT_TOKENS))
        edit = data.draw(st.sampled_from(["insert before", "insert after", "delete", "substitute"]))
        parts[at] = {"insert before": f"{token} {parts[at]}", "insert after": f"{parts[at]} {token}",
                     "delete": "", "substitute": token}[edit]
        try:
            assert isinstance(parse_mps("".join(parts)), MipInstance)
        except (MpsParseError, ModelError):
            pass
