"""MPS reading and writing."""

import io

import numpy as np
import pytest

from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    ModelError,
    MpsParseError,
    parse_mps,
    two_cluster_instance,
    write_mps,
)
from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
)

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

    def test_infinite_bounds_stay_legal(self):
        text = KNAP2.replace("    M2  'MARKER'  'INTEND'\n",
                             "    M2  'MARKER'  'INTEND'\n    y  COST  1.0  CAP  1.0\n")
        text = text.replace("ENDATA", " LO BND  y  -inf\n UP BND  y  1e400\nENDATA")
        y = parse_mps(text).variables[2]
        assert (y.is_integer, y.lower, y.upper) == (False, -INF, INF)

    def test_an_overflowing_sum_of_entries_is_a_model_error(self):
        text = KNAP2.replace("    x2  COST  -2.0   CAP  1.0",
                             "    x2  COST  -2.0   CAP  1e308\n    x2  CAP  1e308")
        with pytest.raises(ModelError, match="'CAP': coefficient inf on column 1"):
            parse_mps(text)

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
