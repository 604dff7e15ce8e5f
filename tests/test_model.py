"""Instance container, cutoff constraint, and reformulation transforms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    LinearConstraint,
    MipInstance,
    ModelError,
    VariableDef,
    add_objective_cutoff,
    binary_expand,
    discretize_continuous,
)
from diversitree.model import CUTOFF_ROW, FEAS_TOL, CutoffSpec, Expansion

from conftest import enum_pure_integer, oracle_least


def simple_instance():
    return MipInstance(
        name="tiny",
        variables=[
            VariableDef(0, 0.0, 1.0, True, "a"),
            VariableDef(1, 0.0, 1.0, True, "b"),
            VariableDef(2, 0.0, 5.0, False, "y"),
        ],
        constraints=[
            LinearConstraint({0: 1.0, 1: 1.0}, LE, 1.0, "pick"),
            LinearConstraint({2: 1.0, 0: -1.0}, GE, 0.0, "link"),
        ],
        objective={0: -3.0, 1: -2.0, 2: 0.5},
    )


class TestContainers:
    def test_variable_validation(self):
        with pytest.raises(ModelError):
            VariableDef(0, 2.0, 1.0, False, "bad")  # crossing bounds
        v = VariableDef(0, 0.0, 1.0, True, "b")
        assert v.is_binary
        assert not VariableDef(0, 0.0, 2.0, True, "g").is_binary
        assert not VariableDef(0, 0.0, 1.0, False, "c").is_binary

    def test_nan_bounds_are_rejected_and_infinite_ones_kept(self):
        for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ModelError, match="y: NaN bound"):
                VariableDef(0, lo, hi, False, "y")
        free = VariableDef(0, -INF, INF, False, "y")
        assert (free.lower, free.upper) == (-INF, INF)

    def test_bounds_from_1e20_on_read_as_infinite(self):
        for big in (1e20, 1e308, INF):
            v = VariableDef(0, -big, big, False, "y")
            assert (v.lower, v.upper) == (-INF, INF)
        v = VariableDef(0, -9.9e19, 9.9e19, False, "y")
        assert (v.lower, v.upper) == (-9.9e19, 9.9e19)
        for lo, hi in ((1e20, INF), (-INF, -1e20), (1e20, 1e20), (INF, INF)):
            with pytest.raises(ModelError, match="y: bounds .* hold no value"):
                VariableDef(0, lo, hi, False, "y")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rhs_and_coefficients_stop_at_the_contract_limits(self, sign):
        LinearConstraint({0: sign * 9.9e14}, LE, sign * 9.9e19, "r")
        with pytest.raises(ModelError, match=r"'r': right-hand side .* below 1e\+20"):
            LinearConstraint({0: 1.0}, LE, sign * 1e20, "r")
        with pytest.raises(ModelError, match=r"'r': coefficient .* on column 1 .* below 1e\+15"):
            LinearConstraint({0: 1.0, 1: sign * 1e15}, LE, 1.0, "r")
        variables = [VariableDef(0, 0, 1, True, "a")]
        MipInstance("x", variables, [], {0: sign * 9.9e14})
        with pytest.raises(ModelError, match=r"objective 'OBJ': coefficient .* below 1e\+15"):
            MipInstance("x", variables, [], {0: sign * 1e15})

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_rows_are_rejected(self, bad):
        with pytest.raises(ModelError, match="'r': coefficient .* on column 1 is not finite"):
            LinearConstraint({0: 1.0, 1: bad}, LE, 1.0, "r")
        with pytest.raises(ModelError, match="'r': right-hand side .* is not finite"):
            LinearConstraint({0: 1.0}, GE, bad, "r")

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_objective_is_rejected(self, bad):
        with pytest.raises(ModelError, match="objective 'OBJ': coefficient .* on column b"):
            MipInstance("x", [VariableDef(0, 0, 1, True, "a"), VariableDef(1, 0, 1, True, "b")],
                        [], {0: 1.0, 1: bad})

    def test_constraint_validation(self):
        with pytest.raises(ModelError):
            LinearConstraint({0: 1.0}, "<", 1.0, "bad")
        with pytest.raises(ModelError):
            LinearConstraint({0: 0.0}, LE, 1.0, "zero")
        con = LinearConstraint({0: 1.0, 1: 2.0}, LE, 3.0, "ok")
        assert con.activity([1.0, 1.0]) == 3.0
        assert con.satisfied([1.0, 1.0])
        assert not con.satisfied([1.0, 1.1])

    def test_sums_run_left_to_right(self):
        # left to right, 0.006 + 1e14 rounds to 1e14 (0.006 is under half an
        # ulp of 1e14, 1/128) and the sum is 0.007; a compensated sum (builtin
        # sum over Python floats, from Python 3.12 on) gives 0.013000000000000001.
        # Up to 3.11 the builtin sum also adds left to right, so only 3.12+
        # tells the two apart.
        weights = [0.001, 0.002, 0.003, 1e14, -1e14, 0.007]
        want = 0.0
        for w in weights:
            want += w
        assert repr(want) == "0.007"
        ones = [1.0] * len(weights)
        coeffs = dict(enumerate(weights))
        assert LinearConstraint(coeffs, LE, 1.0, "r").activity(ones) == want
        variables = [VariableDef(j, 0.0, 1.0, True, f"b{j}") for j in range(len(weights))]
        assert MipInstance("sum", variables, [], coeffs).objective_value(ones) == want
        expansion = Expansion("binary", tuple(range(len(weights))), tuple(weights))
        assert expansion.decode(ones) == want

    def test_instance_validation(self):
        with pytest.raises(ModelError):
            MipInstance("x", [VariableDef(1, 0, 1, True, "a")], [], {})  # index gap
        with pytest.raises(ModelError):
            MipInstance(
                "x",
                [VariableDef(0, 0, 1, True, "a"), VariableDef(1, 0, 1, True, "a")],
                [],
                {},
            )  # duplicate name
        with pytest.raises(ModelError):
            MipInstance(
                "x",
                [VariableDef(0, 0, 1, True, "a")],
                [LinearConstraint({5: 1.0}, LE, 1.0, "r")],
                {},
            )  # unknown column

    def test_index_sets(self):
        inst = simple_instance()
        assert inst.integer_index == [0, 1]
        assert inst.binary_index == [0, 1]
        assert inst.num_vars == 3

    def test_json_dump_stable(self):
        inst = simple_instance()
        assert inst.to_json() == inst.to_json()
        doc = inst.to_json()
        assert '"name": "tiny"' in doc
        for key in ('"vars"', '"cons"', '"obj"'):
            assert key in doc


@st.composite
def rows_over_boxes(draw):
    """(row, lo, hi, points): a row of any sense whose non-dyadic
    coefficients come in random dict order, with its rhs often on the
    tolerance edge of an integer box on one to five columns, some of whose
    bounds are infinite, and a few integer points of that box."""
    d = draw(st.integers(1, 5))
    lo, hi = [], []
    for _ in range(d):
        a = draw(st.integers(-3, 3))
        b = a + draw(st.sampled_from([0, 0, 1, 3]))  # often fixed, for equalities
        lo.append(-INF if draw(st.integers(0, 9)) == 0 else float(a))
        hi.append(INF if draw(st.integers(0, 9)) == 0 else float(b))
    cols = draw(st.permutations(range(d)))[:draw(st.integers(1, d))]
    coeffs = {j: draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 10 ** 6)) / 997.0
              for j in cols}
    sense = draw(st.sampled_from([GE, LE, EQ]))
    least = oracle_least(coeffs, lo, hi)
    most = -oracle_least({j: -a for j, a in coeffs.items()}, lo, hi)
    edge = {GE: least + FEAS_TOL, LE: most - FEAS_TOL,
            EQ: draw(st.sampled_from([least + FEAS_TOL, most - FEAS_TOL, (least + most) / 2]))}[sense]
    if not math.isfinite(edge):
        edge = draw(st.floats(-100, 100))
    rhs = draw(st.sampled_from([edge, math.nextafter(edge, -INF), math.nextafter(edge, INF),
                                draw(st.floats(-100, 100))]))

    def integers(a, b):
        a = a if math.isfinite(a) else (b if math.isfinite(b) else 0.0) - 5.0
        b = b if math.isfinite(b) else a + 5.0
        return st.integers(int(a), int(b)).map(float)

    points = draw(st.lists(st.tuples(*map(integers, lo, hi)), min_size=1, max_size=5))
    return LinearConstraint(coeffs, sense, rhs, "r"), lo, hi, points


class TestHoldsOver:
    @settings(max_examples=400)
    @given(rows_over_boxes())
    def test_a_row_that_holds_over_a_box_holds_at_its_points(self, case):
        # the least (greatest) activity over the box is the activity at one
        # corner, so the box test is exactly the point test at every corner
        con, lo, hi, points = case
        holds = con.holds_over(lo, hi)
        assert holds == all(con.satisfied(list(c)) for c in itertools.product(*zip(lo, hi)))
        if holds:
            assert all(con.satisfied(list(x)) for x in points)


class TestCutoff:
    def test_positive_optimum(self):
        assert CutoffSpec(100.0, 0.03).cutoff_value == pytest.approx(103.0)

    def test_zero_optimum(self):
        assert CutoffSpec(0.0, 0.05).cutoff_value == 0.0

    def test_negative_optimum_relative_gap(self):
        assert CutoffSpec(-100.0, 0.03).cutoff_value == pytest.approx(-97.0)

    def test_negative_q_rejected(self):
        with pytest.raises(ModelError):
            CutoffSpec(1.0, -0.1)

    def test_row_appended_objective_kept(self):
        inst = simple_instance()
        cut = add_objective_cutoff(inst, -3.0, 0.1)
        assert len(cut.constraints) == len(inst.constraints) + 1
        row = cut.constraints[-1]
        assert row.name == CUTOFF_ROW
        assert row.sense == LE
        assert row.coeffs == inst.objective
        assert row.rhs == pytest.approx(-3.0 + 0.1 * 3.0)
        assert cut.objective == inst.objective

    def test_negative_optimum_admitted_set(self):
        # 3-variable pure-binary instance with negative optimum: the cutoff
        # admits exactly the solutions within the relative gap
        inst = MipInstance(
            name="neg",
            variables=[VariableDef(i, 0.0, 1.0, True, f"x{i}") for i in range(3)],
            constraints=[LinearConstraint({0: 1.0, 1: 1.0, 2: 1.0}, GE, 1.0, "one")],
            objective={0: -10.0, 1: -9.0, 2: -2.0},
        )
        z, members = enum_pure_integer(inst, 0.0)
        assert z == -21.0
        q = 0.15
        cut = add_objective_cutoff(inst, z, q)
        expect = set()
        for combo in itertools.product((0, 1), repeat=3):
            if sum(combo) >= 1:
                val = -10.0 * combo[0] - 9.0 * combo[1] - 2.0 * combo[2]
                if val <= z + q * abs(z) + 1e-9:
                    expect.add(combo)
        got = {
            combo
            for combo in itertools.product((0, 1), repeat=3)
            if all(c.satisfied(np.asarray(combo, dtype=float)) for c in cut.constraints)
        }
        assert got == expect
        assert (1, 1, 0) in got and (1, 0, 0) not in got


class TestBinaryExpand:
    def target(self, upper):
        return MipInstance(
            name="exp",
            variables=[
                VariableDef(0, 0.0, float(upper), True, "u"),
                VariableDef(1, 0.0, 1.0, True, "w"),
            ],
            constraints=[LinearConstraint({0: 1.0, 1: 1.0}, LE, float(upper) + 1.0, "cap")],
            objective={0: 1.0, 1: -1.0},
        )

    def test_u5_m3(self):
        out, index_map = binary_expand(self.target(5), [0])
        entry = index_map.entries[0]
        assert len(entry.bit_indices) == 3  # M minimal with 5 <= 2^3 - 1
        # x = 5 decodes from bits (1, 0, 1)
        x = np.zeros(out.num_vars)
        for bit, col in zip((1, 0, 1), entry.bit_indices):
            x[col] = bit
        assert entry.decode(x) == pytest.approx(5.0)

    def test_u1_identity(self):
        inst = self.target(1)
        out, index_map = binary_expand(inst, [0])
        assert out.num_vars == inst.num_vars
        assert out.variables[0].is_binary
        x = np.array([1.0, 0.0])
        assert index_map.entries[0].decode(x) == pytest.approx(1.0)

    def test_u10_decode_range_clipped(self):
        out, index_map = binary_expand(self.target(10), [0])
        entry = index_map.entries[0]
        assert len(entry.bit_indices) == 4  # 10 <= 2^4 - 1
        cap_rows = [c for c in out.constraints if c.name.endswith("__cap")]
        assert len(cap_rows) == 1
        admitted = set()
        for bits in itertools.product((0, 1), repeat=4):
            x = np.zeros(out.num_vars)
            for bit, col in zip(bits, entry.bit_indices):
                x[col] = bit
            value = entry.decode(x)
            assert value == sum(b * 2 ** k for k, b in enumerate(bits))
            if cap_rows[0].satisfied(x):
                admitted.add(int(round(value)))
        assert admitted == set(range(11))  # {0..15} clipped to {0..10}

    def test_feasible_set_preserved(self):
        # brute-force equivalence under decoding on a small instance
        inst = MipInstance(
            name="pres",
            variables=[
                VariableDef(0, 0.0, 5.0, True, "u"),
                VariableDef(1, 0.0, 1.0, True, "b"),
            ],
            constraints=[
                LinearConstraint({0: 1.0, 1: 3.0}, LE, 6.0, "cap"),
                LinearConstraint({0: 1.0}, GE, 1.0, "low"),
            ],
            objective={0: 1.0, 1: 1.0},
        )
        before = set()
        for u in range(6):
            for b in (0, 1):
                x = np.array([float(u), float(b)])
                if all(c.satisfied(x) for c in inst.constraints):
                    before.add((u, b))
        out, index_map = binary_expand(inst, [0])
        entry = index_map.entries[0]
        after = set()
        free_cols = [v.index for v in out.variables if v.index != 0]
        for combo in itertools.product((0, 1), repeat=len(free_cols)):
            x = np.zeros(out.num_vars)
            for col, bit in zip(free_cols, combo):
                x[col] = bit
            x[0] = entry.decode(x)  # linking row pins the retained column
            if all(c.satisfied(x) for c in out.constraints):
                after.add((int(round(entry.decode(x))), int(x[1])))
        assert after == before

    def test_bit_weights_stop_at_the_coefficient_limit(self):
        _, index_map = binary_expand(self.target(2 ** 50 - 1), [0])
        assert max(index_map.entries[0].weights) == 2.0 ** 49
        with pytest.raises(ModelError, match=r"u__link.* below 1e\+15"):
            binary_expand(self.target(2 ** 50), [0])  # the weight 2**50 is past 1e15

    def test_errors(self):
        bad = MipInstance(
            name="bad",
            variables=[VariableDef(0, 0.0, INF, True, "u")],
            constraints=[],
            objective={0: 1.0},
        )
        with pytest.raises(ModelError):
            binary_expand(bad, [0])
        neg = MipInstance(
            name="neg",
            variables=[VariableDef(0, -1.0, 3.0, True, "u")],
            constraints=[],
            objective={0: 1.0},
        )
        with pytest.raises(ModelError):
            binary_expand(neg, [0])
        cont = simple_instance()
        with pytest.raises(ModelError):
            binary_expand(cont, [2])  # continuous target


class TestDiscretize:
    def target(self, lo=0.0, hi=1.0):
        return MipInstance(
            name="disc",
            variables=[VariableDef(0, lo, hi, False, "y")],
            constraints=[],
            objective={0: 1.0},
        )

    def test_k_for_p2(self):
        out, index_map = discretize_continuous(self.target(), [0], 2)
        assert len(index_map.entries[0].bit_indices) == 7  # ceil(2 * log2(10))

    def test_p1_grid_error(self):
        out, index_map = discretize_continuous(self.target(), [0], 1)
        entry = index_map.entries[0]
        assert len(entry.bit_indices) == 4
        values = []
        for bits in itertools.product((0, 1), repeat=4):
            x = np.zeros(out.num_vars)
            for bit, col in zip(bits, entry.bit_indices):
                x[col] = bit
            values.append(entry.decode(x))
        values.sort()
        # every point of [0,1] is within 2^-4 < 0.1 of a decoded grid value
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 1001):
            worst = max(worst, min(abs(t - v) for v in values))
        assert worst <= 2.0 ** -4 + 1e-12
        assert worst < 0.1

    def test_scaled_interval(self):
        out, index_map = discretize_continuous(self.target(2.0, 6.0), [0], 1)
        entry = index_map.entries[0]
        decoded = []
        for bits in itertools.product((0, 1), repeat=len(entry.bit_indices)):
            x = np.zeros(out.num_vars)
            for bit, col in zip(bits, entry.bit_indices):
                x[col] = bit
            decoded.append(entry.decode(x))
        assert min(decoded) == pytest.approx(2.0)
        assert max(decoded) <= 6.0
        assert max(decoded) == pytest.approx(6.0 - 4.0 * 2.0 ** -4)

    def test_zero_assignment_feasible(self):
        out, index_map = discretize_continuous(self.target(), [0], 1)
        entry = index_map.entries[0]
        x = np.zeros(out.num_vars)  # all z_k = 0 and y = 0
        link = [c for c in out.constraints if c.name.endswith("__link")]
        assert len(link) == 1
        assert link[0].satisfied(x)

    def test_fixed_target_identity(self):
        out, index_map = discretize_continuous(self.target(1.5, 1.5), [0], 2)
        assert out.num_vars == 1
        assert index_map.entries[0].decode(np.array([1.5])) == pytest.approx(1.5)

    def test_grid_weights_stop_at_the_coefficient_limit(self):
        _, index_map = discretize_continuous(self.target(0.0, 1.9e15), [0], 1)
        assert max(index_map.entries[0].weights) == 9.5e14
        with pytest.raises(ModelError, match=r"y__link.* below 1e\+15"):
            discretize_continuous(self.target(0.0, 2e15), [0], 1)  # the weight 1e15

    def test_errors(self):
        unbounded = MipInstance(
            name="ub",
            variables=[VariableDef(0, 0.0, INF, False, "y")],
            constraints=[],
            objective={0: 1.0},
        )
        with pytest.raises(ModelError):
            discretize_continuous(unbounded, [0], 1)
        with pytest.raises(ModelError):
            discretize_continuous(self.target(), [0], 0)  # precision must be >= 1
