"""Mixed-integer program instances and reformulations.

The core container is :class:`MipInstance`: minimize ``c @ x`` subject to
linear constraints and variable bounds, with designated integer variables.
Instances are treated as immutable; every transform returns a new instance.

The numbers an instance may hold are those HiGHS accepts, checked here once,
so no solver downstream carries its own overflow guard:

* a bound of magnitude ``INFINITE_BOUND`` (1e20) or more reads as an
  infinity of its sign; a lower bound that reads as +inf, an upper one that
  reads as -inf, or a NaN bound is refused;
* a right-hand side must have a magnitude below ``INFINITE_BOUND``;
* a row or objective coefficient must have a magnitude below
  ``LARGE_COEFF`` (1e15).

So every product of a coefficient and a finite bound is below
1e15 * 1e20, and no sum of fewer than 1e270 of them leaves the float range.

:meth:`LinearConstraint.holds_over` is the one row test: over a box for the
engine's classification, and over a point (``satisfied``) everywhere else.

Transforms provided here:

* :func:`add_objective_cutoff` appends the near-optimality constraint
  ``c @ x <= cutoff`` used by solution enumeration.
* :func:`binary_expand` rewrites bounded general integers as weighted sums
  of fresh binaries.
* :func:`discretize_continuous` approximates bounded continuous variables
  on a dyadic grid of binaries to a requested decimal precision.
"""

import json
import math
from dataclasses import dataclass, field, replace

INF = float("inf")
# a row holds within FEAS_TOL of its rhs; an integer column's value is
# integral within INT_TOL of the nearest integer
FEAS_TOL = 1e-6
INT_TOL = 1e-6
# the input contract of the module docstring
INFINITE_BOUND = 1e20
LARGE_COEFF = 1e15

GE = ">="
LE = "<="
EQ = "="
SENSES = (GE, LE, EQ)


class ModelError(ValueError):
    """Raised for structurally invalid instances or transform misuse."""


def _dot(terms, x) -> float:
    """Sum of a * x[j] over (j, a) in terms, added left to right.

    The builtin ``sum`` does the same on Python 3.11 and earlier, but from
    3.12 on it compensates over Python floats, which would move bits.
    """
    total = 0.0
    for j, a in terms:
        total += a * x[j]
    return total


@dataclass(frozen=True)
class VariableDef:
    """One column: bounds plus integrality marker.

    A bound of magnitude ``INFINITE_BOUND`` or more is stored as an infinity
    of its sign. A variable is *binary* when it is integer with bounds
    exactly [0, 1].
    """

    index: int
    lower: float = 0.0
    upper: float = INF
    is_integer: bool = False
    name: str = ""

    def __post_init__(self):
        if self.index < 0:
            raise ModelError(f"variable index must be >= 0, got {self.index}")
        name = self.name or self.index
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ModelError(f"variable {name}: NaN bound")
        if self.lower >= INFINITE_BOUND or self.upper <= -INFINITE_BOUND:
            raise ModelError(f"variable {name}: bounds [{self.lower}, {self.upper}] hold no"
                             f" value of magnitude below {INFINITE_BOUND:g}")
        if self.lower > self.upper:
            raise ModelError(f"variable {name}: lower {self.lower} > upper {self.upper}")
        if self.lower <= -INFINITE_BOUND:
            object.__setattr__(self, "lower", -INF)
        if self.upper >= INFINITE_BOUND:
            object.__setattr__(self, "upper", INF)
        if not self.name:
            object.__setattr__(self, "name", f"x{self.index}")

    @property
    def is_binary(self) -> bool:
        return self.is_integer and self.lower == 0.0 and self.upper == 1.0


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse row ``sum(coeffs[j] * x[j]) sense rhs``."""

    coeffs: dict
    sense: str
    rhs: float
    name: str = ""

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ModelError(f"constraint {self.name!r}: unknown sense {self.sense!r}")
        # one comparison per value, which also fails an infinity or a NaN
        if not abs(self.rhs) < INFINITE_BOUND:
            raise ModelError(f"constraint {self.name!r}: right-hand side {self.rhs} is not"
                             f" finite below {INFINITE_BOUND:g} in magnitude")
        for j, a in self.coeffs.items():
            if a == 0.0:
                raise ModelError(f"constraint {self.name!r}: zero coefficient on column {j}")
            if not abs(a) < LARGE_COEFF:
                raise ModelError(f"constraint {self.name!r}: coefficient {a} on column {j}"
                                 f" is not finite below {LARGE_COEFF:g} in magnitude")

    def activity(self, x) -> float:
        return _dot(self.coeffs.items(), x)

    def _least(self, lo, hi) -> float:
        """Least activity over the box [lo, hi], added left to right over
        ``coeffs``; ``_least(hi, lo)`` is the greatest."""
        total = 0.0
        for j, a in self.coeffs.items():
            total += a * (lo[j] if a > 0 else hi[j])
        return total

    def holds_over(self, lo, hi) -> bool:
        """The row holds at every point of the box [lo, hi] within FEAS_TOL:
        the least activity of a ``>=`` row, the greatest of a ``<=`` row, and
        both of an equality are tested. The one row test of the package.

        Each product has a fixed factor and the sum a fixed order, both
        monotone in IEEE arithmetic, so a row that holds over a box holds at
        every point of it as ``satisfied`` computes, and over every box
        inside it. The comparisons fail a NaN activity (an unbounded box).
        """
        if self.sense != LE and not self._least(lo, hi) >= self.rhs - FEAS_TOL:
            return False
        return self.sense == GE or self._least(hi, lo) <= self.rhs + FEAS_TOL

    def satisfied(self, x) -> bool:
        """The row holds at x within FEAS_TOL: ``holds_over(x, x)``, whose
        sums are ``activity(x)`` bit for bit; an equality is tested on both
        sides."""
        return self.holds_over(x, x)


@dataclass
class MipInstance:
    """Minimization MIP over bounded variables.

    ``objective`` maps column index to cost, each of magnitude below
    ``LARGE_COEFF``: ``add_objective_cutoff`` copies the objective into a
    row, so costs are held to the row limit, stricter than HiGHS's 1e20 on
    costs. ``objective_negated`` records that the source model was a
    maximization negated at ingestion; report layers un-negate values for
    display but all internals minimize.
    """

    name: str
    variables: list
    constraints: list
    objective: dict
    objective_name: str = "OBJ"
    objective_negated: bool = False

    def __post_init__(self):
        seen = set()
        for pos, v in enumerate(self.variables):
            if v.index != pos:
                raise ModelError(f"variable {v.name!r} has index {v.index}, expected {pos}")
            if v.name in seen:
                raise ModelError(f"duplicate variable name {v.name!r}")
            seen.add(v.name)
        d = len(self.variables)
        for con in self.constraints:
            for j in con.coeffs:
                if not 0 <= j < d:
                    raise ModelError(f"constraint {con.name!r} references unknown column {j}")
        for j, c in self.objective.items():
            if not 0 <= j < d:
                raise ModelError(f"objective references unknown column {j}")
            if not abs(c) < LARGE_COEFF:
                raise ModelError(f"objective {self.objective_name!r}: coefficient {c} on"
                                 f" column {self.variables[j].name} is not finite below"
                                 f" {LARGE_COEFF:g} in magnitude")

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def integer_index(self) -> list:
        """Indices of all integer variables, ascending."""
        return [v.index for v in self.variables if v.is_integer]

    @property
    def binary_index(self) -> list:
        """Indices of binary variables (integer with bounds [0, 1]), ascending."""
        return [v.index for v in self.variables if v.is_binary]

    def objective_value(self, x) -> float:
        return float(_dot(self.objective.items(), x))

    def reported_objective(self, value: float) -> float:
        """Objective in the sense of the source model (un-negated)."""
        return -value if self.objective_negated else value

    def bounds(self):
        """(lower, upper) bound lists over all columns."""
        return [v.lower for v in self.variables], [v.upper for v in self.variables]

    def to_json(self) -> str:
        """Canonical JSON dump with fields {name, vars, cons, obj}.

        Infinite bounds serialize as null.
        """

        def _b(x):
            return None if math.isinf(x) else x

        doc = {
            "name": self.name,
            "vars": [
                {
                    "name": v.name,
                    "index": v.index,
                    "lower": _b(v.lower),
                    "upper": _b(v.upper),
                    "integer": v.is_integer,
                }
                for v in self.variables
            ],
            "cons": [
                {
                    "name": c.name,
                    "coeffs": {str(j): c.coeffs[j] for j in sorted(c.coeffs)},
                    "sense": c.sense,
                    "rhs": c.rhs,
                }
                for c in self.constraints
            ],
            "obj": {
                "name": self.objective_name,
                "coeffs": {str(j): self.objective[j] for j in sorted(self.objective)},
                "sense": "min",
                "negated": self.objective_negated,
            },
        }
        return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class CutoffSpec:
    """Near-optimality threshold: admit x with c @ x <= cutoff_value.

    cutoff_value = z_star + q * |z_star|, which is (1 + q) * z_star for
    z_star >= 0 and tightens toward z_star from above for negative optima.
    A zero optimum admits only alternate optima regardless of q.
    """

    z_star: float
    q: float
    cutoff_value: float = field(init=False)

    def __post_init__(self):
        if self.q < 0:
            raise ModelError(f"q must be nonnegative, got {self.q}")
        object.__setattr__(self, "cutoff_value", self.z_star + self.q * abs(self.z_star))


CUTOFF_ROW = "__cutoff__"


def add_objective_cutoff(instance: MipInstance, z_star: float, q: float) -> MipInstance:
    """Append the constraint ``objective <= z_star + q * |z_star|``.

    The objective itself is retained so node bounds stay meaningful.
    """
    spec = CutoffSpec(z_star, q)
    if not instance.objective:
        raise ModelError("cannot add an objective cutoff to an instance with an empty objective")
    row = LinearConstraint(
        coeffs=dict(instance.objective),
        sense=LE,
        rhs=spec.cutoff_value,
        name=CUTOFF_ROW,
    )
    return replace(instance, constraints=list(instance.constraints) + [row])


@dataclass(frozen=True)
class Expansion:
    """Recipe recovering one original variable from replacement binaries."""

    kind: str  # "identity" | "binary" | "dyadic"
    bit_indices: tuple = ()
    weights: tuple = ()
    offset: float = 0.0

    def decode(self, x) -> float:
        if self.kind == "identity":
            return float(x[self.bit_indices[0]]) if self.bit_indices else self.offset
        return self.offset + _dot(zip(self.bit_indices, self.weights), x)


@dataclass
class IndexMap:
    """Maps original variable indices to their replacement bit columns."""

    entries: dict

    def decode(self, x) -> dict:
        """Original-index -> value, reconstructed from the bit columns of x."""
        return {j: e.decode(x) for j, e in self.entries.items()}


def binary_expand(instance: MipInstance, targets) -> tuple:
    """Rewrite bounded general integers as sums of fresh binaries.

    Each target with bounds [l, u], 0 <= l <= u < inf, keeps its column
    (reclassified continuous) and gains M fresh binaries b_0..b_{M-1} with
    M minimal such that u <= 2**M - 1, a linking equality
    ``x = sum 2**j * b_j``, and, when u < 2**M - 1, an upper-bound row
    ``sum 2**j * b_j <= u`` clipping unused bit patterns.

    A target that is already binary (u = 1, l = 0) is left untouched.

    Returns (new instance, IndexMap).
    """
    targets = sorted(set(targets))
    by_index = {v.index: v for v in instance.variables}
    for j in targets:
        if j not in by_index:
            raise ModelError(f"binary_expand: unknown column {j}")
        v = by_index[j]
        if not v.is_integer:
            raise ModelError(f"binary_expand: {v.name} is not an integer variable")
        if v.lower < 0:
            raise ModelError(f"binary_expand: {v.name} has a negative lower bound")
        if math.isinf(v.upper):
            raise ModelError(f"binary_expand: {v.name} is unbounded above")

    variables = list(instance.variables)
    constraints = list(instance.constraints)
    entries = {}
    for j in targets:
        v = by_index[j]
        u = int(round(v.upper))
        if v.is_binary or u == 0:
            entries[j] = Expansion(kind="identity", bit_indices=(j,))
            continue
        m = u.bit_length()  # smallest M with u <= 2**M - 1
        bits = []
        weights = []
        for k in range(m):
            idx = len(variables)
            variables.append(
                VariableDef(index=idx, lower=0.0, upper=1.0, is_integer=True, name=f"{v.name}__b{k}")
            )
            bits.append(idx)
            weights.append(float(2**k))
        variables[j] = replace(v, is_integer=False)
        link = {j: 1.0}
        link.update({b: -w for b, w in zip(bits, weights)})
        constraints.append(LinearConstraint(coeffs=link, sense=EQ, rhs=0.0, name=f"{v.name}__link"))
        if u < 2**m - 1:
            cap = {b: w for b, w in zip(bits, weights)}
            constraints.append(
                LinearConstraint(coeffs=cap, sense=LE, rhs=float(u), name=f"{v.name}__cap")
            )
        entries[j] = Expansion(kind="binary", bit_indices=tuple(bits), weights=tuple(weights))

    return replace(instance, variables=variables, constraints=constraints), IndexMap(entries)


def discretize_continuous(instance: MipInstance, targets, precision_digits: int) -> tuple:
    """Approximate bounded continuous variables on a dyadic binary grid.

    Each target with finite bounds [l, u], l < u, keeps its column and gains
    K binaries z_1..z_K with K = ceil(precision_digits * log2(10)) and a
    linking equality ``x = l + (u - l) * sum 2**-k * z_k``. The grid spacing
    (u - l) * 2**-K keeps the worst-case decode error below
    (u - l) * 10**-precision_digits. Fixed targets (l = u) need no bits.

    Returns (new instance, IndexMap).
    """
    if precision_digits < 1:
        raise ModelError("precision_digits must be >= 1")
    targets = sorted(set(targets))
    by_index = {v.index: v for v in instance.variables}
    for j in targets:
        if j not in by_index:
            raise ModelError(f"discretize_continuous: unknown column {j}")
        v = by_index[j]
        if v.is_integer:
            raise ModelError(f"discretize_continuous: {v.name} is an integer variable")
        if math.isinf(v.lower) or math.isinf(v.upper):
            raise ModelError(f"discretize_continuous: {v.name} has unbounded range")

    k_bits = math.ceil(precision_digits * math.log(10) / math.log(2))
    variables = list(instance.variables)
    constraints = list(instance.constraints)
    entries = {}
    for j in targets:
        v = by_index[j]
        lo, hi = v.lower, v.upper
        if hi == lo:
            entries[j] = Expansion(kind="identity", bit_indices=(), offset=lo)
            continue
        bits = []
        weights = []
        for k in range(1, k_bits + 1):
            idx = len(variables)
            variables.append(
                VariableDef(index=idx, lower=0.0, upper=1.0, is_integer=True, name=f"{v.name}__z{k}")
            )
            bits.append(idx)
            weights.append((hi - lo) * 2.0**-k)
        link = {j: 1.0}
        link.update({b: -w for b, w in zip(bits, weights)})
        constraints.append(
            LinearConstraint(coeffs=link, sense=EQ, rhs=lo, name=f"{v.name}__link")
        )
        entries[j] = Expansion(kind="dyadic", bit_indices=tuple(bits), weights=tuple(weights), offset=lo)

    return replace(instance, variables=variables, constraints=constraints), IndexMap(entries)
