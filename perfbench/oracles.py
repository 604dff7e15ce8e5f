"""Independent checks of the benchmark's outputs.

Nothing here calls the package's own algorithms or metrics: pools are
compared with closed-form sets, ``z*`` with scipy's ``milp`` (HiGHS) where
no closed form exists, and rows, cutoffs, DBin and swap optimality are
recomputed with plain loops over the generated instance, not the parsed
copy the program read.
"""

import itertools
import math

TOL = 1e-6


# -- instances ---------------------------------------------------------------------

def round_trip_problems(source, parsed):
    """Differences in rows, bounds and objective between two instances."""
    problems = []
    if len(source.variables) != len(parsed.variables):
        return [f"{len(parsed.variables)} columns after the round trip, "
                f"{len(source.variables)} before"]
    for a, b in zip(source.variables, parsed.variables):
        if (a.name, a.lower, a.upper, a.is_integer) != (b.name, b.lower, b.upper, b.is_integer):
            problems.append(f"column {a.name}: bounds or type changed in the round trip")
    if len(source.constraints) != len(parsed.constraints):
        problems.append("row count changed in the round trip")
    for a, b in zip(source.constraints, parsed.constraints):
        if (a.name, a.sense, a.rhs, dict(a.coeffs)) != (b.name, b.sense, b.rhs, dict(b.coeffs)):
            problems.append(f"row {a.name} changed in the round trip")
    if dict(source.objective) != dict(parsed.objective):
        problems.append("objective changed in the round trip")
    if source.objective_negated != parsed.objective_negated:
        problems.append("objective sense changed in the round trip")
    return problems


def objective(inst, x):
    total = 0.0
    for j, c in inst.objective.items():
        total += c * x[j]
    return total


def rows_hold(inst, x):
    for con in inst.constraints:
        act = 0.0
        for j, a in con.coeffs.items():
            act += a * x[j]
        if con.sense == "<=" and act > con.rhs + TOL:
            return False
        if con.sense == ">=" and act < con.rhs - TOL:
            return False
        if con.sense == "=" and abs(act - con.rhs) > TOL:
            return False
    return True


def milp_z_star(inst):
    """Optimal value by scipy's MILP solver (HiGHS)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    d = inst.num_vars
    c = np.zeros(d)
    for j, v in inst.objective.items():
        c[j] = v
    rows, lo, hi = [], [], []
    for con in inst.constraints:
        row = np.zeros(d)
        for j, a in con.coeffs.items():
            row[j] = a
        rows.append(row)
        lo.append(con.rhs if con.sense in (">=", "=") else -np.inf)
        hi.append(con.rhs if con.sense in ("<=", "=") else np.inf)
    res = milp(c, constraints=[LinearConstraint(np.array(rows), lo, hi)] if rows else [],
               integrality=np.array([1 if v.is_integer else 0 for v in inst.variables]),
               bounds=Bounds([v.lower for v in inst.variables], [v.upper for v in inst.variables]))
    if res.status != 0:
        raise RuntimeError(f"milp failed on {inst.name}: {res.message}")
    return float(res.fun)


# -- closed-form feasible sets ---------------------------------------------------------

def cluster_points(inst, radius):
    """Every feasible point of a (relabeled) two-cluster instance.

    With side = 0 at most ``radius`` of the x columns are 1; with side = 1
    at most ``radius`` are 0. The shift column is fixed at 1.
    """
    side = _column(inst, "side")
    shift = _column(inst, "shift")
    xs = [v.index for v in inst.variables if v.index not in (side, shift)]
    n = len(xs)
    points = []
    for bits in itertools.product((0, 1), repeat=n):
        ones = sum(bits)
        for s in (0, 1):
            if (s == 0 and ones <= radius) or (s == 1 and ones >= n - radius):
                x = [0.0] * inst.num_vars
                for j, b in zip(xs, bits):
                    x[j] = float(b)
                x[side] = float(s)
                x[shift] = 1.0
                points.append(x)
    return points


def box_points(inst):
    """Every point of a box instance: all binaries free, the shift column at 1."""
    shift = _column(inst, "shift")
    bins = [v.index for v in inst.variables if v.index != shift]
    points = []
    for bits in itertools.product((0, 1), repeat=len(bins)):
        x = [0.0] * inst.num_vars
        for j, b in zip(bins, bits):
            x[j] = float(b)
        x[shift] = 1.0
        points.append(x)
    return points


def _column(inst, name):
    for v in inst.variables:
        if v.name == name:
            return v.index
    raise ValueError(f"no column named {name}")


def near_optimal(inst, points, q):
    """(z*, the points within the cutoff z* + q|z*|) over a full feasible set."""
    values = [objective(inst, x) for x in points]
    z = min(values)
    cutoff = z + q * abs(z)
    return z, [x for x, v in zip(points, values) if v <= cutoff + TOL]


# -- diversity -----------------------------------------------------------------------

def hamming(a, b):
    return sum(1 for u, v in zip(a, b) if u != v)


def pairwise_dbin(rows):
    """Mean normalized Hamming distance over all pairs, by a double loop."""
    n, width = len(rows), len(rows[0])
    total = 0
    for i in range(n):
        for k in range(i + 1, n):
            total += hamming(rows[i], rows[k])
    return 2.0 * total / (width * n * (n - 1))


def bitcount_dbin(rows):
    """The same mean, counted per bit: a pair differs on a bit once per
    (one, zero) pair. Linear in the pool, for pools too big for pairs."""
    n, width = len(rows), len(rows[0])
    ones = [0] * width
    for r in rows:
        for k, b in enumerate(r):
            ones[k] += b
    return 2.0 * sum(o * (n - o) for o in ones) / (width * n * (n - 1))


def improving_swap(rows, chosen):
    """A (out, in) swap that raises the subset's integer pair-sum, or None."""
    chosen = list(chosen)
    inside = set(chosen)
    for out in chosen:
        for inc in range(len(rows)):
            if inc in inside:
                continue
            gain = 0
            for k in chosen:
                if k != out:
                    gain += hamming(rows[inc], rows[k]) - hamming(rows[out], rows[k])
            if gain > 0:
                return out, inc
    return None


# -- one operation -------------------------------------------------------------------------

def check_pool(op, sols, objs, z_star, expected):
    """(problems, binary projections) of a pool: bounds, rows, cutoff,
    objectives, duplicates and, where the feasible set is known (``expected``,
    a set of integer tuples), membership or equality."""
    src = op.source
    columns = [(v.index, v.lower, v.upper, v.is_integer) for v in src.variables]
    bits = [v.index for v in src.variables
            if v.is_integer and v.lower == 0.0 and v.upper == 1.0]
    cutoff = z_star + op.spec.q * abs(z_star)
    problems, rows, seen, got = [], [], set(), set()
    for i, x in enumerate(sols):
        key = tuple(map(round, x))
        got.add(key)
        for j, lo, hi, integer in columns:
            if x[j] < lo - TOL or x[j] > hi + TOL or (integer and abs(x[j] - round(x[j])) > TOL):
                problems.append(f"pool member {i} breaks the bounds of column {j}")
        if not rows_hold(src, x):
            problems.append(f"pool member {i} breaks a row")
        val = objective(src, x)
        if val > cutoff + TOL:
            problems.append(f"pool member {i} has objective {val} above the cutoff {cutoff}")
        if abs(val - objs[i]) > TOL:
            problems.append(f"pool member {i}: objective {objs[i]} reported, {val} computed")
        row = tuple([key[j] for j in bits])
        if row in seen:
            problems.append(f"pool member {i} repeats a binary projection")
        seen.add(row)
        rows.append(row)
        if len(problems) > 10:
            return problems, rows
    if expected is not None:
        if not got <= expected:
            problems.append(f"{len(got - expected)} pool members are outside the closed-form set")
        full = op.spec.p1 is None and not op.time_limited
        if full and got != expected:
            problems.append(f"pool has {len(got)} members, the closed form {len(expected)}")
    return problems, rows


def as_keys(points):
    return {tuple(map(round, x)) for x in points}


def check_subset(rows, chosen, p, reported_dbin):
    problems = []
    if len(set(chosen)) != len(chosen) or len(chosen) != min(p, len(rows)):
        problems.append(f"subset {chosen} is not {min(p, len(rows))} distinct members")
        return problems
    if any(not 0 <= i < len(rows) for i in chosen):
        return [f"subset {chosen} indexes outside the pool"]
    want = pairwise_dbin([rows[i] for i in chosen])
    if not math.isclose(want, reported_dbin, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"subset DBin {reported_dbin} reported, {want} recomputed")
    swap = improving_swap(rows, chosen)
    if swap is not None:
        problems.append(f"swapping {swap[0]} for {swap[1]} raises the subset's pair-sum")
    return problems
