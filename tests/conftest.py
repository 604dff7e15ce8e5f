"""Shared fixtures and independent oracles.

Every oracle here recomputes the quantity under test from first
principles (plain loops, exhaustive enumeration, or scipy's LP solver)
so package code is never checked against itself.
"""

import itertools
import math
import tempfile

import numpy as np
import pytest
from hypothesis import configuration, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint as ScipyRows, linprog, milp

from diversitree import (
    EQ,
    GE,
    INF,
    LE,
    LinearConstraint,
    MipInstance,
    VariableDef,
    random_binary_instance,
    simplex,
)

# the same examples on every run, and no example database in the checkout
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# Hypothesis still caches the literals of local source files in its home
# directory, ./.hypothesis unless told otherwise; a temporary home, removed at
# exit, keeps the checkout clean
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


# -- diversity oracles (plain double loops) -----------------------------------

def oracle_ham(a, b):
    assert len(a) == len(b)
    total = 0.0
    for x, y in zip(a, b):
        total += abs(float(x) - float(y))
    return total / len(a)


def oracle_dbin(projections):
    rows = [list(r) for r in projections]
    n = len(rows)
    total = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            total += oracle_ham(rows[j], rows[k])
    return 2.0 * total / (n * (n - 1))


def oracle_dall(solutions, ranges):
    sols = [list(r) for r in solutions]
    n = len(sols)
    d = len(sols[0])
    scaled = []
    for i in range(d):
        if ranges[i] <= 0:
            continue
        col = [row[i] for row in sols]
        mean = sum(col) / n
        var = sum((v - mean) ** 2 for v in col) / n
        scaled.append(var / ranges[i])
    assert scaled, "all ranges zero"
    return sum(scaled) / len(scaled)


def oracle_pair_sum(projections, chosen):
    total = 0.0
    chosen = list(chosen)
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            total += oracle_ham(projections[chosen[a]], projections[chosen[b]])
    return total


# -- node-selection oracles (the scalar scorer, one node at a time) -----------

def oracle_partial_diversity(fixed, pool):
    """Mean disagreement of {column: 0/1} fixings (in fixing order) with the
    pool; columns outside ``pool.binary_index`` are skipped."""
    n = len(pool)
    if n == 0 or not fixed:
        return 0.0
    position = {j: k for k, j in enumerate(pool.binary_index)}
    total = 0.0
    width = 0
    for j, val in fixed.items():
        pos = position.get(j)
        if pos is None:
            continue
        ones = pool.ones[pos]
        total += (n - ones) / n if val >= 0.5 else ones / n
        width += 1
    if width == 0:
        return 0.0
    return total / width


def _oracle_clamp(val):
    return min(1.0, max(0.0, val))


def oracle_bounds(nodes):
    """(least, greatest) LP bound over ``nodes``, by a plain loop."""
    least = greatest = nodes[0].lp_bound
    for node in nodes[1:]:
        least = min(least, node.lp_bound)
        greatest = max(greatest, node.lp_bound)
    return least, greatest


def oracle_score(selector, node, pool, bounds, gated=None):
    """The score of one node under ``selector``, by scalar arithmetic.

    ``bounds`` is the open set's (least, greatest) LP bound, as
    ``oracle_bounds`` gives it. The node's fixings are its path decoded to
    {column: value} through ``pool.binary_index``, in path order. ``gated``
    defaults to the selector's gate.
    """
    cfg = selector.config
    rule = cfg.rule.value
    if rule == "dfs":
        return -float(node.id)
    if rule == "brfs":
        return float(node.id)
    if rule == "uct":
        v = selector.visits.get(node.id, 0) or 1
        parent_visits = (selector.visits.get(node.parent_id, 0)
                         if node.parent_id is not None else 0)
        return node.lp_bound + selector.rho * parent_visits / v
    if rule == "he":
        return (1.0 - selector.rho) * node.lp_bound + selector.rho * node.estimate
    least, greatest = bounds
    spread = greatest - least
    if spread <= 0.0 or not math.isfinite(spread):
        lscore = 0.0
    else:
        lscore = _oracle_clamp((node.lp_bound - least) / spread)
    if rule == "bestfs":
        return lscore
    if gated is None:
        gated = selector.gated(pool)
    if gated:
        return lscore
    fixed = {pool.binary_index[t // 2]: t % 2 for t in node.path}
    dval = oracle_partial_diversity(fixed, pool)
    hval = _oracle_clamp(node.depth / selector.max_plunge)
    if not cfg.literal_score:
        dterm, hterm = 1.0 - dval, 1.0 - hval
    else:
        dterm, hterm = dval, hval
    a, b = cfg.alpha, cfg.beta
    if rule in ("dbfs-ab", "diversitree"):
        return (1.0 - a - b) * lscore + a * dterm + b * hterm
    if rule in ("dbfs-a", "dbfs-as", "dbfs-ad"):
        return (1.0 - a) * lscore + a * dterm
    combo = {"dbfs-min": min, "dbfs-max": max,
             "dbfs-prod": lambda d, h: d * h}[rule](dval, hval)
    term = combo if cfg.literal_score else 1.0 - combo
    return (1.0 - a) * lscore + a * term


def oracle_select(selector, nodes, pool):
    """Id of the least ``oracle_score`` over the open set ``nodes``, lowest id
    on ties, by a plain scan."""
    gated = selector.gated(pool)
    bounds = oracle_bounds(nodes)
    best_id, best_score = None, math.inf
    for node in nodes:
        s = oracle_score(selector, node, pool, bounds, gated)
        if s < best_score or (s == best_score and node.id < best_id):
            best_score, best_id = s, node.id
    return best_id


# -- subset search oracles (plain loops over integer Hamming counts) ----------

def oracle_ham_counts(projections):
    rows = [[int(v) for v in r] for r in projections]
    return [[sum(1 for x, y in zip(a, b) if x != y) for b in rows] for a in rows]


def _oracle_extend(dist, chosen, p):
    chosen = list(chosen)
    while len(chosen) < p:
        best, nxt = -1, None
        for i in range(len(dist)):
            if i in chosen:
                continue
            total = sum(dist[i][k] for k in chosen)
            if total > best:
                best, nxt = total, i
        chosen.append(nxt)
    return chosen


def oracle_greedy(dist, p):
    """Farthest pair (first in row-major order), then farthest-in-sum additions."""
    best, seed = -1, (0, 1)
    for i in range(len(dist)):
        for j in range(i + 1, len(dist)):
            if dist[i][j] > best:
                best, seed = dist[i][j], (i, j)
    return _oracle_extend(dist, seed, p)


def oracle_greedy_drop(dist, p):
    chosen = list(range(len(dist)))
    contrib = [sum(row) for row in dist]
    while len(chosen) > p:
        worst = min(chosen, key=lambda i: (contrib[i], i))
        chosen.remove(worst)
        for i in chosen:
            contrib[i] -= dist[i][worst]
    return chosen


def oracle_greedy_from(dist, first, p):
    j = dist[first].index(max(dist[first]))
    if j == first:
        j = (first + 1) % len(dist)
    return _oracle_extend(dist, [first, j], p)


def oracle_swap(dist, chosen, cap_factor=50):
    """Best-improvement swaps, visiting (out, in) in ascending order."""
    chosen = list(chosen)
    for _ in range(cap_factor * len(chosen)):
        best_gain, best_move = 0, None
        for out in sorted(chosen):
            for inc in range(len(dist)):
                if inc in chosen:
                    continue
                gain = 0
                for k in chosen:
                    if k != out:
                        gain += dist[inc][k] - dist[out][k]
                if gain > best_gain:
                    best_gain, best_move = gain, (out, inc)
        if best_move is None:
            break
        out, inc = best_move
        chosen[chosen.index(out)] = inc
    return sorted(chosen)


def oracle_int_pair_sum(dist, chosen):
    chosen = list(chosen)
    return sum(dist[chosen[a]][chosen[b]]
               for a in range(len(chosen)) for b in range(a + 1, len(chosen)))


def oracle_greedy_swap(dist, p):
    """Swap search from every start; the first strictly best optimum wins."""
    starts = [oracle_greedy(dist, p), oracle_greedy_drop(dist, p)]
    starts += [oracle_greedy_from(dist, i, p) for i in range(len(dist))]
    best, best_sum = None, -1
    for start in starts:
        cand = oracle_swap(dist, start)
        val = oracle_int_pair_sum(dist, cand)
        if val > best_sum:
            best, best_sum = cand, val
    return best


def oracle_exact(projections, p):
    """Every p-combination in order: the largest integer pair-sum wins, ties
    go to the smallest sorted row content, equal content to the earliest."""
    rows = [tuple(int(v) for v in r) for r in projections]
    dist = oracle_ham_counts(projections)
    best, best_sum, best_key = None, -1, None
    for combo in itertools.combinations(range(len(rows)), p):
        val = oracle_int_pair_sum(dist, combo)
        key = sorted(rows[i] for i in combo)
        if val > best_sum or (val == best_sum and key < best_key):
            best, best_sum, best_key = list(combo), val, key
    return best


# -- node box oracles ---------------------------------------------------------

def oracle_materialize(root_lo, root_hi, overrides):
    """The root box with {column: (lo, hi)} overrides applied, in fresh arrays."""
    lo = root_lo.copy()
    hi = root_hi.copy()
    for j, (a, b) in overrides.items():
        lo[j], hi[j] = a, b
    return lo, hi


def oracle_least(coeffs, lo, hi):
    """Least of sum(a * x[j]) over the box [lo, hi], added left to right in
    the order of the ``coeffs`` dict."""
    total = 0.0
    for j, a in coeffs.items():
        total += a * (lo[j] if a > 0 else hi[j])
    return total


def oracle_row_holds_over(con, lo, hi, tol):
    """The row holds at the worst point of the box [lo, hi], tested in >=
    form: a <= row negated, an equality as both."""
    negated = ({j: -a for j, a in con.coeffs.items()}, -con.rhs)
    forms = {GE: [(con.coeffs, con.rhs)], LE: [negated],
             EQ: [(con.coeffs, con.rhs), negated]}[con.sense]
    for coeffs, rhs in forms:
        if not oracle_least(coeffs, lo, hi) >= rhs - tol:  # NaN-safe: an unbounded box fails
            return False
    return True


def oracle_is_unrestricted(instance, lo, hi, tol):
    """Every row holds at the worst point of the box [lo, hi]."""
    return all(oracle_row_holds_over(con, lo, hi, tol) for con in instance.constraints)


def oracle_refutes(instance, lo, hi, tol):
    """Some row misses its rhs at the best point of the box [lo, hi] by more
    than tol * max(1 + sum |a|, max(1, max |rhs|)). A side that meets an
    infinite bound sums to an infinity or NaN, which misses nothing."""
    scale = max([1.0] + [abs(con.rhs) for con in instance.constraints])
    for con in instance.constraints:
        margin = tol * max(1.0 + sum(abs(a) for a in con.coeffs.values()), scale)
        least = oracle_least(con.coeffs, lo, hi)
        most = -oracle_least({j: -a for j, a in con.coeffs.items()}, lo, hi)
        if con.sense != GE and least > con.rhs + margin:
            return True
        if con.sense != LE and most < con.rhs - margin:
            return True
    return False


def oracle_wrong_sign(solver, snapshot, lo, hi):
    """The warm start's dual-feasibility test of ``snapshot`` in the
    structural box [lo, hi], column by column as ``SimplexSolver._dual``
    makes it: the movable nonbasic columns whose reduced cost says leaving
    their parked value would pay, positive at upper, negative at a finite
    lower, nonzero otherwise."""
    full_lo, full_hi = solver._bounds(lo, hi)
    state = simplex._Basis(solver.A, solver.c, snapshot.basis)
    wrong = []
    for k in range(solver.n):
        if not state.nonbasic[k] or full_lo[k] == full_hi[k]:
            continue
        r = state.red[k]
        if snapshot.at_upper[k]:
            fails = r > simplex.DUAL_FEAS_TOL
        elif np.isfinite(full_lo[k]):
            fails = r < -simplex.DUAL_FEAS_TOL
        else:
            fails = abs(r) > simplex.DUAL_FEAS_TOL
        if fails:
            wrong.append(k)
    return wrong


def oracle_dual_sum(y, b, red, nonbasic, x, lo, hi):
    """The dual objective as one eager loop: ``y @ b``, then each nonbasic
    column's reduced cost times the bound its sign prices (its value when
    that bound is infinite or the cost is within DUAL_FEAS_TOL of 0), added
    left to right in column order."""
    total = float(y @ b)
    for k in np.flatnonzero(nonbasic).tolist():
        r = red[k]
        if r > simplex.DUAL_FEAS_TOL and np.isfinite(lo[k]):
            at = lo[k]
        elif r < -simplex.DUAL_FEAS_TOL and np.isfinite(hi[k]):
            at = hi[k]
        else:
            at = x[k]
        total += float(r * at)
    return total


# -- LP oracle (scipy HiGHS) ---------------------------------------------------

def scipy_lp(instance, lo=None, hi=None):
    """(status, objective) with integrality dropped; status in
    {optimal, infeasible, unbounded}."""
    d = instance.num_vars
    c = np.zeros(d)
    for j, v in instance.objective.items():
        c[j] = v
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in instance.constraints:
        row = np.zeros(d)
        for j, v in con.coeffs.items():
            row[j] = v
        if con.sense == "<=":
            a_ub.append(row)
            b_ub.append(con.rhs)
        elif con.sense == ">=":
            a_ub.append(-row)
            b_ub.append(-con.rhs)
        else:
            a_eq.append(row)
            b_eq.append(con.rhs)
    lo0, hi0 = instance.bounds()
    lo = np.asarray(lo0, dtype=float) if lo is None else np.asarray(lo, dtype=float)
    hi = np.asarray(hi0, dtype=float) if hi is None else np.asarray(hi, dtype=float)
    res = linprog(
        c,
        A_ub=np.vstack(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.vstack(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"scipy solver trouble: {res.status} {res.message}")


def scipy_milp(instance):
    """(status, objective) of the MIP by scipy's ``milp`` (HiGHS); status in
    {optimal, infeasible, unbounded}."""
    d = instance.num_vars
    c = np.zeros(d)
    for j, v in instance.objective.items():
        c[j] = v
    rows = np.zeros((len(instance.constraints), d))
    lb, ub = [], []
    for i, con in enumerate(instance.constraints):
        for j, v in con.coeffs.items():
            rows[i, j] = v
        lb.append(-np.inf if con.sense == LE else con.rhs)
        ub.append(np.inf if con.sense == GE else con.rhs)
    lo, hi = instance.bounds()
    integrality = np.zeros(d)
    integrality[list(instance.integer_index)] = 1
    res = milp(c, integrality=integrality, bounds=Bounds(lo, hi),
               constraints=[ScipyRows(rows, lb, ub)] if len(rows) else None)
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"scipy solver trouble: {res.status} {res.message}")


# -- exhaustive near-optimal enumeration --------------------------------------

# tolerance of enum_pure_integer on rows and the cutoff, and of
# enum_mixed_projections on the cutoff, where values come from scipy's solver
PURE_TOL = 1e-9
MIXED_TOL = 1e-6


def oracle_row_holds(con, x, tol):
    """Row ``con`` holds at x within ``tol``, by a plain left-to-right loop."""
    act = 0.0
    for j, a in con.coeffs.items():
        act += a * x[j]
    if con.sense == GE:
        return act >= con.rhs - tol
    if con.sense == LE:
        return act <= con.rhs + tol
    return abs(act - con.rhs) <= tol


def enum_pure_integer(instance, q):
    """(z_star, set of integer tuples) for instances whose continuous
    variables are all fixed; returns (None, set()) when infeasible."""
    lo, hi = instance.bounds()
    ranges = []
    for v in instance.variables:
        if v.is_integer:
            ranges.append(range(int(lo[v.index]), int(hi[v.index]) + 1))
        else:
            assert lo[v.index] == hi[v.index], "oracle needs fixed continuous columns"
            ranges.append((lo[v.index],))
    feasible = []
    best = None
    for combo in itertools.product(*ranges):
        x = np.asarray(combo, dtype=float)
        if all(oracle_row_holds(con, x, PURE_TOL) for con in instance.constraints):
            val = instance.objective_value(x)
            feasible.append((val, combo))
            if best is None or val < best:
                best = val
    if best is None:
        return None, set()
    cutoff = best + q * abs(best)
    return best, {combo for val, combo in feasible if val <= cutoff + PURE_TOL}


def enum_mixed_projections(instance, q):
    """(z_star, set of integer-projection tuples admitting a feasible
    continuous completion under the cutoff). Uses scipy for completions."""
    lo, hi = instance.bounds()
    int_idx = instance.integer_index
    cont_idx = [v.index for v in instance.variables if not v.is_integer]
    ranges = [range(int(lo[j]), int(hi[j]) + 1) for j in int_idx]

    def completion_value(assign):
        """Best objective with integers fixed, or None if infeasible."""
        clo = np.asarray(lo, dtype=float).copy()
        chi = np.asarray(hi, dtype=float).copy()
        for j, v in zip(int_idx, assign):
            clo[j] = chi[j] = v
        status, val = scipy_lp(instance, clo, chi)
        return val if status == "optimal" else None

    if not int_idx:
        raise AssertionError("oracle expects at least one integer variable")
    best = None
    vals = {}
    for combo in itertools.product(*ranges):
        val = completion_value(combo)
        if val is not None:
            vals[combo] = val
            if best is None or val < best:
                best = val
    if best is None:
        return None, set()
    cutoff = best + q * abs(best)
    return best, {combo for combo, val in vals.items() if val <= cutoff + MIXED_TOL}


# -- shared fixtures -----------------------------------------------------------

@pytest.fixture(scope="session")
def small_instances():
    """Ten seeded pure-binary instances with manageable near-optimal sets."""
    return [
        random_binary_instance(seed, n_vars=8 + (seed % 5), n_cons=3, max_sq=600)
        for seed in range(10)
    ]


@st.composite
def small_mips(draw, kinds=("binary", "general", "mixed"), big_m=False):
    """A feasible MIP on two to five integer columns, of one of ``kinds``:
    pure binary, general integer, or mixed with one more, continuous column
    whose box may be unbounded (it then costs nothing, so every LP stays
    bounded). Rows of every sense hold at an integer reference point. With
    ``big_m`` one coefficient of each row is ±10^k, k from 3 to 12."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 5))
    variables, ref = [], []
    for j in range(n):
        lo = 0 if kind == "binary" else draw(st.integers(-2, 0))
        hi = lo + (1 if kind == "binary" else draw(st.integers(1, 3)))
        variables.append(VariableDef(j, float(lo), float(hi), True, f"x{j}"))
        ref.append(draw(st.integers(lo, hi)))
    costs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    costs[0] = costs[0] or 1  # a cutoff needs an objective
    objective = {j: float(c) for j, c in enumerate(costs) if c}
    if kind == "mixed":
        lo, hi = draw(st.sampled_from([(-2.0, 3.0), (0.0, INF), (-INF, INF)]))
        variables.append(VariableDef(n, lo, hi, False, "y"))
        ref.append(0)
        if math.isfinite(hi):
            objective[n] = float(draw(st.sampled_from([-2, 1, 3])))
        n += 1
    rows = []
    for k in range(draw(st.integers(1, 3))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {j: float(draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))) for j in cols}
        if big_m:
            sign = draw(st.sampled_from([-1.0, 1.0]))
            coeffs[draw(st.sampled_from(cols))] = sign * 10.0 ** draw(st.integers(3, 12))
        act = sum(a * ref[j] for j, a in coeffs.items())
        sense = draw(st.sampled_from([GE, LE, EQ]))
        margin = 0 if sense == EQ else draw(st.integers(0, 2))
        rows.append(LinearConstraint(coeffs, sense, act - margin if sense == GE else act + margin,
                                     f"r{k}"))
    return MipInstance(name=f"hyp-{kind}", variables=variables, constraints=rows,
                       objective=objective)


def big_m_mips(kinds=("binary", "general")):
    """``small_mips`` with one coefficient of each row at ±10^k, k from 3 to 12."""
    return small_mips(kinds=kinds, big_m=True)


def make_lp(seed, n=6, m=6, integers=False):
    """Random bounded LP/MIP with small integer data and a known feasible box."""
    rng = np.random.default_rng(seed)
    variables = []
    for i in range(n):
        lo = float(rng.integers(-3, 1))
        hi = lo + float(rng.integers(1, 5))
        variables.append(VariableDef(index=i, lower=lo, upper=hi,
                                     is_integer=bool(integers), name=f"v{i}"))
    ref = np.array([rng.uniform(v.lower, v.upper) for v in variables])
    cons = []
    for k in range(m):
        nnz = int(rng.integers(1, n + 1))
        cols = rng.choice(n, size=nnz, replace=False)
        coefs = rng.integers(-4, 5, size=nnz).astype(float)
        coefs[coefs == 0] = 2.0
        act = float(coefs @ ref[cols])
        if k % 3 == 2:
            sense, rhs = EQ, act
        elif rng.integers(0, 2):
            sense, rhs = LE, act + float(rng.integers(0, 4))
        else:
            sense, rhs = GE, act - float(rng.integers(0, 4))
        cons.append(LinearConstraint(
            coeffs={int(j): float(cc) for j, cc in zip(cols, coefs)},
            sense=sense, rhs=rhs, name=f"r{k}"))
    obj = rng.integers(-5, 6, size=n).astype(float)
    return MipInstance(
        name=f"lp{seed}",
        variables=variables,
        constraints=cons,
        objective={i: float(obj[i]) for i in range(n) if obj[i] != 0.0},
    )
