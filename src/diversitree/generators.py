"""Desk-scale instance builders used by the test-suite and the examples.

All builders are deterministic for a given seed and produce feasible,
bounded instances with integer data so brute-force checks stay exact.
"""

import numpy as np

from .model import EQ, GE, LE, CutoffSpec, LinearConstraint, MipInstance, VariableDef

# how far a brute-force member's objective may exceed the cutoff
CUTOFF_TOL = 1e-9
# near-optimality fraction at which random_binary_instance checks max_sq
CHECK_Q = 0.05


def knapsack_instance(name: str = "knap3") -> MipInstance:
    """Tiny 3-item knapsack: max value under one weight row (stored negated)."""
    values = [6.0, 5.0, 4.0]
    weights = [5.0, 4.0, 3.0]
    variables = [
        VariableDef(index=i, lower=0.0, upper=1.0, is_integer=True, name=f"item{i}")
        for i in range(3)
    ]
    cons = [LinearConstraint(coeffs={i: weights[i] for i in range(3)}, sense=LE, rhs=8.0,
                             name="weight")]
    return MipInstance(
        name=name,
        variables=variables,
        constraints=cons,
        objective={i: -values[i] for i in range(3)},
        objective_negated=True,
    )


def random_binary_instance(seed: int, n_vars: int = 10, n_cons: int = 3,
                           max_sq: int = None) -> MipInstance:
    """Random feasible pure-binary MIP with small integer data.

    Constraints are anchored on a random reference point so the instance is
    never empty. When ``max_sq`` is given, seeds are advanced until the
    near-optimal set at ``CHECK_Q`` stays within that size, keeping
    exhaustive runs fast.
    """
    attempt = seed
    while True:
        rng = np.random.default_rng(attempt)
        c = rng.integers(-9, 10, size=n_vars).astype(float)
        if not c.any():
            c[0] = 1.0
        ref = rng.integers(0, 2, size=n_vars).astype(float)
        cons = []
        for i in range(n_cons):
            nnz = int(rng.integers(2, min(6, n_vars) + 1))
            cols = rng.choice(n_vars, size=nnz, replace=False)
            coefs = rng.integers(-5, 6, size=nnz).astype(float)
            coefs[coefs == 0] = 1.0
            act = float(coefs @ ref[cols])
            sense = LE if rng.integers(0, 2) else GE
            margin = float(rng.integers(0, 3))
            rhs = act + margin if sense == LE else act - margin
            cons.append(
                LinearConstraint(
                    coeffs={int(j): float(a) for j, a in zip(cols, coefs)},
                    sense=sense,
                    rhs=rhs,
                    name=f"c{i}",
                )
            )
        inst = MipInstance(
            name=f"rand{attempt}",
            variables=[
                VariableDef(index=i, lower=0.0, upper=1.0, is_integer=True, name=f"x{i}")
                for i in range(n_vars)
            ],
            constraints=cons,
            objective={i: float(c[i]) for i in range(n_vars) if c[i] != 0.0},
        )
        if max_sq is None:
            return inst
        z, members = brute_force_near_optimal(inst, CHECK_Q)
        if members is not None and 1 <= len(members) <= max_sq:
            return inst
        attempt += 1000003  # jump far so retries stay independent


def two_cluster_instance(n: int, radius: int, q: float = 0.05) -> MipInstance:
    """Feasible set = two complementary Hamming balls, linked by a selector bit.

    Binaries x_1..x_n plus selector s: with s=0 only points with at most
    ``radius`` ones are feasible, with s=1 only points with at least
    n - radius ones. A fixed continuous column shifts the optimum to -K
    with K = n/q, so the cutoff at fraction q admits both balls and the
    bound-ordering pushes plain best-first through the all-zeros ball
    first.
    """
    if not 0 < radius < n / 2:
        raise ValueError("radius must sit strictly between 0 and n/2")
    k_shift = n / q
    variables = [
        VariableDef(index=i, lower=0.0, upper=1.0, is_integer=True, name=f"x{i}")
        for i in range(n)
    ]
    variables.append(VariableDef(index=n, lower=0.0, upper=1.0, is_integer=True, name="side"))
    variables.append(VariableDef(index=n + 1, lower=1.0, upper=1.0, is_integer=False, name="shift"))
    ones = {i: 1.0 for i in range(n)}
    cons = [
        LinearConstraint(coeffs={**ones, n: -float(n)}, sense=LE, rhs=float(radius),
                         name="ball_low"),
        LinearConstraint(coeffs={**ones, n: -float(n - radius)}, sense=GE, rhs=0.0,
                         name="ball_high"),
    ]
    objective = {i: 1.0 for i in range(n)}
    objective[n + 1] = -k_shift
    return MipInstance(
        name=f"cluster_n{n}_r{radius}",
        variables=variables,
        constraints=cons,
        objective=objective,
    )


def mixed_small_instance(name: str = "mixed4") -> MipInstance:
    """Four binaries plus one bounded continuous column; finite near-optimal set."""
    variables = [
        VariableDef(index=i, lower=0.0, upper=1.0, is_integer=True, name=f"b{i}")
        for i in range(4)
    ]
    variables.append(VariableDef(index=4, lower=0.0, upper=2.0, is_integer=False, name="y"))
    cons = [
        LinearConstraint(coeffs={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, sense=GE, rhs=1.0, name="cover"),
        LinearConstraint(coeffs={0: 2.0, 1: 1.0, 4: 1.0}, sense=LE, rhs=3.0, name="mix"),
    ]
    return MipInstance(
        name=name,
        variables=variables,
        constraints=cons,
        objective={0: 1.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 0.5},
    )


def general_integer_instance(name: str = "genint") -> MipInstance:
    """Two general integers and one binary; exercises expansion and ranges."""
    variables = [
        VariableDef(index=0, lower=0.0, upper=5.0, is_integer=True, name="u"),
        VariableDef(index=1, lower=0.0, upper=3.0, is_integer=True, name="v"),
        VariableDef(index=2, lower=0.0, upper=1.0, is_integer=True, name="w"),
    ]
    cons = [
        LinearConstraint(coeffs={0: 1.0, 1: 2.0, 2: 3.0}, sense=LE, rhs=9.0, name="cap"),
        LinearConstraint(coeffs={0: 1.0, 1: 1.0}, sense=GE, rhs=2.0, name="floor"),
    ]
    return MipInstance(
        name=name,
        variables=variables,
        constraints=cons,
        objective={0: 1.0, 1: 1.0, 2: -1.0},
    )


def brute_force_near_optimal(instance: MipInstance, q: float):
    """(z_star, sorted tuple set of integer assignments) by full enumeration.

    Exact oracle for pure-integer instances (continuous columns must be
    fixed): rows are tested by ``LinearConstraint.satisfied``, and a member's
    objective may exceed the cutoff by ``CUTOFF_TOL``. Returns (None, None)
    when infeasible.
    """
    import itertools

    lo, hi = instance.bounds()
    ranges = []
    for v in instance.variables:
        if v.is_integer:
            ranges.append(range(int(lo[v.index]), int(hi[v.index]) + 1))
        else:
            if lo[v.index] != hi[v.index]:
                raise ValueError("brute force needs fixed continuous columns")
            ranges.append((lo[v.index],))
    best = None
    feasible = []
    for combo in itertools.product(*ranges):
        x = np.asarray(combo, dtype=float)
        if all(con.satisfied(x) for con in instance.constraints):
            val = instance.objective_value(x)
            feasible.append((val, combo))
            if best is None or val < best:
                best = val
    if best is None:
        return None, None
    cutoff = CutoffSpec(best, q).cutoff_value
    members = sorted(combo for val, combo in feasible if val <= cutoff + CUTOFF_TOL)
    return best, members
