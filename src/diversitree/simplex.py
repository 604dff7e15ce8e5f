"""Bounded-variable primal/dual simplex over dense arrays.

Solves ``min c @ x  s.t.  rows, l <= x <= u`` for one instance whose matrix
is built once; per-call bound overrides support branch-and-bound nodes.
Rows become equalities with signed slacks, a two-phase primal method with
explicit artificials handles cold solves, and a bounded dual simplex
reoptimizes from a parent basis after bound tightenings (falling back to a
cold solve on any trouble, so results are identical either way).

Pivoting is deterministic: Dantzig pricing with lowest-index tie-breaks,
switching to Bland's rule after a run of degenerate pivots. Every optimal
solve carries a reconstructed dual objective so callers can verify weak
duality.

Pricing and ratio tests run over numpy masks: one vectorized pass marks the
eligible columns or rows and computes their scores, ratios or step limits,
and only the few survivors go through the sequential tie loop (ties within
PIVOT_TOL go to the lowest column). Every comparison and every value is the
one a plain loop over all columns would make, so pivots, iteration counts and
result bits do not depend on the vectorization.

Warm solves revisit few bases, so each solver keeps a memo per basis
(``_Basis``): ``B``, the duals ``y``, the reduced costs and their sign masks,
the nonbasic mask, each pivot row used and every basic solution
``solve(B, rhs)`` already made, keyed on the bytes of ``rhs``. An entry is
the output of the same ``np.linalg.solve`` or numpy call on the same inputs
that a solve from scratch makes, so reading it gives the same bits; a
matrix is never factored once and reused, which would round differently.
Cached arrays are read-only, and the memo is dropped whole once it holds
``MEMO_BYTES``. A nonbasic column always sits exactly at its
lower bound, at its upper bound, or at 0 when free, which is what lets
"parked at upper" be read as ``x == hi``.
"""

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import EQ, FEAS_TOL, GE, INT_TOL, LE, MipInstance

log = logging.getLogger("diversitree.simplex")

PIVOT_TOL = 1e-9
DUAL_FEAS_TOL = 1e-7
# most bytes of arrays one solver caches for warm solves; past it the whole
# memo is dropped, so memory does not grow with the number of nodes
MEMO_BYTES = 1 << 20


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    STALLED = "stalled"


@dataclass(frozen=True)
class BasisSnapshot:
    """Restart point: basic column set plus nonbasic columns parked at upper."""

    basis: tuple
    at_upper: frozenset


@dataclass
class LpResult:
    status: LpStatus
    objective: float = None
    x: np.ndarray = None  # structural values only
    fractional: list = None  # integer columns off the grid at INT_TOL
    dual_objective: float = None
    basis: BasisSnapshot = None
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == LpStatus.OPTIMAL


class _Stalled(Exception):
    pass


class _Singular(Exception):
    pass


def _read_only(*arrays) -> int:
    """Mark arrays read-only; return their total size in bytes."""
    for a in arrays:
        a.flags.writeable = False
    return sum(a.nbytes for a in arrays)


class _Basis:
    """What the warm dual simplex reads of one basis, computed once.

    Every array is made by the numpy call, on the same inputs, that a solve
    from scratch would make, so reading it here changes no bit. All are
    read-only. ``rows`` and ``solved`` are filled in on first use.
    """

    def __init__(self, A, c, basis):
        self.B = A[:, basis]
        self.y = np.linalg.solve(self.B.T, c[basis])
        self.red = c - A.T @ self.y
        self.nonbasic = np.ones(A.shape[1], dtype=bool)
        self.nonbasic[basis] = False
        self.A_N = A[:, self.nonbasic]
        self.abs_red = np.abs(self.red)
        self.red_pos = self.red > DUAL_FEAS_TOL
        self.red_neg = self.red < -DUAL_FEAS_TOL
        self.nbytes = _read_only(self.B, self.y, self.red, self.nonbasic, self.A_N,
                                 self.abs_red, self.red_pos, self.red_neg)
        self.rows = {}  # leaving position -> (alpha > PIVOT_TOL, alpha < -PIVOT_TOL, |alpha|)
        self.solved = {}  # rhs bytes -> solve(B, rhs)


class SimplexSolver:
    """Reusable solver for one instance's LP relaxation."""

    def __init__(self, instance: MipInstance):
        self.instance = instance
        d = instance.num_vars
        m = len(instance.constraints)
        self.d = d
        self.m = m
        self.n = d + m  # structural + slack columns
        self._iter_cap = 500 + 100 * self.n  # more pivots than this is a stall

        self.A = np.zeros((m, self.n))
        self.b = np.zeros(m)
        slack_lo = np.zeros(m)
        slack_hi = np.zeros(m)
        for i, con in enumerate(instance.constraints):
            for j, a in con.coeffs.items():
                self.A[i, j] = a
            self.A[i, d + i] = 1.0
            self.b[i] = con.rhs
            if con.sense == LE:
                slack_lo[i], slack_hi[i] = 0.0, np.inf
            elif con.sense == GE:
                slack_lo[i], slack_hi[i] = -np.inf, 0.0
            else:
                slack_lo[i], slack_hi[i] = 0.0, 0.0

        lo_s, hi_s = instance.bounds()
        self.base_lo = np.concatenate([np.asarray(lo_s, dtype=float), slack_lo])
        self.base_hi = np.concatenate([np.asarray(hi_s, dtype=float), slack_hi])
        self.c = np.zeros(self.n)
        for j, v in instance.objective.items():
            self.c[j] = v
        self.integer_index = np.asarray(instance.integer_index, dtype=int)
        self._bases = {}  # basis index bytes -> _Basis
        self._parked = {}  # snapshot at_upper -> bool mask
        self._memo_bytes = 0

    # -- public API ---------------------------------------------------------

    def solve(self, lo=None, hi=None) -> LpResult:
        """Cold two-phase solve under optional structural bound overrides."""
        full_lo, full_hi = self._bounds(lo, hi)
        if (full_lo > full_hi + FEAS_TOL).any():
            return LpResult(status=LpStatus.INFEASIBLE)
        return self._cold(full_lo, full_hi)

    def resolve(self, snapshot: BasisSnapshot, lo=None, hi=None) -> LpResult:
        """Reoptimize from a parent basis after bound changes.

        Pure performance path: the result contract is identical to
        :meth:`solve`, and any numerical trouble falls back to a cold solve.
        """
        full_lo, full_hi = self._bounds(lo, hi)
        if (full_lo > full_hi + FEAS_TOL).any():
            return LpResult(status=LpStatus.INFEASIBLE)
        if snapshot is None:
            return self._cold(full_lo, full_hi)
        try:
            return self._dual(snapshot, full_lo, full_hi)
        except (_Stalled, _Singular, np.linalg.LinAlgError):
            log.debug("warm start fell back to a cold solve")
            return self._cold(full_lo, full_hi)

    # -- shared pieces ------------------------------------------------------

    def _bounds(self, lo, hi):
        full_lo = self.base_lo.copy()
        full_hi = self.base_hi.copy()
        if lo is not None:
            full_lo[: self.d] = lo
        if hi is not None:
            full_hi[: self.d] = hi
        return full_lo, full_hi

    def _basic_values(self, A, B, nonbasic, x):
        """Values of the basic columns (B = A[:, basis]) with the rest held at x."""
        rhs = self.b - A[:, nonbasic] @ x[nonbasic]
        return np.linalg.solve(B, rhs)

    def _result(self, A, basis, x, lo, hi, iterations, priced=None) -> LpResult:
        """Optimal result; ``priced`` may pass (y, reduced costs) already solved
        for this exact basis."""
        xs = x[: self.d]
        obj = float(self.c[: self.d] @ xs)
        if priced is None:
            c_ext = np.zeros(A.shape[1])
            c_ext[: self.n] = self.c
            y = np.linalg.solve(A[:, basis].T, c_ext[basis])
            red = c_ext - A.T @ y
        else:
            y, red = priced
        nonbasic = np.ones(A.shape[1], dtype=bool)
        nonbasic[basis] = False
        # each nonbasic column's reduced cost times the bound its sign prices,
        # added to y @ b in column order
        r, lo_n, hi_n = red[nonbasic], lo[nonbasic], hi[nonbasic]
        at = np.where((r > DUAL_FEAS_TOL) & np.isfinite(lo_n), lo_n,
                      np.where((r < -DUAL_FEAS_TOL) & np.isfinite(hi_n), hi_n, x[nonbasic]))
        dual_obj = float(y @ self.b)
        for term in (r * at).tolist():
            dual_obj += term
        ints = self.integer_index
        vals = xs[ints]
        frac = ints[np.abs(vals - np.rint(vals)) > INT_TOL].tolist()
        snapshot = None
        cols = np.asarray(basis)
        if (cols < self.n).all():
            n = self.n
            up = nonbasic[:n] & (x[:n] == hi[:n]) & (lo[:n] != hi[:n])  # parked at upper
            snapshot = BasisSnapshot(basis=tuple(cols.tolist()),
                                     at_upper=frozenset(up.nonzero()[0].tolist()))
        return LpResult(
            status=LpStatus.OPTIMAL,
            objective=obj,
            x=xs.copy(),
            fractional=frac,
            dual_objective=dual_obj,
            basis=snapshot,
            iterations=iterations,
        )

    # -- primal simplex -----------------------------------------------------

    def _primal(self, A, c, lo, hi, basis, x):
        """Iterate to optimality from a primal-feasible basis.

        Returns (status, iterations); basis and x are updated in place.
        """
        n_cols = A.shape[1]
        movable = lo != hi
        finite_lo = np.isfinite(lo)
        finite_hi = np.isfinite(hi)
        free = ~finite_lo & ~finite_hi
        bland = False
        degenerate = 0
        it = 0
        while True:
            if it > self._iter_cap:
                raise _Stalled()
            it += 1
            B = A[:, basis]
            nonbasic = np.ones(n_cols, dtype=bool)
            nonbasic[basis] = False
            xb = self._basic_values(A, B, nonbasic, x)
            x[basis] = xb
            y = np.linalg.solve(B.T, c[basis])
            red = c - A.T @ y

            # pricing: a free column moves against its cost sign, one parked
            # at upper pays when its cost is positive, any other when negative
            at_up = finite_hi & (np.abs(x - hi) < np.abs(x - lo))
            score = np.where(free, np.abs(red), np.where(at_up, red, -red))
            eligible = nonbasic & movable & (score > DUAL_FEAS_TOL)
            if not eligible.any():
                return LpStatus.OPTIMAL, it
            if bland:  # first improving column
                enter = int(np.argmax(eligible))
            else:  # Dantzig: first column of the largest score
                enter = int(np.argmax(np.where(eligible, score, -np.inf)))
            if free[enter]:
                direction = 1.0 if red[enter] < 0 else -1.0
            else:
                direction = -1.0 if at_up[enter] else 1.0

            w = np.linalg.solve(B, A[:, enter])
            step = np.inf
            leave_pos = -1
            leave_to_upper = False
            if finite_lo[enter] and finite_hi[enter]:
                step = hi[enter] - lo[enter]  # bound flip
            # rows whose basic variable the move drives toward a finite bound
            rate = direction * w
            lo_b, hi_b, x_b = lo[basis], hi[basis], x[basis]
            falls = (rate > PIVOT_TOL) & np.isfinite(lo_b)
            rises = (rate < -PIVOT_TOL) & np.isfinite(hi_b)
            rows = (falls | rises).nonzero()[0]
            limit = (x_b[rows] - np.where(falls, lo_b, hi_b)[rows]) / rate[rows]
            limit = np.where(0.0 > limit, 0.0, limit)  # max(limit, 0.0)
            # sequential pass: ties within PIVOT_TOL go to the lowest basic column
            for k, lim, to_upper in zip(rows.tolist(), limit.tolist(), rises[rows].tolist()):
                bk = basis[k]
                if lim < step - PIVOT_TOL or (
                    lim < step + PIVOT_TOL
                    and leave_pos >= 0
                    and bk < basis[leave_pos]
                ):
                    step = lim
                    leave_pos = k
                    leave_to_upper = to_upper
            if not np.isfinite(step):
                return LpStatus.UNBOUNDED, it
            if step <= PIVOT_TOL:
                degenerate += 1
                if degenerate > 2 * self.n:
                    bland = True
            if leave_pos < 0:
                # entering variable flips to its opposite bound
                x[enter] = hi[enter] if direction > 0 else lo[enter]
                continue
            leaving = basis[leave_pos]
            x[leaving] = hi[leaving] if leave_to_upper else lo[leaving]
            x[enter] = x[enter] + direction * step
            basis[leave_pos] = enter

    def _cold(self, lo, hi) -> LpResult:
        n_cols = self.n + self.m
        A = np.zeros((self.m, n_cols))
        A[:, : self.n] = self.A
        x = np.zeros(n_cols)
        x[: self.n] = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        resid = self.b - A[:, : self.n] @ x[: self.n]
        rows = np.arange(self.m)
        A[rows, self.n + rows] = np.where(resid >= 0, 1.0, -1.0)
        x[self.n :] = np.abs(resid)
        lo_ext = np.concatenate([lo, np.zeros(self.m)])
        hi_ext = np.concatenate([hi, np.full(self.m, np.inf)])
        basis = list(range(self.n, n_cols))

        c1 = np.zeros(n_cols)
        c1[self.n :] = 1.0
        try:
            status, it1 = self._primal(A, c1, lo_ext, hi_ext, basis, x)
        except _Stalled:
            return LpResult(status=LpStatus.STALLED)
        except np.linalg.LinAlgError:
            return LpResult(status=LpStatus.STALLED)
        if status != LpStatus.OPTIMAL:  # phase 1 is bounded below by zero
            return LpResult(status=LpStatus.STALLED, iterations=it1)
        scale = max(1.0, float(np.max(np.abs(self.b))) if self.m else 1.0)
        if float(c1 @ x) > FEAS_TOL * scale:
            return LpResult(status=LpStatus.INFEASIBLE, iterations=it1)

        # Pivot leftover artificials out where a real column can replace them.
        basic = np.zeros(n_cols, dtype=bool)
        basic[basis] = True
        for k in range(self.m):
            if basis[k] < self.n:
                continue
            B = A[:, basis]
            replaced = False
            for j in range(self.n):
                if basic[j] or lo_ext[j] == hi_ext[j]:
                    continue
                w = np.linalg.solve(B, A[:, j])
                if abs(w[k]) > 1e-7:
                    old = basis[k]
                    basis[k] = j  # degenerate swap, values recomputed next iteration
                    basic[old] = False
                    basic[j] = True
                    x[old] = 0.0
                    replaced = True
                    break
            if not replaced:
                hi_ext[basis[k]] = 0.0  # redundant row: freeze its artificial

        lo_ext[self.n :] = 0.0
        hi_ext[self.n :] = 0.0
        c2 = np.zeros(n_cols)
        c2[: self.n] = self.c
        try:
            status, it2 = self._primal(A, c2, lo_ext, hi_ext, basis, x)
        except _Stalled:
            return LpResult(status=LpStatus.STALLED)
        except np.linalg.LinAlgError:
            return LpResult(status=LpStatus.STALLED)
        if status == LpStatus.UNBOUNDED:
            return LpResult(status=LpStatus.UNBOUNDED, iterations=it1 + it2)
        nonbasic = np.ones(n_cols, dtype=bool)
        nonbasic[basis] = False
        x[basis] = self._basic_values(A, A[:, basis], nonbasic, x)
        return self._result(A, basis, x, lo_ext, hi_ext, it1 + it2)

    # -- dual simplex (warm start) -------------------------------------------

    def _keep(self, table, key, value, nbytes):
        """Cache ``value`` and count its bytes; past MEMO_BYTES, forget every basis."""
        table[key] = value
        self._memo_bytes += nbytes
        if self._memo_bytes > MEMO_BYTES:
            self._bases.clear()
            self._parked.clear()
            self._memo_bytes = 0

    def _basis(self, basis) -> _Basis:
        """The cached state of ``basis`` (an index array), made on first sight."""
        key = basis.tobytes()
        state = self._bases.get(key)
        if state is None:
            state = _Basis(self.A, self.c, basis)
            self._keep(self._bases, key, state, state.nbytes + len(key))
        return state

    def _upper_mask(self, at_upper: frozenset):
        """The snapshot's parked-at-upper set as a read-only bool mask."""
        mask = self._parked.get(at_upper)
        if mask is None:
            mask = np.zeros(self.n, dtype=bool)
            mask[list(at_upper)] = True
            self._keep(self._parked, at_upper, mask, _read_only(mask))
        return mask

    def _memo_basic(self, state: _Basis, x):
        """Values of the basic columns with the nonbasic ones held at x."""
        rhs = self.b - state.A_N @ x[state.nonbasic]
        key = rhs.tobytes()
        xb = state.solved.get(key)
        if xb is None:
            xb = np.linalg.solve(state.B, rhs)
            self._keep(state.solved, key, xb, _read_only(xb) + len(key))
        return xb

    def _memo_row(self, state: _Basis, k):
        """Masks and magnitude of the pivot row ``alpha = solve(B.T, e_k) @ A``."""
        masks = state.rows.get(k)
        if masks is None:
            e_k = np.zeros(self.m)
            e_k[k] = 1.0
            alpha = np.linalg.solve(state.B.T, e_k) @ self.A
            masks = (alpha > PIVOT_TOL, alpha < -PIVOT_TOL, np.abs(alpha))
            self._keep(state.rows, k, masks, _read_only(*masks))
        return masks

    def _dual(self, snapshot: BasisSnapshot, lo, hi) -> LpResult:
        basis = np.asarray(snapshot.basis, dtype=np.intp)
        if len(basis) != self.m or len(set(snapshot.basis)) != self.m:
            raise _Singular()
        at_upper = self._upper_mask(snapshot.at_upper)
        finite_lo = np.isfinite(lo)
        movable = lo != hi
        free = ~finite_lo & ~np.isfinite(hi)
        # nonbasic columns park at upper when the snapshot says so, else at a
        # finite bound, else at 0
        x = np.where(at_upper, hi, np.where(finite_lo, lo, np.where(free, 0.0, hi)))
        x[basis] = 0.0
        if not np.isfinite(x).all():
            raise _Singular()

        state = self._basis(basis)
        # |red| > DUAL_FEAS_TOL is exactly red_pos | red_neg
        wrong_sign = np.where(at_upper, state.red_pos,
                              np.where(finite_lo, state.red_neg,
                                       state.red_pos | state.red_neg))
        if (wrong_sign & state.nonbasic & movable).any():
            raise _Singular()  # parent basis is not dual feasible here

        # A position is chosen only if its violation beats the running worst
        # (which starts at FEAS_TOL) or comes within PIVOT_TOL of it; each of
        # at most 2m choices lowers the worst by under PIVOT_TOL, so no chosen
        # violation is at or below this floor.
        floor = FEAS_TOL - 2 * self.m * PIVOT_TOL
        it = 0
        while True:
            if it > self._iter_cap:
                raise _Stalled()
            it += 1
            xb = self._memo_basic(state, x)
            x[basis] = xb

            under = lo[basis] - xb
            over = xb - hi[basis]
            leave_pos = -1
            worst = FEAS_TOL
            below = False
            for k in ((under > floor) | (over > floor)).nonzero()[0].tolist():
                bk = basis[k]
                if under[k] > worst or (
                    under[k] > worst - PIVOT_TOL and leave_pos >= 0 and bk < basis[leave_pos]
                ):
                    worst = under[k]
                    leave_pos, below = k, True
                if over[k] > worst or (
                    over[k] > worst - PIVOT_TOL and leave_pos >= 0 and bk < basis[leave_pos]
                ):
                    worst = over[k]
                    leave_pos, below = k, False
            if leave_pos < 0:
                return self._result(self.A, basis, x, lo, hi, it, (state.y, state.red))

            pos, neg, abs_alpha = self._memo_row(state, leave_pos)

            # columns whose move pushes the leaving value back toward its bound
            at_up = x == hi
            if below:  # basic value must rise
                ok = np.where(at_up, pos, neg) | (free & pos)
            else:  # basic value must fall
                ok = np.where(at_up, neg, pos) | (free & neg)
            cols = (ok & state.nonbasic & movable).nonzero()[0]
            ratios = state.abs_red[cols] / abs_alpha[cols]
            # sequential pass in column order: a ratio must undercut the best
            # by more than PIVOT_TOL, so near-ties keep the lower column
            enter = -1
            best = np.inf
            for j, ratio in zip(cols.tolist(), ratios.tolist()):
                if ratio < best - PIVOT_TOL:
                    best = ratio
                    enter = j
            if enter < 0:
                return LpResult(status=LpStatus.INFEASIBLE, iterations=it)

            leaving = basis[leave_pos]
            x[leaving] = lo[leaving] if below else hi[leaving]
            basis[leave_pos] = enter
            state = self._basis(basis)
