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
duality. Nothing in the search reads it, so a result keeps references to the
arrays it is summed from and sums it the first time it is read.

Pricing and ratio tests run over numpy masks: one vectorized pass marks the
eligible columns or rows and computes their scores, ratios or step limits,
and only the few survivors go through the sequential tie loop (ties within
PIVOT_TOL go to the lowest column). The dual method's leaving-row scan, over
as few rows as there are constraints, runs over Python floats instead, whose
``-`` and ``>`` are numpy's. Every comparison and every value is the one a
plain loop over all columns would make, so pivots, iteration counts and
result bits do not depend on the vectorization.

Each basis is priced in one place, ``_Basis``: ``B``, the duals ``y``, the
reduced costs with their sign masks and the nonbasic mask, all read-only.
The primal method prices its basis each iteration. Warm solves revisit few
bases, so each solver memoizes them, with each pivot row used and each basic
solution ``solve(B, rhs)`` keyed on the bytes of ``rhs``. An entry is the
output of the same numpy call on the same inputs that a solve from scratch
makes, so it gives the same bits; a matrix is never factored once and
reused, which would round differently. The memo is dropped whole past
``MEMO_BYTES``. Cold and warm solves end in one ``_result``, whose
``BasisSnapshot`` shares the final ``_Basis``'s index array. A warm solve's
snapshot is flagged ``dual_feasible`` when every movable nonbasic column
passes the warm start's dual-feasibility test in the box it was solved in.
A nonbasic column always sits exactly at its lower bound, at its upper
bound, or at 0 when free, which is what lets "parked at upper" be read as
``x == hi``.

A branch-and-bound child gets its LP from one call, ``child``: its box is
its parent's with one column ``j`` set to finite bounds. When the box still
holds the parent's warm optimum, the warm solve would re-derive that optimum
with no pivot, so ``child`` keeps the parent's result without solving
(``_kept``), sharing its read-only ``x``. It keeps a child of a flagged
snapshot only and tests only column ``j``: the flag already covers every
other one. Otherwise, when one row misses its rhs over the whole box by more
than any solve would forgive, the child is ``REFUTED`` without a solve by
``_refutes``, built once per solver: one product of the row sides that meet
no infinite bound with the box, and one comparison. Else it is warm-solved
through ``resolve(snapshot, lo, hi, j)``, which makes the kept test's
argument for its start: off column ``j`` the box is the one the flag was set
in, so the start's dual-feasibility test is column ``j``'s own test, and
only column ``j`` can make the box empty. An unflagged snapshot, or one
whose basis has left the memo, gets the full-width test, as does every call
without ``j``.

The warm start's masks, which columns have a finite lower bound and which
are free, are built once per solver from its own bounds, slacks included.
They are every child box's masks: a split sets one integer column, whose
bounds are finite, to finite bounds, so a box in a search from the
instance's box keeps the instance's infinite bounds, the fact ``_refutes``
rests on too. A start told ``j`` from a flagged snapshot takes them; its
start vector is the bound each column is parked at, derived from the box,
never copied from the parent's ``x``, whose zeros may differ in sign.
"""

import logging
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class BasisSnapshot:
    """Restart point: ``basis``, the basic column of each row (read-only
    intp), and ``at_upper``, a read-only bool mask of the nonbasic columns
    parked at upper. Snapshots compare by identity.

    ``dual_feasible`` is True when a warm solve made the snapshot and every
    movable nonbasic column passes the warm start's dual-feasibility test
    with the columns parked as ``at_upper`` says, in the box the solve ran
    in. A snapshot from a cold solve, or one a caller builds, is False:
    ``SimplexSolver.child`` keeps no child of it, and a warm start from it
    takes the full-width test."""

    basis: np.ndarray
    at_upper: np.ndarray
    dual_feasible: bool = False


def _dual_sum(y, b, red, nonbasic, x, lo, hi) -> float:
    """``y @ b`` plus each nonbasic column's reduced cost times the bound its
    sign prices (its value ``x`` when that bound is infinite or the cost is
    within DUAL_FEAS_TOL of 0), added left to right in column order.
    ``cumsum`` adds sequentially, so it gives the bits of a plain loop."""
    r, lo_n, hi_n = red[nonbasic], lo[nonbasic], hi[nonbasic]
    at = np.where((r > DUAL_FEAS_TOL) & np.isfinite(lo_n), lo_n,
                  np.where((r < -DUAL_FEAS_TOL) & np.isfinite(hi_n), hi_n, x[nonbasic]))
    return float(np.cumsum(np.concatenate(([y @ b], r * at)))[-1])


@dataclass
class LpResult:
    status: LpStatus
    objective: float = None
    x: np.ndarray = None  # structural values only
    fractional: list = None  # integer columns off the grid at INT_TOL
    basis: BasisSnapshot = None
    iterations: int = 0
    # the dual objective, or the arguments of _dual_sum until it is first read
    _dual: object = field(default=None, repr=False, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status == LpStatus.OPTIMAL

    @property
    def dual_objective(self) -> float:
        """The reconstructed dual objective of an optimal result (else None),
        summed on first read."""
        if isinstance(self._dual, tuple):
            self._dual = _dual_sum(*self._dual)
        return self._dual


# the LP of every child refuted without a solve; shared, so never written
REFUTED = LpResult(status=LpStatus.INFEASIBLE)


class _NoProgress(Exception):
    """A solve that cannot go on: past its iteration cap, or a warm start
    that does not fit the box (``resolve`` then solves cold)."""


def _read_only(*arrays) -> int:
    """Mark arrays read-only; return their total size in bytes."""
    for a in arrays:
        a.flags.writeable = False
    return sum(a.nbytes for a in arrays)


class _Basis:
    """One basis of ``A`` priced under costs ``c``.

    Every array is made by the numpy call, on the same inputs, that a solve
    from scratch would make, so reading it here changes no bit. All are
    read-only, ``basis`` included: a copy of the caller's index array, so a
    snapshot can share it. ``rows`` and ``solved`` are filled in on first
    use by the warm solver's memo.
    """

    def __init__(self, A, c, basis):
        self.basis = basis = np.array(basis, dtype=np.intp)
        self.B = A[:, basis]
        self.y = np.linalg.solve(self.B.T, c[basis])
        self.red = c - A.T @ self.y
        self.nonbasic = np.ones(A.shape[1], dtype=bool)
        self.nonbasic[basis] = False
        self.A_N = A[:, self.nonbasic]
        self.abs_red = np.abs(self.red)
        self.red_pos = self.red > DUAL_FEAS_TOL
        self.red_neg = self.red < -DUAL_FEAS_TOL
        self.nbytes = _read_only(self.basis, self.B, self.y, self.red, self.nonbasic,
                                 self.A_N, self.abs_red, self.red_pos, self.red_neg)
        self.rows = {}  # leaving position -> (alpha > PIVOT_TOL, alpha < -PIVOT_TOL, |alpha|)
        self.solved = {}  # rhs bytes -> solve(B, rhs)


def _wrong_sign(state: _Basis, at_upper, finite_lo):
    """Nonbasic columns whose reduced cost says leaving their parked value
    would pay: positive at upper, negative at a finite lower, nonzero
    otherwise."""
    # |red| > DUAL_FEAS_TOL is exactly red_pos | red_neg
    return np.where(at_upper, state.red_pos,
                    np.where(finite_lo, state.red_neg, state.red_pos | state.red_neg))


def _start_fails(state: _Basis, at_upper, finite_lo, movable, j=None) -> bool:
    """The warm start's dual-feasibility test: True when some movable
    nonbasic column fails ``_wrong_sign`` with the columns parked as
    ``at_upper`` says.

    With ``j``, this basis and ``at_upper`` come from a snapshot flagged
    ``dual_feasible`` in a box that differs from this one in column ``j``
    only: every other column passes here as it passed there, so ``j`` is
    tested alone.
    """
    if j is None:
        return np.count_nonzero(_wrong_sign(state, at_upper, finite_lo) & state.nonbasic
                                & movable) > 0
    if not (state.nonbasic[j] and movable[j]):
        return False
    if at_upper[j]:
        return bool(state.red_pos[j])
    if finite_lo[j]:
        return bool(state.red_neg[j])
    return bool(state.red_pos[j] or state.red_neg[j])


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
        self._slack_lo, self._slack_hi = self.base_lo[d:], self.base_hi[d:]
        self._base_box = np.concatenate((self.base_lo, self.base_hi))
        # the warm start's masks of every box that keeps these infinite bounds
        self._finite_lo = np.isfinite(self.base_lo)
        free = ~self._finite_lo & ~np.isfinite(self.base_hi)
        _read_only(self._finite_lo, free)
        self._free = free if free.any() else None  # None: no column is free
        self._free_cols = np.flatnonzero(free)
        self.c = np.zeros(self.n)
        for j, v in instance.objective.items():
            self.c[j] = v
        self._c_d = self.c[:d]
        self.integer_index = np.asarray(instance.integer_index, dtype=int)
        self._int_list = self.integer_index.tolist()
        # the cold solve's feasibility scale: phase 1 may leave FEAS_TOL times this
        self._scale = max(1.0, float(np.max(np.abs(self.b))) if m else 1.0)
        self._bases = {}  # basis index bytes -> _Basis
        self._memo_bytes = 0
        # the test that refutes a child box without a solve; None when no row can miss
        self._refutes = self._refuter(self.base_lo[:d], self.base_hi[:d])

    # -- public API ---------------------------------------------------------

    def solve(self, lo=None, hi=None) -> LpResult:
        """Cold two-phase solve under optional structural bound overrides."""
        full_lo, full_hi = self._bounds(lo, hi)
        if (full_lo > full_hi + FEAS_TOL).any():
            return LpResult(status=LpStatus.INFEASIBLE)
        return self._cold(full_lo, full_hi)

    def resolve(self, snapshot: BasisSnapshot, lo=None, hi=None, j: int = None) -> LpResult:
        """Reoptimize from a parent basis after bound changes.

        Pure performance path: the result contract is identical to
        :meth:`solve`, and any numerical trouble falls back to a cold solve.

        ``j``, when given, is the split column: ``lo`` and ``hi`` must be
        the structural box the snapshot's solve ran in (which passed the
        empty-box test) with only column ``j`` changed, to finite bounds,
        and must keep the instance's infinite bounds, as every box of a
        search from the instance's box does. Then only column ``j`` is
        tested for an empty box, and the warm start from a flagged snapshot
        whose basis is memoized tests column ``j`` alone in place of its
        full-width test (see ``_start_fails``) and takes the solver's own
        masks of finite and free columns. The result is the one a call
        without ``j`` gives.
        """
        full_lo, full_hi = self._bounds(lo, hi)
        if j is None:
            empty = np.count_nonzero(full_lo > full_hi + FEAS_TOL) > 0
        else:
            empty = full_lo.item(j) > full_hi.item(j) + FEAS_TOL
        if empty:
            return LpResult(status=LpStatus.INFEASIBLE)
        if snapshot is None:
            return self._cold(full_lo, full_hi)
        try:
            return self._dual(snapshot, full_lo, full_hi, j)
        except (_NoProgress, np.linalg.LinAlgError):
            log.debug("warm start fell back to a cold solve")
            return self._cold(full_lo, full_hi)

    def child(self, parent: LpResult, box, j: int) -> LpResult:
        """The LP of a branch-and-bound child of ``parent``. Its box
        ``box``, stacked as ``[lo; hi]``, is the parent's with column ``j``
        set to finite bounds, so in a search from the instance's box its
        infinite bounds are the instance's, where ``_refutes`` holds. The
        LP is the first of: the parent's, sharing its ``x``, when the box
        still holds its warm optimum (``_kept``); ``REFUTED`` when
        ``_refutes`` proves the box empty; ``self.resolve(parent.basis, lo,
        hi, j)``.

        No kept box is refuted: a kept result is the warm solve's optimum,
        and ``_refutes`` refutes only boxes the warm solve finds infeasible.
        So trying the kept LP first only saves time; it changes no result.
        """
        d = self.d
        lo, hi = box[:d], box[d:]
        lp = self._kept(parent, lo, hi, j)
        if lp is not None:
            return lp
        if self._refutes is not None and self._refutes(box):
            return REFUTED
        return self.resolve(parent.basis, lo, hi, j)

    def _kept(self, parent: LpResult, lo, hi, j: int):
        """The result of ``resolve(parent.basis, lo, hi)`` when it is the
        parent's own optimum, without solving; otherwise None.

        ``lo`` and ``hi`` must be the parent's structural box with only
        column ``j`` changed: the dual test below depends on it. The warm
        solve then ends in its first iteration, re-deriving the parent's
        ``x``, when:

        * a warm solve priced the parent and flagged its snapshot
          ``dual_feasible``: the snapshot shares the index array of the
          memoized ``_Basis`` (a cold parent's ``x`` comes from the matrix
          extended with artificials, so its bits may differ);
        * a basic ``j`` stays within FEAS_TOL of its new bounds, the warm
          scan's test;
        * a nonbasic ``j`` is fixed at ``x_j`` and its reduced cost prices
          the bound it was parked at, so its dual-objective term keeps its
          value;
        * the warm start's dual-feasibility test passes in the new box. Off
          column ``j`` the new box is the one the parent was solved in, so
          the parent's flag covers the test there. A nonbasic ``j`` is
          fixed, so not tested, and a basic one never is.

        The result shares the parent's read-only ``x``, index array and
        dual objective, and is flagged too, since no column fails in the new
        box. It shares the parent's snapshot unless the new box fixes a
        ``j`` parked at upper, which its ``at_upper`` then drops.
        """
        snap = parent.basis
        if snap is None or not snap.dual_feasible:
            return None
        state = self._priced(snap)
        if state is None:
            return None
        x_j, lo_j, hi_j = parent.x.item(j), lo.item(j), hi.item(j)
        at_upper = snap.at_upper
        if state.nonbasic[j]:
            if not lo_j == hi_j == x_j:
                return None
            if (state.red_pos if at_upper[j] else state.red_neg)[j]:
                return None  # the reduced cost prices against the parked bound
        elif lo_j - x_j > FEAS_TOL or x_j - hi_j > FEAS_TOL or lo_j > hi_j + FEAS_TOL:
            return None  # the warm scan would pivot, or resolve finds the box empty
        if at_upper[j]:  # fixed now, so parked at neither bound
            at_upper = at_upper.copy()
            at_upper[j] = False
            _read_only(at_upper)
            snap = BasisSnapshot(basis=snap.basis, at_upper=at_upper, dual_feasible=True)
        return LpResult(
            status=LpStatus.OPTIMAL,
            objective=parent.objective,
            x=parent.x,
            fractional=list(parent.fractional),
            basis=snap,
            iterations=1,
            _dual=parent._dual,
        )

    def _refuter(self, root_lo, root_hi):
        """A test ``box -> bool``, True when some row misses its rhs over a
        structural box stacked as ``[lo; hi]`` by more than its margin, so
        that ``solve`` and ``resolve`` find the box infeasible; None when no
        side can miss. The test holds for every box whose infinite bounds
        are those of the root box [root_lo, root_hi], the root box included.
        It reads only which root bounds are finite, so ``__init__`` builds
        ``_refutes`` once from the solver's own bounds: a branch and bound
        splits integer columns only, whose bounds are finite, to finite
        bounds.

        ``[[A+, A-], [-A-, -A+]] @ [lo; hi]`` stacks each row's least
        activity over the box on minus its greatest. A row's activity is
        ``b - slack``, so a ``<=`` row misses when its least activity
        exceeds ``b + margin``, a ``>=`` row when its greatest falls below
        ``b - margin``, and an equality on either side. The margin,
        ``FEAS_TOL * max(1 + sum |a_ij|, max(1, max |b|))``, covers both
        ways a solve can still accept a near-feasible point:

        * a warm solve ends optimal with each basic value within FEAS_TOL of
          its bounds and each nonbasic one at a bound, so a row's activity
          lies within ``FEAS_TOL * sum |a_ij|`` of one over the box, and its
          slack lets it pass ``b`` by FEAS_TOL more;
        * a cold solve calls the box feasible when phase 1 leaves an
          artificial sum of at most ``FEAS_TOL * max(1, max |b|)``, with
          every column in its bounds, so each row misses by no more.

        A side is kept when its limit is finite and it reads no infinite
        root bound. No product can overflow: the model holds every
        coefficient below 1e15 and every finite root bound below 1e20, and a
        split bound, the floor or ceiling of an LP value in the parent's
        box, lies within 1 of the root range; so every term is below
        1e15 * (1e20 + 1), and no sum of them nears the end of the float
        range. The test is the product, over the columns with finite root
        bounds, and one comparison. A dropped side never refutes. Neither
        ``solve`` nor ``resolve`` calls this, so their results, iteration
        counts included, do not change.
        """
        d = self.d
        S = self.A[:, :d]
        pos, neg = np.maximum(S, 0.0), np.minimum(S, 0.0)
        sides = np.block([[pos, neg], [-neg, -pos]])
        finite = np.isfinite(np.concatenate((root_lo, root_hi)))
        margin = FEAS_TOL * np.maximum(1.0 + np.abs(S).sum(axis=1), self._scale)
        limits = np.concatenate([self.b - self._slack_lo + margin,
                                 self._slack_hi - self.b + margin])
        keep = np.isfinite(limits) & ~((sides != 0.0) @ ~finite)
        if not keep.any():
            return None
        sides, limits = sides[keep], limits[keep]
        # count_nonzero is faster than .any() on these short masks
        if finite.all():
            return lambda box: np.count_nonzero(sides @ box > limits) > 0
        cols = np.flatnonzero(finite)
        sides = sides[:, cols]
        return lambda box: np.count_nonzero(sides @ box[cols] > limits) > 0

    # -- shared pieces ------------------------------------------------------

    def _bounds(self, lo, hi):
        """The full bound vectors: the structural box, else the instance's
        bounds, followed by the slacks' bounds; two halves of one array."""
        n, d = self.n, self.d
        full = self._base_box.copy()
        if lo is not None:
            full[:d] = lo
        if hi is not None:
            full[n:n + d] = hi
        return full[:n], full[n:]

    def _result(self, state: _Basis, x, lo, hi, iterations, movable=None,
                finite_lo=None) -> LpResult:
        """Optimal result at the basis ``state``, with every column at ``x``.

        The result keeps references to ``x``, ``lo`` and ``hi``, which the
        caller must no longer write, to sum its dual objective when read.
        A warm solve passes the box's ``movable`` and ``finite_lo`` masks it
        already holds; its snapshot is flagged when the warm start's test
        passes in this box. One that made no pivot ends at its start, whose
        test passed: parking at upper the columns with ``x == hi`` adds only
        movable ones with no finite lower bound, where the start already
        required ``|red| <= DUAL_FEAS_TOL``. So it is flagged untested.
        """
        xs = x[: self.d].copy()
        xs.flags.writeable = False  # a kept child shares it with its parent
        obj = float(self._c_d @ xs)
        snapshot = None
        warm = movable is not None
        # no artificial left in the basis
        if warm or np.count_nonzero(state.basis >= self.n) == 0:
            n = self.n
            nonbasic = state.nonbasic[:n]
            if not warm:
                movable = lo[:n] != hi[:n]
            up = nonbasic & (x[:n] == hi[:n]) & movable  # parked at upper
            up.flags.writeable = False
            # the warm start's test, as _dual makes it, in this box
            feasible = warm and (iterations == 1 or not np.count_nonzero(
                _wrong_sign(state, up, finite_lo) & nonbasic & movable))
            snapshot = BasisSnapshot(basis=state.basis, at_upper=up, dual_feasible=feasible)
        return LpResult(
            status=LpStatus.OPTIMAL,
            objective=obj,
            x=xs,
            fractional=self._fractional(xs),
            basis=snapshot,
            iterations=iterations,
            _dual=(state.y, self.b, state.red, state.nonbasic, x, lo, hi),
        )

    def _fractional(self, xs) -> list:
        """The integer columns of ``xs`` more than INT_TOL off the nearest
        integer, in column order: numpy's ``|x - rint(x)| > INT_TOL`` over
        Python floats. ``round`` rounds half to even, as ``np.rint`` does;
        an integral value, the common case, needs no rounding, and a NaN or
        an infinity, which ``round`` refuses, fails numpy's test."""
        vals = xs.tolist()
        return [j for j in self._int_list
                if not vals[j].is_integer() and math.isfinite(vals[j])
                and abs(vals[j] - round(vals[j])) > INT_TOL]

    # -- primal simplex -----------------------------------------------------

    def _primal(self, A, c, lo, hi, basis, x):
        """Iterate to optimality from a primal-feasible basis.

        Returns (status, iterations, the last iteration's ``_Basis``); the
        index array ``basis`` and x are updated in place.
        """
        movable = lo != hi
        finite_lo = np.isfinite(lo)
        finite_hi = np.isfinite(hi)
        free = ~finite_lo & ~finite_hi
        bland = False
        degenerate = 0
        it = 0
        while True:
            if it > self._iter_cap:
                raise _NoProgress()
            it += 1
            state = _Basis(A, c, basis)
            x[basis] = np.linalg.solve(state.B, self.b - state.A_N @ x[state.nonbasic])
            red = state.red

            # pricing: a free column moves against its cost sign, one parked
            # at upper pays when its cost is positive, any other when negative
            at_up = finite_hi & (np.abs(x - hi) < np.abs(x - lo))
            score = np.where(free, state.abs_red, np.where(at_up, red, -red))
            eligible = state.nonbasic & movable & (score > DUAL_FEAS_TOL)
            if not eligible.any():
                return LpStatus.OPTIMAL, it, state
            if bland:  # first improving column
                enter = int(np.argmax(eligible))
            else:  # Dantzig: first column of the largest score
                enter = int(np.argmax(np.where(eligible, score, -np.inf)))
            if free[enter]:
                direction = 1.0 if red[enter] < 0 else -1.0
            else:
                direction = -1.0 if at_up[enter] else 1.0

            w = np.linalg.solve(state.B, A[:, enter])
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
                return LpStatus.UNBOUNDED, it, state
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
        basis = np.arange(self.n, n_cols)

        c1 = np.zeros(n_cols)
        c1[self.n :] = 1.0
        try:  # an iteration cap or a singular basis anywhere below: STALLED
            status, it1, _ = self._primal(A, c1, lo_ext, hi_ext, basis, x)
            if status != LpStatus.OPTIMAL:  # phase 1 is bounded below by zero
                return LpResult(status=LpStatus.STALLED, iterations=it1)
            if float(c1 @ x) > FEAS_TOL * self._scale:
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
            status, it2, state = self._primal(A, c2, lo_ext, hi_ext, basis, x)
        except (_NoProgress, np.linalg.LinAlgError):
            return LpResult(status=LpStatus.STALLED)
        if status == LpStatus.UNBOUNDED:
            return LpResult(status=LpStatus.UNBOUNDED, iterations=it1 + it2)
        return self._result(state, x, lo_ext, hi_ext, it1 + it2)

    # -- dual simplex (warm start) -------------------------------------------

    def _keep(self, table, key, value, nbytes):
        """Cache ``value`` and count its bytes; past MEMO_BYTES, forget every basis."""
        table[key] = value
        self._memo_bytes += nbytes
        if self._memo_bytes > MEMO_BYTES:
            self._bases.clear()
            self._memo_bytes = 0

    def _priced(self, snapshot: BasisSnapshot):
        """The memoized ``_Basis`` whose index array ``snapshot`` shares,
        else None. Such a basis passed ``_dual``'s guard when it was made."""
        basis = snapshot.basis
        if not isinstance(basis, np.ndarray):
            return None
        state = self._bases.get(basis.tobytes())
        return state if state is not None and state.basis is basis else None

    def _basis(self, basis) -> _Basis:
        """The cached state of ``basis`` (an index array), made on first sight."""
        key = basis.tobytes()
        state = self._bases.get(key)
        if state is None:
            state = _Basis(self.A, self.c, basis)
            self._keep(self._bases, key, state, state.nbytes + len(key))
        return state

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

    def _dual(self, snapshot: BasisSnapshot, lo, hi, j=None) -> LpResult:
        at_upper = snapshot.at_upper
        if np.shape(at_upper) != (self.n,):
            raise _NoProgress()
        state = self._priced(snapshot)  # a basis priced here passed the guard below
        basis = np.array(snapshot.basis, dtype=np.intp)  # a copy: pivoted in place
        if state is None and (basis.shape != (self.m,) or ((basis < 0) | (basis >= self.n)).any()
                              or len(set(basis.tolist())) != self.m):
            raise _NoProgress()
        movable = lo != hi
        # nonbasic columns park at upper when the snapshot says so, else at a
        # finite bound, else at 0
        if j is not None and state is not None and snapshot.dual_feasible:
            # The flag holds for the basis it was set at, which is the
            # memoized one only while the snapshot shares its index array.
            # The box keeps the instance's infinite bounds (see resolve), so
            # its masks are the solver's. A warm solve parks a nonbasic
            # column with only an upper bound there, so the snapshot marks
            # it at upper, as it marks every column whose finite upper bound
            # the parent sat at and the child keeps: every start is finite.
            finite_lo, free = self._finite_lo, self._free
            x = np.where(at_upper, hi, lo)
            if free is not None:
                x[self._free_cols] = 0.0
            x[basis] = 0.0
        else:
            j = None  # the start takes the full-width test
            finite_lo = np.isfinite(lo)
            free = ~finite_lo & ~np.isfinite(hi)
            x = np.where(at_upper, hi, np.where(finite_lo, lo, np.where(free, 0.0, hi)))
            x[basis] = 0.0
            if not np.isfinite(x).all():
                raise _NoProgress()
            if state is None:
                state = self._basis(basis)
        if _start_fails(state, at_upper, finite_lo, movable, j):
            raise _NoProgress()  # parent basis is not dual feasible here

        # A position is chosen only if its violation beats the running worst
        # (which starts at FEAS_TOL) or comes within PIVOT_TOL of it; each of
        # at most 2m choices lowers the worst by under PIVOT_TOL, so no chosen
        # violation is at or below this floor.
        floor = FEAS_TOL - 2 * self.m * PIVOT_TOL
        # the scan runs over Python floats, whose - and > are numpy's
        lo_l, hi_l, order = lo.tolist(), hi.tolist(), basis.tolist()
        it = 0
        while True:
            if it > self._iter_cap:
                raise _NoProgress()
            it += 1
            xb = self._memo_basic(state, x)
            x[basis] = xb

            leave_pos = -1
            worst = FEAS_TOL
            below = False
            for k, v in enumerate(xb.tolist()):
                bk = order[k]
                under = lo_l[bk] - v
                over = v - hi_l[bk]
                if not (under > floor or over > floor):
                    continue
                if under > worst or (
                    under > worst - PIVOT_TOL and leave_pos >= 0 and bk < order[leave_pos]
                ):
                    worst = under
                    leave_pos, below = k, True
                if over > worst or (
                    over > worst - PIVOT_TOL and leave_pos >= 0 and bk < order[leave_pos]
                ):
                    worst = over
                    leave_pos, below = k, False
            if leave_pos < 0:
                return self._result(state, x, lo, hi, it, movable, finite_lo)

            pos, neg, abs_alpha = self._memo_row(state, leave_pos)

            # columns whose move pushes the leaving value back toward its bound
            at_up = x == hi
            if below:  # basic value must rise
                ok = np.where(at_up, pos, neg)
                if free is not None:
                    ok |= free & pos
            else:  # basic value must fall
                ok = np.where(at_up, neg, pos)
                if free is not None:
                    ok |= free & neg
            cols = (ok & state.nonbasic & movable).nonzero()[0]
            ratios = state.abs_red[cols] / abs_alpha[cols]
            # sequential pass in column order: a ratio must undercut the best
            # by more than PIVOT_TOL, so near-ties keep the lower column
            enter = -1
            best = np.inf
            for c, ratio in zip(cols.tolist(), ratios.tolist()):
                if ratio < best - PIVOT_TOL:
                    best = ratio
                    enter = c
            if enter < 0:
                return LpResult(status=LpStatus.INFEASIBLE, iterations=it)

            leaving = order[leave_pos]
            x[leaving] = lo_l[leaving] if below else hi_l[leaving]
            basis[leave_pos] = order[leave_pos] = enter
            state = self._basis(basis)
