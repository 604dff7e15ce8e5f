"""Branch and bound over one node representation, in two modes.

Each node carries its box and its own LP relaxation, made when the node is
created by one call, ``SimplexSolver.child``: the parent's LP when the box
still holds the parent's optimum, ``simplex.REFUTED`` when a row misses its
rhs over the whole box, else a warm solve from the parent's basis, told the
split column. ``optimize`` finds the optimal value: best-first on the LP
bound with incumbent pruning.
``run`` enumerates near-optimal solutions into a bounded pool and
classifies each dequeued node:

* infeasible nodes are discarded,
* *unrestricted* nodes, where every constraint holds for every assignment
  inside the local box, have their whole subtree enumerated wholesale; the
  box test is ``LinearConstraint.holds_over``, whose verdict covers every
  point of the box, so the walk checks no row. A row that holds over a box
  holds over every box inside it, so a child inherits its parent's open
  rows and tests only those,
* nodes with an integral LP and every integer variable fixed contribute a
  single completed solution,
* anything else is split in two, on the most-fractional variable when one
  exists, otherwise on a partitioning disjunction over an unfixed integer
  variable so each solution is reachable through exactly one leaf.

A split sets one integer column, whose root bounds are finite, to finite
bounds, so every box keeps the root box's infinite bounds, which is where
the solver's refutation test holds. A node stores its box as one stacked
array ``[lo; hi]``, the form that test reads.

A child whose LP stalls is dropped at creation. The open nodes live in a
``selectors.Selector``, which also picks the next one. The run stops when
the open set empties, the pool reaches capacity, or a node/time limit trips.
Everything is deterministic for a fixed instance and configuration; a
trace hash over the dequeue sequence witnesses it.
"""

import hashlib
import heapq
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .diversity import project_binary
from .model import INT_TOL, MipInstance, _dot
from .selectors import Selector, SelectorConfig
from .simplex import LpResult, LpStatus, SimplexSolver

log = logging.getLogger("diversitree.engine")

INFEASIBLE = "infeasible"
UNRESTRICTED = "unrestricted"
INTEGER_FEASIBLE = "integer_feasible"
BRANCHABLE = "branchable"
STALLED = "stalled"

# most points the wholesale walk hands the pool at once: walks as fast as 1,024,
# with a lower peak RSS on a 65,536-point box
WALK_CHUNK = 128


class EngineError(RuntimeError):
    pass


def trace_line(node_id: int, depth: int, bound, classification: str, pool_size: int) -> str:
    """One node's trace record: the bytes of ``json.dumps(..., sort_keys=True)``
    over its fields, with a missing or non-finite bound written as null.
    ``float.__repr__`` is the float form json writes (a numpy float included)."""
    lp = "null" if bound is None or not math.isfinite(bound) else float.__repr__(bound)
    return (f'{{"classification": "{classification}", "depth": {depth}, "id": {node_id}, '
            f'"lpBound": {lp}, "poolSize": {pool_size}}}')


@dataclass
class Node:
    """One open subproblem: its box and its binary fixings.

    ``box`` is the box stacked as one array ``[lo; hi]``, a copy of the
    parent's with the branched column changed; ``lo`` and ``hi`` are its
    two halves, as views. ``path`` lists the binary fixings in the order
    they were made, as term indices 2k + value over the positions k in
    ``binary_index`` (see ``selectors.term_vector``). ``open_rows`` are the
    rows not yet proved to hold over the whole box (None: every row): the
    parent's open rows until ``classify`` tests them, then the node's own.
    ``lp_bound`` is ``lp.objective``, stored when the node is made with its
    LP (None without one); a node's LP is not replaced.
    """

    id: int
    parent_id: int
    depth: int
    box: np.ndarray = None
    path: tuple = ()
    lp: LpResult = None
    estimate: float = math.nan  # bound plus fractionality repair
    open_rows: range = None
    lp_bound: float = field(default=None, init=False)
    lo: np.ndarray = field(default=None, init=False, repr=False)
    hi: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.lp is not None:
            self.lp_bound = self.lp.objective
        if self.box is not None:
            d = len(self.box) // 2
            self.lo, self.hi = self.box[:d], self.box[d:]


class SolutionPool:
    """Capacity-bounded solution store with binary-projection dedup.

    Solutions and their int8 binary projections are rows of two matrices
    that double when full; ``solutions`` and ``projections`` are read-only
    views of the rows filled so far, in insertion order. The dedup key is
    the projection row's bytes; instances without binary variables fall
    back to the rounded integer columns as int64, so distinct solutions are
    not collapsed. ``add_rows`` inserts a batch as ``add`` would one row at
    a time, with one projection and one write per batch; ``add`` is its
    one-row case.
    """

    def __init__(self, instance: MipInstance, capacity: int = None, dedup: bool = True):
        self.capacity = capacity
        self.dedup = dedup
        self.binary_index = instance.binary_index
        self._bin = np.asarray(self.binary_index, dtype=np.intp)
        self._int = np.asarray(instance.integer_index, dtype=np.intp)
        self.objectives = []
        self.ones = np.zeros(len(self.binary_index))
        self._keys = set()
        self._n = 0
        self._x = np.empty((16, instance.num_vars))
        self._proj = np.empty((16, len(self._bin)), dtype=np.int8)

    def __len__(self) -> int:
        return self._n

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and self._n >= self.capacity

    @property
    def room(self) -> float:
        """How many more solutions fit: ``math.inf`` without a capacity."""
        return math.inf if self.capacity is None else max(self.capacity - self._n, 0)

    def add(self, x, objective: float) -> bool:
        return self.add_rows([x], [objective]) == 1

    def add_rows(self, xs, objectives) -> int:
        """Add the solutions ``xs`` in order, with their objectives; return
        how many were accepted.

        A row is refused when its key is pooled already, including by an
        earlier row of the same batch, and the batch stops once the pool is
        full. A non-integral binary raises ``project_binary``'s
        ``ValueError`` after the rows before it are stored, unless the row's
        rounded key is taken, which refuses it.
        """
        room = min(len(xs), self.room)
        if not room:
            return 0
        n = self._n
        self._reserve(n + room)  # before the batch's temporaries, to keep the peak low
        xs = np.asarray(xs, dtype=float)
        vals = xs[:, self._bin]
        bits = np.rint(vals)
        bad = (np.abs(vals - bits) > INT_TOL).any(axis=1).tolist()
        proj = bits.astype(np.int8)
        keyed = proj if len(self._bin) else np.rint(xs[:, self._int]).astype(np.int64)
        width = keyed.shape[1] * keyed.itemsize
        buf = keyed.tobytes()
        keys = self._keys
        take = []
        try:
            for i in range(len(xs)):
                if len(take) == room:
                    break
                if self.dedup:
                    key = buf[i * width:(i + 1) * width]
                    if key in keys:
                        continue
                if bad[i]:
                    project_binary(xs[i], self._bin)  # raises, naming the column
                if self.dedup:
                    keys.add(key)
                take.append(i)
        finally:
            k = len(take)
            self._x[n:n + k] = xs[take]
            accepted = proj[take]
            self._proj[n:n + k] = accepted
            self.objectives.extend([float(objectives[i]) for i in take])
            self.ones += accepted.sum(axis=0, dtype=float)
            self._n = n + k
        return k

    def _reserve(self, rows: int):
        """Double both matrices until they hold ``rows`` rows."""
        size = len(self._x)
        while size < rows:
            size *= 2
        if size > len(self._x):
            for name in ("_x", "_proj"):
                col = getattr(self, name)
                grown = np.empty((size, col.shape[1]), dtype=col.dtype)
                grown[:self._n] = col[:self._n]
                setattr(self, name, grown)

    def _filled(self, matrix):
        view = matrix[:self._n]
        view.flags.writeable = False
        return view

    @property
    def solutions(self) -> np.ndarray:
        """Read-only (len, num_vars) float64 view of the pooled solutions."""
        return self._filled(self._x)

    @property
    def projections(self) -> np.ndarray:
        """Read-only (len, num_binaries) int8 view of their binary projections."""
        return self._filled(self._proj)

    # nothing in the package calls it; perfbench/workloads.py reads the pool through it
    def projection_matrix(self) -> np.ndarray:
        return self.projections


@dataclass
class CountResult:
    pool: SolutionPool
    nodes_processed: int = 0
    unrestricted_subtrees: int = 0
    stalled_dropped: int = 0
    exhausted: bool = False
    truncated: bool = False
    wall_time_s: float = 0.0
    trace_hash: str = ""


@dataclass
class OptimumResult:
    status: str  # optimal | infeasible | unbounded | limit
    objective: float = None  # internal minimization value
    x: np.ndarray = None
    nodes_processed: int = 0
    wall_time_s: float = 0.0


def most_fractional(lp: LpResult) -> int:
    """Branching column: fractional part nearest 0.5, lowest index on ties."""
    if not lp.fractional:
        raise EngineError("branch requested but no integer variable is fractional")
    best = None
    best_gap = math.inf
    x = lp.x
    for j in lp.fractional:
        v = x.item(j)
        f = v - math.floor(v)
        gap = abs(f - 0.5)
        if gap < best_gap:
            best, best_gap = j, gap
    return best


def _box_points(base: list, cols: list, first: list, last: list):
    """Copies of ``base`` with the columns ``cols`` set to every integer
    assignment between ``first`` and ``last``, as floats, in lexicographic
    order (ascending column, values ascending, the last column fastest).

    An odometer makes one point at a time, so memory does not grow with the
    width of the box.
    """
    point = list(base)
    digits = list(first)
    for j, v in zip(cols, digits):
        point[j] = float(v)
    while True:
        yield point.copy()
        k = len(cols) - 1
        while k >= 0 and digits[k] == last[k]:  # roll over to the first value
            digits[k] = first[k]
            point[cols[k]] = float(first[k])
            k -= 1
        if k < 0:
            return
        digits[k] += 1
        point[cols[k]] = float(digits[k])


def check_limits(node_limit: int = None, time_limit: float = None):
    """Raise ValueError for a negative node limit or a NaN or negative time
    limit, which no clock comparison would ever trip."""
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be nonnegative, got {node_limit}")
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time_limit must be nonnegative seconds, got {time_limit}")


def _limit_reached(deadline: float, nodes: int = 0, node_limit: int = None) -> bool:
    """True once ``nodes`` reaches ``node_limit`` or the clock passes ``deadline``."""
    if node_limit is not None and nodes >= node_limit:
        return True
    return deadline is not None and time.perf_counter() > deadline


class BranchAndCount:
    """Branch and bound on one instance: ``optimize``, or ``run`` under the caller's cutoff."""

    def __init__(self, instance: MipInstance, selector: SelectorConfig = None,
                 dedup: bool = True):
        self.instance = instance
        self.selector_config = selector if selector is not None else SelectorConfig()
        self.dedup = dedup
        self.solver = SimplexSolver(instance)

        self.integer_index = instance.integer_index
        self._ints = np.asarray(self.integer_index, dtype=np.intp)
        lo, hi = instance.bounds()
        self.root_lo = np.asarray(lo, dtype=float)
        self.root_hi = np.asarray(hi, dtype=float)
        for j in self.integer_index:
            if not (math.isfinite(self.root_lo[j]) and math.isfinite(self.root_hi[j])):
                raise EngineError(
                    f"integer variable {instance.variables[j].name} must have finite bounds"
                )
            self.root_lo[j] = math.ceil(self.root_lo[j] - INT_TOL)
            self.root_hi[j] = math.floor(self.root_hi[j] + INT_TOL)
        self._d = d = len(self.root_lo)
        self.root_box = np.concatenate((self.root_lo, self.root_hi))
        self.root_lo, self.root_hi = self.root_box[:d], self.root_box[d:]
        self.all_rows = range(len(instance.constraints))
        self.objective_terms = list(instance.objective.items())
        # pool position of each binary column, for the term indices of Node.path
        self.binary_pos = {j: k for k, j in enumerate(instance.binary_index)}

    # -- node geometry --------------------------------------------------------

    def classify(self, node: Node) -> str:
        if node.lp.status is not LpStatus.OPTIMAL:
            return INFEASIBLE
        node.open_rows = self.open_rows(node.lo, node.hi, node.open_rows)
        if not node.open_rows:
            return UNRESTRICTED
        if not node.lp.fractional:
            return INTEGER_FEASIBLE
        return BRANCHABLE

    def open_rows(self, lo, hi, rows: range = None) -> range:
        """The rows of ``rows`` (None: every row) from the first one that
        does not hold over the box [lo, hi] (``LinearConstraint.holds_over``);
        empty when all hold. A row that holds over a box holds over every
        box inside it, so a child may pass its parent's open rows and test
        only those.
        """
        rows = self.all_rows if rows is None else rows
        lo, hi = lo.tolist(), hi.tolist()  # Python floats: cheaper per term than numpy scalars
        constraints = self.instance.constraints
        for k, i in enumerate(rows):
            if not constraints[i].holds_over(lo, hi):
                return rows[k:]
        return range(0)

    def _estimate(self, lp: LpResult) -> float:
        est = lp.objective
        costs = self.instance.objective
        x = lp.x
        for j in lp.fractional:
            v = x.item(j)
            f = v - math.floor(v)
            est += min(f, 1.0 - f) * abs(costs.get(j, 0.0))
        return est

    def _root(self) -> Node:
        root = Node(id=0, parent_id=None, depth=0, box=self.root_box,
                    lp=self.solver.solve(self.root_lo, self.root_hi))
        if root.lp.status is LpStatus.STALLED:
            raise EngineError("root relaxation stalled")
        return root

    def _child(self, node: Node, j: int, lo_j: float, hi_j: float) -> Node:
        """Child with column j in [lo_j, hi_j]; the caller sets its id.

        Its box copies the parent's, and its path gains a term when the split
        fixes a binary column. Its LP is ``SimplexSolver.child``'s: the
        parent's kept, ``simplex.REFUTED`` or a warm solve. A split narrows
        column j, so the box lies inside the parent's and inherits the
        parent's open rows.
        """
        d = self._d
        box = node.box.copy()
        box[j], box[d + j] = lo_j, hi_j
        path = node.path
        if lo_j == hi_j and j in self.binary_pos:
            path += (2 * self.binary_pos[j] + int(lo_j),)
        return Node(id=-1, parent_id=node.id, depth=node.depth + 1, box=box, path=path,
                    lp=self.solver.child(node.lp, box, j), open_rows=node.open_rows)

    def branch(self, node: Node):
        """Two children on the most-fractional column: floor and ceil sides."""
        j = most_fractional(node.lp)
        v = node.lp.x.item(j)
        down = self._child(node, j, node.lo.item(j), math.floor(v))
        up = self._child(node, j, math.ceil(v), node.hi.item(j))
        return [down, up]

    def partition_branch(self, node: Node, j: int):
        """Split on column j, the lowest unfixed integer column, when the LP is integral.

        Children [lo, v] / [v+1, hi] partition the box, so the solution at
        this node is counted by exactly one descendant leaf.
        """
        lo_j, hi_j = node.lo.item(j), node.hi.item(j)  # Python floats
        v = float(round(node.lp.x.item(j)))
        v = min(max(v, lo_j), hi_j)
        if v >= hi_j:
            return [self._child(node, j, lo_j, v - 1.0), self._child(node, j, v, v)]
        return [self._child(node, j, lo_j, v), self._child(node, j, v + 1.0, hi_j)]

    # -- solution extraction ---------------------------------------------------

    def _objective(self, x) -> float:
        """``MipInstance.objective_value``, bit for bit."""
        return _dot(self.objective_terms, x)

    def _satisfied(self, x) -> bool:
        """Every row holds at the point x, a list (``LinearConstraint.satisfied``)."""
        return all(con.satisfied(x) for con in self.instance.constraints)

    def _complete(self, node: Node):
        """The solution at an integer-feasible leaf, whose box fixes every
        integer column: the LP point clipped into the box, or, when a row
        fails there, the box's cold LP solve, clipped. Returns a list of
        floats, or None when that solve is not optimal."""
        lo, hi = node.lo, node.hi
        x = np.clip(node.lp.x, lo, hi).tolist()
        if self._satisfied(x):
            return x
        res = self.solver.solve(lo, hi)
        if res.is_optimal:
            return np.clip(res.x, lo, hi).tolist()
        return None

    def _integral_step(self, node: Node):
        """The step at a node whose LP is integral, as (children, x): a
        partition branch on the lowest unfixed integer column, or, when
        every integer column is fixed, no children and the ``_complete``
        solution (None when there is none)."""
        ints = self._ints
        if len(ints):  # argmax refuses an instance with no integer column
            free = node.hi[ints] - node.lo[ints] > 0.5
            k = int(free.argmax())  # the first free column, or 0 when none is
            if free[k]:
                return self.partition_branch(node, int(ints[k])), None
        return [], self._complete(node)

    def enumerate_unrestricted(self, node: Node, pool: SolutionPool, deadline: float = None):
        """Add every integer assignment of an unrestricted node's box to the
        pool, with its objective.

        Assignments run in lexicographic order (ascending column, values
        ascending). The other columns take the node LP values clipped into
        the box, which puts a fixed integer column at its value. Every point
        lies in the box, where the box test proved every row, so no point is
        checked. Points go to the pool in batches
        of at most ``WALK_CHUNK``, and never more than the pool has room
        for, so the pool cannot fill inside a batch; a batch is handed over
        when it is full, when the clock (``deadline``, a
        ``time.perf_counter`` value, checked before every point) runs out,
        and at the end. Returns (added, completed) where completed is False
        when capacity or the clock cut the walk short.
        """
        lo, hi = node.lo, node.hi
        free = [j for j in self.integer_index if hi[j] - lo[j] > 0.5]
        base = np.clip(node.lp.x, lo, hi).tolist()  # Python floats: cheaper per point
        first = [int(lo[j]) for j in free]
        last = [int(hi[j]) for j in free]
        added = 0
        xs, objectives = [], []
        batch = 0
        for x in _box_points(base, free, first, last):
            if len(xs) == batch:
                added += pool.add_rows(xs, objectives)
                xs, objectives = [], []
                batch = min(WALK_CHUNK, pool.room)
            if pool.is_full or _limit_reached(deadline):
                return added + pool.add_rows(xs, objectives), False
            xs.append(x)
            objectives.append(self._objective(x))
        return added + pool.add_rows(xs, objectives), True

    # -- count mode --------------------------------------------------------------

    def run(self, p1: int = None, node_limit: int = None, time_limit: float = None,
            trace_path: str = None) -> CountResult:
        check_limits(node_limit, time_limit)
        t0 = time.perf_counter()
        deadline = None if time_limit is None else t0 + time_limit
        pool = SolutionPool(self.instance, capacity=p1, dedup=self.dedup)
        selector = Selector(self.selector_config, num_integer_vars=len(self.integer_index))
        result = CountResult(pool=pool)
        hasher = hashlib.sha256()
        trace_fh = open(trace_path, "w") if trace_path else None
        truncated_enum = False
        next_id = 1

        def emit(node_id: int, depth: int, bound: float, classification: str):
            line = trace_line(node_id, depth, bound, classification, len(pool)) + "\n"
            hasher.update(line.encode())
            if trace_fh:
                trace_fh.write(line)

        try:
            root = self._root()
            if root.lp.status is LpStatus.UNBOUNDED:
                raise EngineError("root relaxation is unbounded; add bounds or a cutoff")
            if root.lp.status is LpStatus.INFEASIBLE:
                if _limit_reached(deadline, 0, node_limit):
                    result.truncated = True
                    return result
                result.nodes_processed = 1
                emit(0, 0, None, INFEASIBLE)
                result.exhausted = True
                return result
            root.estimate = self._estimate(root.lp)
            selector.push(root)

            while len(selector) and not pool.is_full:
                if _limit_reached(deadline, result.nodes_processed, node_limit):
                    result.truncated = True
                    break
                node = selector.pop(selector.select(pool))
                result.nodes_processed += 1
                cls = self.classify(node)
                emit(node.id, node.depth, node.lp_bound, cls)

                if cls == INFEASIBLE:
                    continue
                if cls == UNRESTRICTED:
                    result.unrestricted_subtrees += 1
                    _, completed = self.enumerate_unrestricted(node, pool, deadline)
                    if not completed:
                        if not pool.is_full:  # the clock ran out mid-walk
                            result.truncated = True
                            break
                        truncated_enum = True
                    continue
                if cls == INTEGER_FEASIBLE:
                    children, x = self._integral_step(node)
                    if x is not None:
                        pool.add(x, self._objective(x))
                else:
                    children = self.branch(node)

                for child in children:
                    child.id = next_id
                    next_id += 1
                    child_status = child.lp.status
                    if child_status is LpStatus.INFEASIBLE:
                        emit(child.id, child.depth, None, INFEASIBLE)
                        continue
                    if child_status is LpStatus.STALLED:
                        result.stalled_dropped += 1
                        log.warning("node %d dropped: its LP stalled", child.id)
                        emit(child.id, child.depth, None, STALLED)
                        continue
                    # a kept LP is the parent's, and so is its estimate
                    child.estimate = (node.estimate if child.lp.x is node.lp.x
                                      else self._estimate(child.lp))
                    selector.push(child)

            result.exhausted = len(selector) == 0 and not result.truncated and not truncated_enum
            return result
        finally:
            result.trace_hash = hasher.hexdigest()
            result.wall_time_s = time.perf_counter() - t0
            if trace_fh:
                trace_fh.close()

    # -- optimize mode -----------------------------------------------------------

    def optimize(self, node_limit: int = None, time_limit: float = None) -> OptimumResult:
        """Optimal value by best-first branch and bound with incumbent pruning.

        Nodes leave a heap in (LP bound, node id) order; a node or child
        whose bound is not below the incumbent by 1e-9 is pruned. At a node
        with an integral LP, the LP point with its integer columns rounded
        is a candidate when it satisfies every row; otherwise the node takes
        ``run``'s step (``_integral_step``), and its completed solution, if
        any, is the candidate. A candidate below the incumbent's objective,
        at its own point, replaces it. Stops with status ``limit`` when a
        node or time limit trips.
        """
        check_limits(node_limit, time_limit)
        t0 = time.perf_counter()
        deadline = None if time_limit is None else t0 + time_limit
        nodes = 0

        def result(status, objective=None, x=None):
            return OptimumResult(status, objective, x, nodes, time.perf_counter() - t0)

        ints = self.integer_index
        if np.any(self.root_lo[ints] > self.root_hi[ints]):
            return result("infeasible")  # integer bounds rounded to an empty box
        root = self._root()
        if root.lp.status is not LpStatus.OPTIMAL:
            if _limit_reached(deadline, 0, node_limit):
                return result("limit")
            nodes = 1
            return result(root.lp.status.value)

        inc_val, inc_x = math.inf, None
        status = "optimal"
        next_id = 1
        heap = [(root.lp_bound, root.id, root)]
        while heap:
            if _limit_reached(deadline, nodes, node_limit):
                status = "limit"
                break
            bound, _, node = heapq.heappop(heap)
            if bound >= inc_val - 1e-9:
                continue
            nodes += 1
            if node.lp.fractional:
                children = self.branch(node)
            else:
                point, children = node.lp.x.tolist(), []
                for j in self.integer_index:
                    point[j] = float(round(point[j]))  # round gives an int: no -0.0
                if not self._satisfied(point):
                    children, point = self._integral_step(node)
                if point is not None:
                    value = self._objective(point)
                    if value < inc_val:
                        inc_val, inc_x = value, np.array(point)
            for child in children:
                child.id = next_id
                next_id += 1
                child_status = child.lp.status
                if child_status is LpStatus.INFEASIBLE:
                    continue
                if child_status is LpStatus.STALLED:
                    raise EngineError("LP stalled during optimization")
                if child_status is LpStatus.UNBOUNDED:
                    return result("unbounded")
                if child.lp_bound >= inc_val - 1e-9:
                    continue
                heapq.heappush(heap, (child.lp_bound, child.id, child))

        if inc_x is None:
            return result("limit" if status == "limit" else "infeasible")
        return result(status, float(inc_val), inc_x)
