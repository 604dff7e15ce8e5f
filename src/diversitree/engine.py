"""Branch and bound over one node representation, in two modes.

Each node carries its box and its own LP relaxation, solved when the node
is created (warm-started from the parent basis). ``optimize`` finds
the optimal value: best-first on the LP bound with incumbent pruning.
``run`` enumerates near-optimal solutions into a bounded pool and
classifies each dequeued node:

* infeasible nodes are discarded,
* *unrestricted* nodes, where every constraint holds for every assignment
  inside the local box, have their whole subtree enumerated wholesale,
* nodes with an integral LP and every integer variable fixed contribute a
  single completed solution,
* anything else is split in two, on the most-fractional variable when one
  exists, otherwise on a partitioning disjunction over an unfixed integer
  variable so each solution is reachable through exactly one leaf.

A child whose LP stalls is dropped at creation. The run stops when the
queue empties, the pool reaches capacity, or a node/time limit trips.
Everything is deterministic for a fixed instance and configuration; a
trace hash over the dequeue sequence witnesses it.
"""

import hashlib
import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .diversity import project_binary
from .model import FEAS_TOL, GE, INT_TOL, LE, MipInstance
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

    ``lo`` and ``hi`` are the box, a copy of the parent's with the branched
    column changed. ``path`` lists the binary fixings in the order they were
    made, as term indices 2k + value over the positions k in
    ``binary_index`` (see ``selectors.term_vector``).
    """

    id: int
    parent_id: int
    depth: int
    lo: np.ndarray
    hi: np.ndarray
    path: tuple = ()
    lp: LpResult = None
    estimate: float = math.nan  # bound plus fractionality repair

    @property
    def lp_bound(self) -> float:
        return self.lp.objective


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

    def projection_matrix(self) -> np.ndarray:
        return self.projections


class OpenNodeQueue:
    """Open nodes by id, their scoring columns, and lazily maintained lpBound extrema.

    After :meth:`sync`, rows ``[:len(self)]`` of the numpy columns ``bound``,
    ``depth``, ``ids``, ``estimate``, ``path`` and ``path_len`` describe the
    open nodes, in no particular order: a pop moves the last row into the
    hole, and the columns double when full. A node gets its row at the first
    ``sync`` after its push, so a run that only dequeues from the heap never
    writes one. A node's ``path`` row is a copy of ``Node.path``, padded with
    2 * num_binaries, the index of the term vector's 0.0.

    The min-heap holds (bound, id) pairs, so its front is also the least
    bound with the lowest id among equal bounds.
    """

    _COLUMNS = ("bound", "depth", "ids", "estimate", "path", "path_len")

    def __init__(self, num_binaries: int = 0):
        self.nodes = {}
        self._min_heap = []
        self._max_heap = []
        self.pad = 2 * num_binaries
        self._row = {}  # node id -> row, for the nodes synced so far
        self._unsynced = {}  # node id -> node pushed since the last sync
        capacity = 16
        self.bound = np.empty(capacity)
        self.depth = np.empty(capacity, dtype=np.int64)
        self.ids = np.empty(capacity, dtype=np.int64)
        self.estimate = np.empty(capacity)
        self.path = np.full((capacity, 1), self.pad, dtype=np.intp)
        self.path_len = np.empty(capacity, dtype=np.int64)

    def __len__(self):
        return len(self.nodes)

    def push(self, node: Node):
        self.nodes[node.id] = node
        self._unsynced[node.id] = node
        heapq.heappush(self._min_heap, (node.lp_bound, node.id))
        heapq.heappush(self._max_heap, (-node.lp_bound, node.id))

    def pop(self, node_id: int) -> Node:
        if self._unsynced.pop(node_id, None) is None:
            last = len(self._row) - 1
            row = self._row.pop(node_id)
            if row != last:
                for name in self._COLUMNS:
                    col = getattr(self, name)
                    col[row] = col[last]
                self._row[int(self.ids[row])] = row
        return self.nodes.pop(node_id)

    def sync(self) -> int:
        """Give every node pushed since the last call its row; returns ``len(self)``."""
        for node in self._unsynced.values():
            self._append(node)
        self._unsynced.clear()
        return len(self.nodes)

    def _append(self, node: Node):
        path = node.path
        row = len(self._row)
        if row == len(self.ids):
            for name in self._COLUMNS:
                col = getattr(self, name)
                grown = np.empty((2 * len(col),) + col.shape[1:], dtype=col.dtype)
                grown[:row] = col
                setattr(self, name, grown)
        if len(path) > self.path.shape[1]:
            wide = np.full((len(self.path), 2 * len(path)), self.pad, dtype=np.intp)
            wide[:row, :self.path.shape[1]] = self.path[:row]
            self.path = wide
        self._row[node.id] = row
        self.bound[row] = node.lp_bound
        self.depth[row] = node.depth
        self.ids[row] = node.id
        self.estimate[row] = node.estimate
        self.path[row, :len(path)] = path
        self.path[row, len(path):] = self.pad
        self.path_len[row] = len(path)

    def _front(self, heap, sign: float) -> float:
        while heap:
            bound, nid = heap[0]
            node = self.nodes.get(nid)
            if node is None or node.lp_bound != sign * bound:
                heapq.heappop(heap)
                continue
            return sign * bound
        return math.nan

    def min_bound(self) -> float:
        return self._front(self._min_heap, 1.0)

    def min_id(self) -> int:
        """Id of the open node with the least bound, lowest id on ties."""
        self._front(self._min_heap, 1.0)
        return self._min_heap[0][1]

    def max_bound(self) -> float:
        return self._front(self._max_heap, -1.0)


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
    for j in lp.fractional:
        f = lp.x[j] - math.floor(lp.x[j])
        gap = abs(f - 0.5)
        if gap < best_gap:
            best, best_gap = j, gap
    return best


def _dot(terms, x) -> float:
    """Sum of a * x[j] over (j, a) in terms, added left to right.

    The builtin ``sum`` does the same over numpy scalars, but from Python
    3.12 on it compensates over Python floats, which would move bits.
    """
    total = 0.0
    for j, a in terms:
        total += a * x[j]
    return total


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
        # every constraint as (terms, sense, rhs) for point checks, terms in
        # the order of its coefficient dict, the order LinearConstraint adds
        self.row_table = [(list(con.coeffs.items()), con.sense, con.rhs)
                          for con in instance.constraints]
        # the same rows for the box test, as (columns, coefficients, sense,
        # rhs) with the terms in ascending column order
        self.box_rows = []
        for terms, sense, rhs in self.row_table:
            terms = sorted(terms)
            self.box_rows.append((np.asarray([j for j, _ in terms], dtype=int),
                                  np.asarray([a for _, a in terms], dtype=float), sense, rhs))
        self.objective_terms = list(instance.objective.items())
        # pool position of each binary column, for the term indices of Node.path
        self.binary_pos = {j: k for k, j in enumerate(instance.binary_index)}

    # -- node geometry --------------------------------------------------------

    def classify(self, node: Node) -> str:
        if node.lp.status != LpStatus.OPTIMAL:
            return INFEASIBLE
        if self.is_unrestricted(node.lo, node.hi):
            return UNRESTRICTED
        if not node.lp.fractional:
            return INTEGER_FEASIBLE
        return BRANCHABLE

    def is_unrestricted(self, lo, hi) -> bool:
        """True when every row holds at its worst point of the local box:
        the least activity over the box for a ``>=`` row, the greatest for
        a ``<=`` row, and both for an equality. The comparisons are written
        so that a NaN activity (an unbounded box) fails them."""
        for idx, coef, sense, rhs in self.box_rows:
            if sense != LE:
                least = np.where(coef > 0, coef * lo[idx], coef * hi[idx]).sum()
                if not least >= rhs - FEAS_TOL:
                    return False
            if sense != GE:
                most = np.where(coef > 0, coef * hi[idx], coef * lo[idx]).sum()
                if not most <= rhs + FEAS_TOL:
                    return False
        return True

    def _estimate(self, lp: LpResult) -> float:
        est = lp.objective
        for j in lp.fractional:
            f = lp.x[j] - math.floor(lp.x[j])
            est += min(f, 1.0 - f) * abs(self.solver.c[j])
        return est

    def _root(self) -> Node:
        root = Node(id=0, parent_id=None, depth=0, lo=self.root_lo, hi=self.root_hi)
        root.lp = self.solver.solve(root.lo, root.hi)
        if root.lp.status == LpStatus.STALLED:
            raise EngineError("root relaxation stalled")
        return root

    def _child(self, node: Node, j: int, lo_j: float, hi_j: float) -> Node:
        """Child with column j in [lo_j, hi_j], LP warm-solved; the caller sets its id.

        Its box copies the parent's, and its path gains a term when the split
        fixes a binary column.
        """
        lo, hi = node.lo.copy(), node.hi.copy()
        lo[j], hi[j] = lo_j, hi_j
        path = node.path
        if lo_j == hi_j and j in self.binary_pos:
            path += (2 * self.binary_pos[j] + int(lo_j),)
        child = Node(id=-1, parent_id=node.id, depth=node.depth + 1, lo=lo, hi=hi, path=path)
        child.lp = self.solver.resolve(node.lp.basis, lo, hi)
        return child

    def branch(self, node: Node):
        """Two children on the most-fractional column: floor and ceil sides."""
        j = most_fractional(node.lp)
        v = node.lp.x[j]
        down = self._child(node, j, node.lo[j], math.floor(v))
        up = self._child(node, j, math.ceil(v), node.hi[j])
        return [down, up]

    def partition_branch(self, node: Node, j: int):
        """Split on column j, the lowest unfixed integer column, when the LP is integral.

        Children [lo, v] / [v+1, hi] partition the box, so the solution at
        this node is counted by exactly one descendant leaf.
        """
        lo, hi = node.lo, node.hi
        v = float(round(node.lp.x[j]))
        v = min(max(v, lo[j]), hi[j])
        if v >= hi[j]:
            return [self._child(node, j, lo[j], v - 1.0), self._child(node, j, v, v)]
        return [self._child(node, j, lo[j], v), self._child(node, j, v + 1.0, hi[j])]

    # -- solution extraction ---------------------------------------------------

    def _rows_hold(self, x) -> bool:
        """Every constraint holds at x, tested as ``LinearConstraint.satisfied`` does."""
        for terms, sense, rhs in self.row_table:
            act = _dot(terms, x)
            if sense == GE:
                ok = act >= rhs - FEAS_TOL
            elif sense == LE:
                ok = act <= rhs + FEAS_TOL
            else:
                ok = abs(act - rhs) <= FEAS_TOL
            if not ok:
                return False
        return True

    def _objective(self, x) -> float:
        """``MipInstance.objective_value``, bit for bit."""
        return _dot(self.objective_terms, x)

    def _complete(self, x, lo, hi):
        """Validate a candidate (a list of floats); re-solve the continuous
        completion if a row fails. Returns a list of floats, or None."""
        if self._rows_hold(x):
            return x
        lo2, hi2 = lo.copy(), hi.copy()
        for j in self.integer_index:
            lo2[j] = hi2[j] = x[j]
        res = self.solver.solve(lo2, hi2)
        if res.is_optimal:
            return res.x.tolist()
        return None

    def enumerate_unrestricted(self, node: Node, pool: SolutionPool, deadline: float = None):
        """Add every integer assignment of the node's box to the pool.

        Assignments run in lexicographic order (ascending column, values
        ascending). Continuous columns keep the node LP values, which the
        unrestricted test guarantees feasible. Completed points go to the
        pool in batches of at most ``WALK_CHUNK``, and never more than the
        pool has room for, so the pool cannot fill inside a batch; a batch
        is handed over when it is full, when the clock (``deadline``, a
        ``time.perf_counter`` value, checked before every point) runs out,
        and at the end. Returns (added, infeasible, completed) where
        completed is False when capacity or the clock cut the walk short.
        """
        lo, hi = node.lo, node.hi
        free = [j for j in self.integer_index if hi[j] - lo[j] > 0.5]
        base = node.lp.x.copy()
        for j in self.integer_index:
            if j not in free:
                base[j] = round(lo[j])
        base = base.tolist()  # Python floats: cheaper per point than numpy scalars
        values = [[float(v) for v in range(int(lo[j]), int(hi[j]) + 1)] for j in free]
        added = 0
        infeasible = 0
        xs, objectives = [], []
        batch = 0
        for combo in itertools.product(*values):
            if len(xs) == batch:
                added += pool.add_rows(xs, objectives)
                xs, objectives = [], []
                batch = min(WALK_CHUNK, pool.room)
            if pool.is_full or _limit_reached(deadline):
                return added + pool.add_rows(xs, objectives), infeasible, False
            x = base.copy()
            for j, v in zip(free, combo):
                x[j] = v
            x = self._complete(x, lo, hi)
            if x is None:
                infeasible += 1
                continue
            xs.append(x)
            objectives.append(self._objective(x))
        return added + pool.add_rows(xs, objectives), infeasible, True

    # -- count mode --------------------------------------------------------------

    def run(self, p1: int = None, node_limit: int = None, time_limit: float = None,
            trace_path: str = None) -> CountResult:
        t0 = time.perf_counter()
        deadline = None if time_limit is None else t0 + time_limit
        pool = SolutionPool(self.instance, capacity=p1, dedup=self.dedup)
        selector = Selector(self.selector_config, num_integer_vars=len(self.integer_index))
        queue = OpenNodeQueue(len(self.binary_pos))
        result = CountResult(pool=pool)
        hasher = hashlib.sha256()
        trace_fh = open(trace_path, "w") if trace_path else None
        truncated_enum = False
        next_id = 1

        def emit(node_id: int, depth: int, bound: float, classification: str):
            line = trace_line(node_id, depth, bound, classification, len(pool))
            hasher.update(line.encode())
            hasher.update(b"\n")
            if trace_fh:
                trace_fh.write(line + "\n")

        try:
            root = self._root()
            if root.lp.status == LpStatus.UNBOUNDED:
                raise EngineError("root relaxation is unbounded; add bounds or a cutoff")
            if root.lp.status == LpStatus.INFEASIBLE:
                result.nodes_processed = 1
                emit(0, 0, None, INFEASIBLE)
                result.exhausted = True
                return result
            root.estimate = self._estimate(root.lp)
            queue.push(root)
            selector.on_enqueue(root)

            while len(queue) and not pool.is_full:
                if _limit_reached(deadline, result.nodes_processed, node_limit):
                    result.truncated = True
                    break
                node = queue.pop(selector.select(queue, pool))
                selector.on_dequeue(node)
                result.nodes_processed += 1
                cls = self.classify(node)
                emit(node.id, node.depth, node.lp_bound, cls)

                if cls == INFEASIBLE:
                    continue
                if cls == UNRESTRICTED:
                    result.unrestricted_subtrees += 1
                    _, _, completed = self.enumerate_unrestricted(node, pool, deadline)
                    if not completed:
                        if not pool.is_full:  # the clock ran out mid-walk
                            result.truncated = True
                            break
                        truncated_enum = True
                    continue
                if cls == INTEGER_FEASIBLE:
                    ints = self._ints
                    free = np.flatnonzero(node.hi[ints] - node.lo[ints] > 0.5)
                    if not len(free):
                        x = self._complete(node.lp.x.tolist(), node.lo, node.hi)
                        if x is not None:
                            pool.add(x, self._objective(x))
                        continue
                    children = self.partition_branch(node, int(ints[free[0]]))
                else:
                    children = self.branch(node)

                for child in children:
                    child.id = next_id
                    next_id += 1
                    if child.lp.status == LpStatus.INFEASIBLE:
                        emit(child.id, child.depth, None, INFEASIBLE)
                        continue
                    if child.lp.status == LpStatus.STALLED:
                        result.stalled_dropped += 1
                        log.warning("node %d dropped: its LP stalled", child.id)
                        emit(child.id, child.depth, None, STALLED)
                        continue
                    child.estimate = self._estimate(child.lp)
                    queue.push(child)
                    selector.on_enqueue(child)

            result.exhausted = len(queue) == 0 and not result.truncated and not truncated_enum
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
        whose bound is not below the incumbent by 1e-9 is pruned, and an
        integral LP becomes the incumbent. Stops with status ``limit`` when
        a node or time limit trips.
        """
        t0 = time.perf_counter()
        deadline = None if time_limit is None else t0 + time_limit
        nodes = 0

        def result(status, objective=None, x=None):
            return OptimumResult(status, objective, x, nodes, time.perf_counter() - t0)

        ints = self.integer_index
        if np.any(self.root_lo[ints] > self.root_hi[ints]):
            return result("infeasible")  # integer bounds rounded to an empty box
        root = self._root()
        if root.lp.status != LpStatus.OPTIMAL:
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
            if not node.lp.fractional:
                if node.lp.objective < inc_val:
                    inc_val, inc_x = node.lp.objective, node.lp.x.copy()
                continue
            for child in self.branch(node):
                child.id = next_id
                next_id += 1
                if child.lp.status == LpStatus.INFEASIBLE:
                    continue
                if child.lp.status == LpStatus.STALLED:
                    raise EngineError("LP stalled during optimization")
                if child.lp.status == LpStatus.UNBOUNDED:
                    return result("unbounded")
                if child.lp_bound >= inc_val - 1e-9:
                    continue
                heapq.heappush(heap, (child.lp_bound, child.id, child))

        if inc_x is None:
            return result("limit" if status == "limit" else "infeasible")
        for j in ints:
            inc_x[j] = round(inc_x[j])
        return result(status, float(inc_val), inc_x)
