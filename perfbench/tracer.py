"""In-memory span recorder for the traced passes.

Each target is a public function or method, wrapped at the attribute the
program looks it up through (a class attribute or a module global), so the
program itself is unchanged. A call to a target opens a span with a name,
a start, an end and the span that caused it. Spans stay in memory and are
written out once the benchmark ends.

Three targets are called up to hundreds of thousands of times a pass
(``Selector.score``, ``SolutionPool.add``, ``subset.dbin_delta``). Their
calls are folded into one record per parent span (calls and total time),
which keeps the trace small and the wrapper cheap.

A span's self time is its duration minus the durations of the spans it
caused. ``layer_metrics`` turns one pass of call statistics into the
per-layer metrics of the benchmark.
"""

import contextlib
import json
import time

clock = time.perf_counter


class _Frame:
    __slots__ = ("id", "child", "folded")

    def __init__(self, span_id):
        self.id = span_id
        self.child = 0.0  # time covered by the spans this one caused
        self.folded = {}  # hot-leaf name -> [calls, total_s]


class Tracer:
    def __init__(self):
        self.spans = []  # (pass, id, parent, name, start, end)
        self.folded = []  # (pass, parent, name, calls, total_s)
        self.stack = []
        self.pass_no = 0
        self.stats = {}  # name -> [calls, total_s, self_s] for the current pass
        self.counters = {}
        self._next_id = 0

    def begin_pass(self, pass_no):
        self.pass_no = pass_no
        self.stats = {}
        self.counters = {}

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- wrappers ----------------------------------------------------------------

    @contextlib.contextmanager
    def open(self, name):
        """Record one span around the body of a with-statement."""
        frame = _Frame(self._next_id)
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self.stack.pop()
            self._close(name, frame, parent, start, end)

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(tracer, result)``
        reads counts off a successful call."""

        def wrapper(*args, **kwargs):
            with self.open(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def leaf(self, name, fn, after=None):
        """Wrap a hot leaf: calls fold into the parent span's record."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur
            if stack:
                top = stack[-1]
                top.child += dur
                rec = top.folded.get(name)
                if rec is None:
                    top.folded[name] = [1, dur]
                else:
                    rec[0] += 1
                    rec[1] += dur
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame.child
        if parent is not None:
            parent.child += dur
        self.spans.append((self.pass_no, frame.id, None if parent is None else parent.id,
                           name, start, end))
        for leaf_name, (calls, total) in frame.folded.items():
            self.folded.append((self.pass_no, frame.id, leaf_name, calls, total))

    @contextlib.contextmanager
    def tracing(self, dt, root=None):
        """Wrap the traced functions of package ``dt``; open a root span when named."""
        with patched(targets(self, dt)):
            if root is None:
                yield
            else:
                with self.open(root):
                    yield

    def write(self, path):
        """Write every recorded span and folded record as JSON lines."""
        with open(path, "w") as fh:
            for pass_no, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"pass": pass_no, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            for pass_no, parent, name, calls, total in self.folded:
                fh.write(json.dumps({"pass": pass_no, "parent": parent, "name": name,
                                     "calls": calls, "total": total}) + "\n")


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = value`` for each (owner, attr, value)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- what to wrap in diversitree, and what to read off each call -------------------

def _lp_counts(tracer, result):
    tracer.count("simplex.iterations", result.iterations)
    if result.status == "stalled":
        tracer.count("simplex.stalls")


def _pool_add(tracer, accepted):
    if accepted:
        tracer.count("engine.pool_accepted")


def _engine_run(tracer, result):
    tracer.count("engine.nodes", result.nodes_processed)


def _pairwise(tracer, result):
    n = result.shape[0]
    tracer.peak("diversity.pairwise_bytes", n * n * 8)


def targets(tracer, dt):
    """(owner, attr, wrapper) for each traced function of package ``dt``."""
    h, e, s, sel, sub, div, mps = (dt.harness, dt.engine, dt.simplex, dt.selectors,
                                    dt.subset, dt.diversity, dt.mps)
    spans = [
        (mps, "parse_mps", None),
        (h, "find_optimum", None),
        (h, "select_diverse_subset", None),
        (h, "dbin", None),
        (h, "dall", None),
        (div, "dbin", None),
        (e.BranchAndCount, "run", _engine_run),
        (e.BranchAndCount, "enumerate_unrestricted", None),
        (s.SimplexSolver, "solve", _lp_counts),
        (s.SimplexSolver, "resolve", _lp_counts),
        (sel.Selector, "select", None),
        (sub, "pairwise_ham", _pairwise),
    ]
    leaves = [
        (sel.Selector, "score", None),
        (e.SolutionPool, "add", _pool_add),
        (sub, "dbin_delta", None),
    ]
    out = []
    for owner, attr, after in spans:
        out.append((owner, attr, tracer.span(_name(owner, attr), getattr(owner, attr), after)))
    for owner, attr, after in leaves:
        out.append((owner, attr, tracer.leaf(_name(owner, attr), getattr(owner, attr), after)))
    return out


def _name(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def layer_metrics(stats, counters):
    """Per-layer metrics of one pass from its call statistics.

    ``harness.*`` are phase times (span durations with everything inside);
    the other ``*_s`` metrics are self times.
    """

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    select_calls = calls("selectors.Selector.select")
    score_calls = calls("selectors.Selector.score")
    add_calls = calls("engine.SolutionPool.add")
    return {
        "harness.optimize_s": total("harness.find_optimum"),
        "harness.count_s": total("engine.BranchAndCount.run"),
        "harness.subset_s": (total("harness.select_diverse_subset") + total("harness.dbin")
                             + total("harness.dall")),
        "simplex.cold_calls": calls("simplex.SimplexSolver.solve"),
        "simplex.cold_s": own("simplex.SimplexSolver.solve"),
        "simplex.warm_calls": calls("simplex.SimplexSolver.resolve"),
        "simplex.warm_s": own("simplex.SimplexSolver.resolve"),
        "simplex.iterations": counters.get("simplex.iterations", 0),
        "simplex.stalls": counters.get("simplex.stalls", 0),
        "selectors.select_calls": select_calls,
        "selectors.select_s": own("selectors.Selector.select") + own("selectors.Selector.score"),
        "selectors.score_calls": score_calls,
        "selectors.scan_per_select": score_calls / select_calls if select_calls else 0.0,
        "engine.nodes": counters.get("engine.nodes", 0),
        "engine.self_s": own("engine.BranchAndCount.run"),
        "engine.unrestricted_calls": calls("engine.BranchAndCount.enumerate_unrestricted"),
        "engine.unrestricted_s": own("engine.BranchAndCount.enumerate_unrestricted"),
        "engine.pool_add_calls": add_calls,
        "engine.pool_add_s": own("engine.SolutionPool.add"),
        "engine.pool_accept_ratio": (counters.get("engine.pool_accepted", 0) / add_calls
                                     if add_calls else 0.0),
        "subset.select_s": own("harness.select_diverse_subset"),
        "subset.delta_calls": calls("subset.dbin_delta"),
        "subset.delta_s": own("subset.dbin_delta"),
        "diversity.pairwise_s": own("subset.pairwise_ham"),
        "diversity.pairwise_bytes": counters.get("diversity.pairwise_bytes", 0),
        "diversity.dbin_s": own("harness.dbin") + own("diversity.dbin"),
    }
