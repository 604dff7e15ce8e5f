"""Benchmark of the diversitree pipeline: one workload per run.

    python3 perfbench/run.py --workload cluster-full --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run times whole passes over the
workload's operations with nothing wrapped and reports the end-to-end
metrics. With ``--trace 1`` it alternates plain and traced passes and
reports the per-layer metrics and the tracing overhead. Either way it then
runs every operation once more, checks those outputs against the
independent oracles in ``oracles.py``, and checks that every timed pass
produced the same outputs. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One single-threaded process per workload: pin BLAS before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "pool_dbin": "ratio",
    "subset_dbin": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diversitree" / "__init__.py").is_file():
        print(f"no diversitree sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import diversitree as dt
    import oracles
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = tr.Tracer() if args.trace else None

    # -- set-up: import, generation and MPS round trip, several times -----------------
    setup_times, parse_times = [], []
    if tracer is None:
        for _ in range(SETUP_REPEATS):
            child = subprocess.run(
                [sys.executable, str(HERE / "setup_time.py"), args.workload, str(args.seed)],
                capture_output=True, text=True, check=True, timeout=120)
            setup_times.append(float(child.stdout))
        ops = wl.build_ops(args.workload, args.seed)
    else:
        for rep in range(SETUP_REPEATS):
            tracer.begin_pass(f"setup{rep}")
            with tracer.tracing(dt):
                ops = wl.build_ops(args.workload, args.seed)
            parse_times.append(tracer.stats["mps.parse_mps"][1])

    # -- timed passes ----------------------------------------------------------------------
    attempted = failed = 0
    failed_ops = set()
    digests = {}  # op name -> set of output digests seen
    quality = []  # (pool_dbin, subset_dbin) per pass
    plain_s, traced_s, layers = [], [], []

    def one_pass(traced):
        nonlocal attempted, failed
        pool_d, subset_d = [], []
        elapsed = 0.0
        for op in ops:
            # the time-limited operation stays untraced: once its limit works,
            # its counts depend on the clock and would no longer repeat
            wrap = traced and not op.time_limited
            with tracer.tracing(dt, f"op.{op.name}") if wrap else contextlib.nullcontext():
                t = time.perf_counter()
                out = wl.run_op(op)
                elapsed += time.perf_counter() - t
            attempted += 1
            if wl.op_failed(op, out):
                failed += 1
                failed_ops.add(op.name)
            if not op.time_limited:
                digests.setdefault(op.name, set()).add(digest(op, out))
                if op.command == "diverse":
                    pool_d.append(out.result.dbin_pool)
                    subset_d.append(out.result.dbin_subset)
                else:
                    pool_d.append(out.pool_dbin)
            del out
        gc.collect()
        quality.append((statistics.fmean(pool_d), statistics.fmean(subset_d)))
        return elapsed

    start = time.perf_counter()
    pass_no = 0
    while True:
        if tracer is None:
            plain_s.append(one_pass(False))
        else:
            plain_s.append(one_pass(False))
            tracer.begin_pass(pass_no)
            traced_s.append(one_pass(True))
            layers.append(tr.layer_metrics(tracer.stats, tracer.counters))
        pass_no += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- check pass: rerun each operation once and check it independently -------------
    problems, fingerprint = check_outputs(dt, wl, oracles, tr, args.workload, ops, digests)

    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(layers, parse_times, plain_s, traced_s, problems)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(plain_s),
            "peak_rss_mb": peak_rss_mb,
            "pool_dbin": statistics.median(q[0] for q in quality),
            "subset_dbin": statistics.median(q[1] for q in quality),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'pass times (s)':28s} {' '.join(f'{t:.3f}' for t in plain_s)}"
          + (f" | traced {' '.join(f'{t:.3f}' for t in traced_s)}" if traced_s else ""))
    print(f"{'attempted':28s} {attempted}")
    print(f"{'failed':28s} {failed} {' '.join(sorted(failed_ops))}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def digest(op, out):
    """Hash of an operation's output; equal hashes mean equal outputs."""
    if op.command == "diverse":
        return hashlib.sha256(out.result.to_json().encode()).hexdigest()
    opt, count = out.result
    h = hashlib.sha256()
    h.update(json.dumps([opt.objective, count.trace_hash, count.nodes_processed,
                         count.exhausted, count.truncated, out.pool_dbin]).encode())
    for x, v in zip(count.pool.solutions, count.pool.objectives):
        h.update(x.tobytes())
        h.update(repr(v).encode())
    return h.hexdigest()


def check_outputs(dt, wl, oracles, tr, workload, ops, digests):
    """Rerun every operation, check it against the oracles, and check that
    the timed passes produced the same output. Returns (problems, fingerprint)."""
    problems = []
    fingerprint = {}
    references = {}  # id(generated instance) -> (z*, closed-form pool or None)
    for op in ops:
        problems += [f"{op.name}: {p}" for p in oracles.round_trip_problems(op.source, op.instance)]
        counts = []

        def capture(self, *args, _run=dt.engine.BranchAndCount.run, **kwargs):
            result = _run(self, *args, **kwargs)
            counts.append(result)
            return result

        with tr.patched([(dt.engine.BranchAndCount, "run", capture)]):
            out = wl.run_op(op)
        if not op.time_limited and digests.get(op.name) != {digest(op, out)}:
            problems.append(f"{op.name}: the timed passes gave {len(digests.get(op.name, ()))} "
                            "distinct outputs, or one unlike the checked run")
        if id(op.source) not in references:
            references[id(op.source)] = reference(oracles, wl, workload, op)
        z_star, expected = references[id(op.source)]
        found, fingerprint[op.name] = check_op(oracles, op, out, counts[-1], z_star, expected)
        problems += [f"{op.name}: {p}" for p in found]
        del out, counts
        gc.collect()
    return problems, fingerprint


def reference(oracles, wl, workload, op):
    """(z*, closed-form near-optimal pool or None) of the generated instance."""
    if workload == "rand-capped":
        return oracles.milp_z_star(op.source), None
    if workload == "cluster-full":
        points = oracles.cluster_points(op.source, wl.CLUSTER_RADIUS)
    else:
        points = oracles.box_points(op.source)
    z_star, members = oracles.near_optimal(op.source, points, op.spec.q)
    return z_star, oracles.as_keys(members)


def check_op(oracles, op, out, count, z_star, expected):
    """(problems, fingerprint) of one operation's output."""
    pool = count.pool
    sols = [x.tolist() for x in pool.solutions]
    problems, rows = oracles.check_pool(op, sols, pool.objectives, z_star, expected)
    if op.spec.p1 is not None and len(sols) != op.spec.p1 and not count.exhausted:
        problems.append(f"pool stopped at {len(sols)} of {op.spec.p1} without exhausting "
                        "the tree")
    if op.spec.p1 is None and not op.time_limited and not (count.exhausted
                                                           and not count.truncated):
        problems.append("unbounded enumeration did not run to exhaustion")

    if op.command == "diverse":
        res = out.result
        reported_z, pool_dbin = res.z_star, res.dbin_pool
        if res.pool_size != len(sols):
            problems.append(f"poolSize {res.pool_size}, pool {len(sols)}")
        problems += oracles.check_subset(rows, res.subset_indices, op.spec.p, res.dbin_subset)
        if res.subset_objectives != [pool.objectives[i] for i in res.subset_indices]:
            problems.append("subset objectives do not match the pool")
        fingerprint = {"traceHash": res.trace_hash, "poolSize": res.pool_size,
                       "subsetIndices": res.subset_indices, "zStar": res.z_star}
    else:
        opt, _ = out.result
        reported_z, pool_dbin = opt.objective, out.pool_dbin
        fingerprint = {"traceHash": count.trace_hash, "poolSize": len(sols),
                       "subsetIndices": [], "zStar": opt.objective}
    if abs(reported_z - z_star) > oracles.TOL:
        problems.append(f"z* {reported_z}, oracle {z_star}")
    if len(rows) >= 2:
        # pairs for pools the double loop can afford, per-bit counts beyond
        want = (oracles.pairwise_dbin(rows) if len(rows) <= 1000
                else oracles.bitcount_dbin(rows))
        if abs(want - pool_dbin) > 1e-9 * max(1.0, want):
            problems.append(f"pool DBin {pool_dbin} reported, {want} recomputed")
    return problems, fingerprint


def per_layer(layers, parse_times, plain_s, traced_s, problems):
    """Median per-layer metrics over the traced passes; counts must repeat."""
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            value, unit = statistics.median(values), "s"
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {sorted(set(values))}")
            value = values[0]
            unit = "bytes" if name.endswith("_bytes") else (
                "ratio" if name.endswith(("_ratio", "_per_select")) else "count")
        metrics[name] = {"value": value, "unit": unit}
    metrics["mps.parse_s"] = {"value": statistics.median(parse_times), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_s) - statistics.median(plain_s), "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
