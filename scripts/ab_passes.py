"""Paired timing of one benchmark workload on two source trees.

    python scripts/ab_passes.py cluster-full TREE_A TREE_B [--batches 30] [--seed 0]

Each tree is a checkout with ``src/diversitree`` and ``perfbench/``. One
persistent worker process per tree builds the workload's operations from
that tree's ``perfbench/workloads.py`` (the time-limited one left out, since
its output depends on the clock), runs one untimed pass, and then runs
timed batches of ``PASSES`` passes when asked. The batches alternate
between the two workers, and which worker goes first alternates too, so
slow drift of the machine falls on both trees alike.

It prints the two workers' output digests, which must match (else it exits
with status 1 before timing), then the ratio of tree B's batch time to tree
A's: the median with its quartiles over the batches, and how many batches
tree B won. Nothing under either tree is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PASSES = 3  # passes per timed batch

WORKER = r"""
import gc, hashlib, json, os, sys, time
tree, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
import run as bench
import workloads as wl
ops = [op for op in wl.build_ops(workload, seed) if not op.time_limited]

def one_pass(h=None):
    # as perfbench/run.py times a pass: the operations only, then a collection
    elapsed = 0.0
    for op in ops:
        t = time.perf_counter()
        out = wl.run_op(op)
        elapsed += time.perf_counter() - t
        if h is not None:
            h.update(bench.digest(op, out).encode())
        del out
    gc.collect()
    return elapsed

h = hashlib.sha256()
one_pass(h)
print(json.dumps({"digest": h.hexdigest()}), flush=True)
for line in sys.stdin:
    print(json.dumps({"seconds": sum(one_pass() for _ in range(int(line)))}), flush=True)
"""


def start(tree, workload, seed):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no __pycache__ in either tree
    return subprocess.Popen([sys.executable, "-c", WORKER, os.path.abspath(tree), workload,
                             str(seed)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env)


def ask(worker, passes=None):
    if passes is not None:
        worker.stdin.write(f"{passes}\n")
        worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise SystemExit("a worker exited early")
    return json.loads(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--batches", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.batches < 2:
        ap.error("need at least 2 batches")

    workers = [start(tree, args.workload, args.seed) for tree in (args.tree_a, args.tree_b)]
    try:
        digests = [ask(w)["digest"] for w in workers]
        print(f"digest A {digests[0]}")
        print(f"digest B {digests[1]}")
        if digests[0] != digests[1]:
            print("the trees' outputs differ; no timing", file=sys.stderr)
            return 1
        ratios = []
        for batch in range(args.batches):
            seconds = [0.0, 0.0]
            for k in ((0, 1) if batch % 2 == 0 else (1, 0)):
                seconds[k] = ask(workers[k], PASSES)["seconds"]
            ratios.append(seconds[1] / seconds[0])
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(r < 1.0 for r in ratios)
    print(f"ratio B/A {median:.3f} (quartiles {q1:.3f}-{q3:.3f}); "
          f"B faster in {wins} of {len(ratios)} batches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
