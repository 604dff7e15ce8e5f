"""Golden count-phase fingerprints.

The values below were computed by the loop-based simplex and the rescanning
node selector that preceded the masked pricing, the heap dequeue and the
array-scored open set. Those rewrites promise to change no pivot, no bound
bit and no dequeue, so every trace hash, pool, objective repr and
warm-solve result must stay exactly as pinned. A change that moves one of them on purpose must update
the value here and say why.

The CLI pins hold the exact stdout and trace-file bytes of ``solve``,
``enumerate``, ``diverse`` and ``compare`` on every shipped instance, so the
subset phase and the JSON writer are pinned too.

``python tests/test_golden.py`` prints the current values in the form they
are pinned in.
"""

import functools
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_lp
from diversitree import (
    ExperimentSpec,
    SelectorConfig,
    parse_mps,
    preset,
    random_binary_instance,
    run_phase_one,
    two_cluster_instance,
)
from diversitree.cli import main
from diversitree.simplex import SimplexSolver

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = sorted(p.name for p in INSTANCES.glob("*.mps"))

RAND_CFG = SelectorConfig(rule="diversitree", alpha=0.94, beta=0.06, sol_cutoff=0.2)
SHIPPED_RULES = {
    "bestfs": SelectorConfig(rule="bestfs"),
    "dbfs-ad": SelectorConfig(rule="dbfs-ad", alpha=0.6, depth_cutoff=2),
}
# every other rule, once as published (bonus D/H) and once with literal +D/+H
RAND_RULES = ["dbfs-a", "dbfs-ab", "dbfs-as", "dbfs-min", "dbfs-max", "dbfs-prod",
              "uct", "he", "dfs", "brfs"]


def count_cases():
    """name -> (instance factory, spec) for every pinned count-phase run."""
    cases = {
        "two_cluster_instance(14, 2) hhl": (
            lambda: two_cluster_instance(14, 2),
            ExperimentSpec(q=0.05, p1=None, selector=preset("hhl"))),
    }
    for k in range(3):
        cases[f"random_binary_instance({k}, 30, 12) diversitree"] = (
            lambda k=k: random_binary_instance(k, 30, 12),
            ExperimentSpec(q=0.1, p1=60, selector=RAND_CFG))
    for k in range(2):
        for rule in RAND_RULES:
            for literal in (False, True):
                cfg = SelectorConfig(rule=rule, alpha=0.6, beta=0.3, sol_cutoff=0.2,
                                     literal_score=literal)
                suffix = " literal" if literal else ""
                cases[f"random_binary_instance({k}, 30, 12) {rule}{suffix}"] = (
                    lambda k=k: random_binary_instance(k, 30, 12),
                    ExperimentSpec(q=0.1, p1=60, selector=cfg))
    for name in SHIPPED:
        for rule, cfg in SHIPPED_RULES.items():
            cases[f"{name} {rule}"] = (
                lambda name=name: parse_mps(str(INSTANCES / name)),
                ExperimentSpec(q=0.3, p1=None, selector=cfg))
    return cases


@functools.lru_cache(maxsize=None)
def count_fingerprint(name):
    """(trace hash, pool size, sha256 of repr(pool objectives)) of one run."""
    factory, spec = count_cases()[name]
    _, count = run_phase_one(factory(), spec)
    objectives = repr(count.pool.objectives).encode()
    return count.trace_hash, len(count.pool), hashlib.sha256(objectives).hexdigest()


# command -> (flags, whether it writes a trace); each runs on every shipped instance
CLI_RUNS = {
    "solve": (["solve"], False),
    "enumerate": (["enumerate", "--p1", "0", "--q", "0.1"], True),
    "diverse": (["diverse", "--preset", "hhl", "--q", "0.1", "--p1", "30"], True),
    "compare": (["compare", "--q", "0.1", "--p1", "30"], False),
}


def cli_cases():
    return [f"{name} {command}" for name in SHIPPED for command in CLI_RUNS]


def cli_fingerprint(case):
    """(exit code, sha256 of stdout, sha256 of the trace file or None) of one
    CLI run, in process."""
    name, command = case.rsplit(" ", 1)
    flags, traced = CLI_RUNS[command]
    args = [*flags, "--instance", str(INSTANCES / name)]
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.jsonl"
        if traced:
            args += ["--trace", str(trace)]
        res = CliRunner().invoke(main, args, catch_exceptions=False)
        trace_digest = hashlib.sha256(trace.read_bytes()).hexdigest() if traced else None
    return res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest(), trace_digest


def _bits(value):
    return None if value is None else repr(float(value))


def lp_fingerprint(res):
    """Every field of an LpResult, floats by repr and x by its bytes."""
    snap = res.basis
    return (
        res.status.value,
        _bits(res.objective),
        _bits(res.dual_objective),
        None if res.x is None else hashlib.sha256(res.x.tobytes()).hexdigest()[:16],
        res.fractional,
        None if snap is None else snap.basis.tolist(),
        None if snap is None else np.flatnonzero(snap.at_upper).tolist(),
        res.iterations,
    )


def warm_sequence(instance, calls):
    """The root's cold solve, then ``calls`` warm resolves down a
    breadth-first tree. A node splits on its lowest fractional column, or,
    when its LP is integral, on its lowest unfixed integer column."""
    solver = SimplexSolver(instance)
    lo0, hi0 = (np.asarray(b, dtype=float) for b in instance.bounds())
    root = solver.solve(lo0, hi0)
    out = [lp_fingerprint(root)]
    frontier = [(root, lo0, hi0)]
    while frontier and len(out) <= calls:
        lp, lo, hi = frontier.pop(0)
        unfixed = [j for j in instance.integer_index if hi[j] > lo[j]]
        if not lp.is_optimal or not unfixed:
            continue
        j = lp.fractional[0] if lp.fractional else unfixed[0]
        v = lp.x[j] if lp.fractional else min(round(lp.x[j]), hi[j] - 1)
        down_hi, up_lo = hi.copy(), lo.copy()
        down_hi[j] = math.floor(v)
        up_lo[j] = math.floor(v) + 1
        for clo, chi in ((lo, down_hi), (up_lo, hi)):
            child = solver.resolve(lp.basis, clo, chi)
            out.append(lp_fingerprint(child))
            frontier.append((child, clo, chi))
    return out[: calls + 1]


def random_lp_digest(seeds=range(150)):
    """sha256 over the cold solve and two warm children of many random LPs."""
    h = hashlib.sha256()
    for seed in seeds:
        inst = make_lp(seed, n=3 + seed % 8, m=2 + seed % 9)
        solver = SimplexSolver(inst)
        parent = solver.solve()
        h.update(repr(lp_fingerprint(parent)).encode())
        if not parent.is_optimal:
            continue
        lo0, hi0 = (np.asarray(b, dtype=float) for b in inst.bounds())
        j = seed % inst.num_vars
        hi, lo = hi0.copy(), lo0.copy()
        hi[j] = max(lo0[j], math.floor(parent.x[j] - 0.5))
        lo[j] = min(hi0[j], math.ceil(parent.x[j] + 0.5))
        for clo, chi in ((lo0, hi), (lo, hi0)):
            h.update(repr(lp_fingerprint(solver.resolve(parent.basis, clo, chi))).encode())
    return h.hexdigest()


# (trace hash, pool size, sha256 of repr(pool objectives))
GOLDEN_COUNT = {
    'cluster_n10_r2.mps bestfs': (
        'dca452303f76b0301b0d8ba243fb8c06ec0f3ff1bad3a6bd675cb2e83243cf0a',
        112, '290631a8bdbdec6ed0ec727ee1568fabe6e3f5147d83c1f38566c89da77bd9fc'),
    'cluster_n10_r2.mps dbfs-ad': (
        '65a34bce8d9f3bc27ce6f4cbe46d49c824f0269ce93c066b3c7c0b3e32b143ae',
        112, '4e1edddc2d8a01ffe1449f791db9cfa6026cb619b8f2a840cc0fde889fbd6f4c'),
    'cluster_n8_r1.mps bestfs': (
        'e32cdb2af9da7bc2387db5aedcc31ed44c7fa9377600ae8377cb17e02887f089',
        18, '2199ebfad456614410c560beb7e956f95df5d4f906abb15ed8164bf8e7db4d54'),
    'cluster_n8_r1.mps dbfs-ad': (
        'de45ef18a6673d938c892fadf98c981cef101a43f7b742c134a257832d4e099c',
        18, '5e35be78b0b8ffecdaffd009c3767751c06dbad3d216a02ac626ba23bed5237d'),
    'genint.mps bestfs': (
        'ec0fe7d324044226b48db9f29b6e54e47279adc6187a5544b1d57a6de7aa8cba',
        1, 'c2272c0a862f11de35da66ec8be34349001ddebae43b85ab1dafb188f8ad7b30'),
    'genint.mps dbfs-ad': (
        'ec0fe7d324044226b48db9f29b6e54e47279adc6187a5544b1d57a6de7aa8cba',
        1, 'c2272c0a862f11de35da66ec8be34349001ddebae43b85ab1dafb188f8ad7b30'),
    'knap3.mps bestfs': (
        'da0f16cf338c9b37c0effc1c8d3959426bfb17e38b9c3d62b27b6737c356fa57',
        2, '25fd6ac30c9ef7ffb15bab018fac08f44252855f5ba70b9bfe71adb376e26289'),
    'knap3.mps dbfs-ad': (
        'da0f16cf338c9b37c0effc1c8d3959426bfb17e38b9c3d62b27b6737c356fa57',
        2, '25fd6ac30c9ef7ffb15bab018fac08f44252855f5ba70b9bfe71adb376e26289'),
    'mixed4.mps bestfs': (
        '44f01963062f20a22bb142bc031929c049101057496bce92ac7854b7f29d9415',
        2, '37bcad8d91fccc9a466323420a6184a34c9d942fb9251285cec4301f60452bdc'),
    'mixed4.mps dbfs-ad': (
        '44f01963062f20a22bb142bc031929c049101057496bce92ac7854b7f29d9415',
        2, '37bcad8d91fccc9a466323420a6184a34c9d942fb9251285cec4301f60452bdc'),
    'rand0.mps bestfs': (
        '4d58244e6a3eb2ef092fac42219200892dd90a0842889abcab45cfe8e00305b6',
        23, 'b59063d8127ac145ccdfd03dceceb72b90dbeb8e5736cc3562559968e7ea254c'),
    'rand0.mps dbfs-ad': (
        'a01552a647054c214661fea3b0a60c9fe7c279e6f0f9a02218ad50b886e8030c',
        23, '861d7a22799f830f221c93d46dfe00e4de0e2831614013202861db0b9501a7df'),
    'rand1.mps bestfs': (
        'f05385c6194d82f608e9d6542f62613f42db47198b282764a50273ce1711f963',
        22, '215c3e2956b839a010a2b77b7610e147ff22c1060c54cd805ed4129adc69d8d0'),
    'rand1.mps dbfs-ad': (
        '0c255d5cf8ae2b68249fe1ab5b7987059578409a50519be111c8e312703b3704',
        22, 'b36bb9ac87715a13965fb0f0e79d91d5ef164a78dd3252e610c7c30f023e6788'),
    'rand2.mps bestfs': (
        'dfd2d7dc4fd233df9666d44ea67435f43c0bce35ebc537e8419581aa02ccb1b5',
        22, 'b2a0253a81b21a7d6cbad8ac2252f36490c67f04307a03ea646d41d5aa8da93a'),
    'rand2.mps dbfs-ad': (
        'd7cbf7a73e831815f03b922b04807379542a854a913545ffbbaaa4eb8e222f12',
        22, 'b2a0253a81b21a7d6cbad8ac2252f36490c67f04307a03ea646d41d5aa8da93a'),
    'random_binary_instance(0, 30, 12) brfs': (
        '0e967b77731172b9f0faa7c38958830b6968a6a97da0e117b93e6e8e4d408242',
        60, 'e05ee8e9c7257ab2156ac5753e64d38546058fa734a3bd2dd406d3f595a47db4'),
    'random_binary_instance(0, 30, 12) brfs literal': (
        '0e967b77731172b9f0faa7c38958830b6968a6a97da0e117b93e6e8e4d408242',
        60, 'e05ee8e9c7257ab2156ac5753e64d38546058fa734a3bd2dd406d3f595a47db4'),
    'random_binary_instance(0, 30, 12) dbfs-a': (
        'd9501f3c13cf0dfd319f84bfcc839bd0c489d4f8f88369aad2110d035158024f',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-a literal': (
        'a56e592ad2557a4c58d07d34174c4a5b1f08db141957661290e294a1fc856648',
        60, '015cd65476684981d12e7a76cfdf48bdd589fc480ac760d4f69429344ff20ac6'),
    'random_binary_instance(0, 30, 12) dbfs-ab': (
        '69640d3d588e83a75cf64be4f2d10c5c4c49432d3d4f57c6385c650a6dffaaed',
        60, '0802d889f02405f08f9caf3180da26e948c80441f9a3ac5dff6feccf88cebbf0'),
    'random_binary_instance(0, 30, 12) dbfs-ab literal': (
        '2fec579556f70b92cdc2bb1efe652a1070599028490fd99a9bb06e7912bbd219',
        60, '7eb3c04880408263d41c88908463cb59fa512e650a8a111a07d447342f139822'),
    'random_binary_instance(0, 30, 12) dbfs-as': (
        '93be95ad946e9523dbe5c1f9886a0a26e435465247a11153f8879c8dc1289845',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-as literal': (
        '925a3f167b07188df671846521b77b9fba56bc54cbfa44a428af5e9d3ba3a100',
        60, '015cd65476684981d12e7a76cfdf48bdd589fc480ac760d4f69429344ff20ac6'),
    'random_binary_instance(0, 30, 12) dbfs-max': (
        '9789d75d566351be7651606e03c535fcd09f5290666a367455aa4d2770e49b48',
        60, '7f5de5ccf0cfe29115d342afe92e897b401761c72e2aa958bf85265e2888ab8d'),
    'random_binary_instance(0, 30, 12) dbfs-max literal': (
        '05c1be1cce0ddf5b6d3848d235cf829d17153981eae34b3f122bae89e29a6839',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-min': (
        '7021e8fbceb6ec858a8e2add412a2f0e4d3d1b4edc03ebb15fb7036f815d75cf',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-min literal': (
        '8de0f966c495f6c9b7a8ffd03012b35edacdcbeb5fa5cab71bd04a7176b9ae19',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-prod': (
        '628fb70cfc491718dc98e4da1e102b554a935fba20a268b89f8170a704245b02',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dbfs-prod literal': (
        '80ca5995e09837453f0741ba6edea7df2de3a7fbd34ac03d130b6c6b86363fd3',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) dfs': (
        '798ecde78a0b157cae2a98ed78fbb02921a3e1e35b8c5bb7e6390797405b81dc',
        60, 'ec1d053d451efdfdf31d7f6189e700255f415357e97288a09c7ed6928f1ebf9e'),
    'random_binary_instance(0, 30, 12) dfs literal': (
        '798ecde78a0b157cae2a98ed78fbb02921a3e1e35b8c5bb7e6390797405b81dc',
        60, 'ec1d053d451efdfdf31d7f6189e700255f415357e97288a09c7ed6928f1ebf9e'),
    'random_binary_instance(0, 30, 12) diversitree': (
        '5a3d2bc2966536d08934f36ae5df284973fbc5538d497d9672e39b8380809acf',
        60, '76b20aab83d1514457653f8dc94c30e072b2e85a257c089391df88a5448fe226'),
    'random_binary_instance(0, 30, 12) he': (
        '13329fda19ec45fef7726cc7601524ad230bd1e5b9b87c37304aaa85dd2697ae',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) he literal': (
        '13329fda19ec45fef7726cc7601524ad230bd1e5b9b87c37304aaa85dd2697ae',
        60, '360ae7e3b8c6b1442748e01aded4f438cc33c7b5a3896723d24a6e40df9147a7'),
    'random_binary_instance(0, 30, 12) uct': (
        'c51d43666c574f7bef43822ccaadc2ffe801ab61c88581ef48296ccb9c12e15f',
        60, '3eef6ab5f01fa04e832a6d469048a9d28289c8172804bd547b5c6629fdb29a60'),
    'random_binary_instance(0, 30, 12) uct literal': (
        'c51d43666c574f7bef43822ccaadc2ffe801ab61c88581ef48296ccb9c12e15f',
        60, '3eef6ab5f01fa04e832a6d469048a9d28289c8172804bd547b5c6629fdb29a60'),
    'random_binary_instance(1, 30, 12) brfs': (
        '046141e2fd1607b583700f6dbc6f3542dfeec7c08e12d8e9109572396af9fb5a',
        60, 'c17b976c5acddcdc0de1dd9dc2342e3b06a779ff6d4e08a9f33b3880049a58df'),
    'random_binary_instance(1, 30, 12) brfs literal': (
        '046141e2fd1607b583700f6dbc6f3542dfeec7c08e12d8e9109572396af9fb5a',
        60, 'c17b976c5acddcdc0de1dd9dc2342e3b06a779ff6d4e08a9f33b3880049a58df'),
    'random_binary_instance(1, 30, 12) dbfs-a': (
        '32281243a150295d6b09f18355ce7f57a3b69daf5864ebe4b356bd1bdbf0a53b',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-a literal': (
        '1c651367604c4121868179e1d311572dd8be386dfd291e1c7029a186e98963a5',
        60, '8b6555d7b9f40d70ce7bbd6d637077447d93f25125e0c666da670da73dd8f04d'),
    'random_binary_instance(1, 30, 12) dbfs-ab': (
        '4855670eb28a35e4b93f7e803c1fb17e5a0a53dab8628d5768dc2efb2f22c58c',
        60, 'c95a780676cfeb7dda2ae8d441313abf09868ac6dbcfed21df6510b13eb740fa'),
    'random_binary_instance(1, 30, 12) dbfs-ab literal': (
        'b114d68c061945e8912d80bd9f4fd300a1d93a84866a62072f373442a6ec3c0a',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-as': (
        '5bcb4062e5cd0ba3cda7be8d48343072b8db4f7f305f98d8c2a97d52a8b2c33c',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-as literal': (
        '6d3219066b32f6a0fe2b795a44630e55eaaa0c6c93d16e29a907da839e16cc42',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-max': (
        'b54be2ba69f41ab6aa32618a24b453ff9ff5364a60c61bbf1fa367c32364148b',
        60, '66425b8b9bf879107431877cecd388298eb43dbb2d37a97c039f81845eafec3f'),
    'random_binary_instance(1, 30, 12) dbfs-max literal': (
        '181cef297bc19af2301354c0608c8a317dd1c2e2232b1ba01546f97152573ac3',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-min': (
        'ea68713a047407250fc814c78555a70293d058270110643472aa2f5b358d1130',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-min literal': (
        '92d390c54146b6dd4a8b11dc9292e66c891a23b242b1217021a6bf7af714654f',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-prod': (
        'd28bf0be61f980336dad92e5970de60a06e648cd9c70fd0b6d4f760f4afc3bb2',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dbfs-prod literal': (
        'ad192af58a66fe58c5c10a4771797483dea7df973e002c6c3c2498b330c210d4',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) dfs': (
        'e5f8d9d87a6081acfea0f4f867c982c93192f02790d392bcfb81b5e293112772',
        60, 'a47ab727c4a7493c95d2c1aa4df4b7822b104a9bc1620ebb7cfa2fac2a34246b'),
    'random_binary_instance(1, 30, 12) dfs literal': (
        'e5f8d9d87a6081acfea0f4f867c982c93192f02790d392bcfb81b5e293112772',
        60, 'a47ab727c4a7493c95d2c1aa4df4b7822b104a9bc1620ebb7cfa2fac2a34246b'),
    'random_binary_instance(1, 30, 12) diversitree': (
        '852370aee438801b81bdfc4137d7dc2afdd0f8c053acb26b18a4bb765c1c9b3a',
        60, '0ecf11f0a5c50cc7a63e82383f2e31f04cad880d6085d1455cb61967c594e046'),
    'random_binary_instance(1, 30, 12) he': (
        '60ec906a69b157a1ec69aefba416e59c22f4a71874c3f98a1b31b9a62b2bd2bb',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) he literal': (
        '60ec906a69b157a1ec69aefba416e59c22f4a71874c3f98a1b31b9a62b2bd2bb',
        60, '8b347a6125c4c2f8d5a9abdf78e7fe1452ab881fe0edf5c89a97294d00e0c537'),
    'random_binary_instance(1, 30, 12) uct': (
        '8718d1705b08ca5574fc89171094b977fe1b47fbd473c20af8dce42655c0d99d',
        60, '0fa29ef75c830bf2c44c421ce9824d6ac793ac04c68e72009ffdecff3278d776'),
    'random_binary_instance(1, 30, 12) uct literal': (
        '8718d1705b08ca5574fc89171094b977fe1b47fbd473c20af8dce42655c0d99d',
        60, '0fa29ef75c830bf2c44c421ce9824d6ac793ac04c68e72009ffdecff3278d776'),
    'random_binary_instance(2, 30, 12) diversitree': (
        '520cb4ecc05ff29216abe8ac9e4bf121676cc2bf0e40a5cd80165ddfdf3c11b1',
        60, 'def0d47a2b0a073280587d8f9f6e56b0a6a94a9299a4ece0a7ce66917b6ea6f9'),
    'two_cluster_instance(14, 2) hhl': (
        'd6cdff9adce69185db47e03678e3c6a1ffe3c88294c786f27a7cb2a0c2601c93',
        212, '659d030ca8e30d3100f8c005430113e46b21d7ce2564f5a3744177047568f41b'),
}

# lp_fingerprint of the root solve, then of each warm resolve
GOLDEN_WARM_RAND0 = [
    ('optimal', '-35.8', '-35.8', '23382131ee227916',
     [0, 2], [2, 11, 0], [3, 4, 5, 6, 7, 8, 12], 18),
    ('optimal', '-34.0', '-34.0', '429cedd55d725a6a',
     [2], [2, 11, 8], [3, 4, 5, 6, 7, 12], 2),
    ('optimal', '-31.5', '-31.5', '8124c226dc69089c',
     [1], [1, 11, 10], [2, 3, 4, 5, 6, 7, 8, 12], 3),
    ('optimal', '-31.0', '-31.0', '0deb53b6eeb04ee7',
     [], [1, 11, 8], [3, 4, 5, 6, 7, 12], 2),
    ('optimal', '-34.0', '-34.0', '163b156c9b8f4a31',
     [], [12, 11, 8], [3, 4, 5, 6, 7], 2),
    ('infeasible', None, None, None,
     None, None, None, 1),
    ('optimal', '-30.0', '-30.0', '6f814e71bc5d03aa',
     [2], [2, 11, 10], [3, 4, 5, 6, 7, 8, 12], 2),
    ('infeasible', None, None, None,
     None, None, None, 2),
    ('optimal', '-31.0', '-31.0', '0deb53b6eeb04ee7',
     [], [1, 11, 8], [3, 4, 5, 6, 7, 12], 1),
    ('optimal', '-34.0', '-34.0', '163b156c9b8f4a31',
     [], [12, 11, 8], [3, 4, 5, 6, 7], 1),
    ('optimal', '-31.0', '-31.0', '3ae97face0e3e434',
     [], [12, 11, 8], [3, 4, 5, 6, 7], 1),
    ('infeasible', None, None, None,
     None, None, None, 1),
    ('optimal', '-30.0', '-30.0', 'bae940babf649712',
     [], [12, 11, 10], [3, 4, 5, 6, 7, 8], 2),
    ('optimal', '-27.0', '-27.0', 'e6e674c1563238de',
     [], [1, 11, 8], [4, 5, 6, 7, 12], 1),
    ('optimal', '-31.0', '-31.0', '0deb53b6eeb04ee7',
     [], [1, 11, 8], [4, 5, 6, 7, 12], 1),
    ('optimal', '-30.0', '-30.0', '61d74ddd4a65764d',
     [], [12, 11, 8], [4, 5, 6, 7], 1),
    ('optimal', '-34.0', '-34.0', '163b156c9b8f4a31',
     [], [12, 11, 8], [4, 5, 6, 7], 1),
    ('optimal', '-27.0', '-27.0', '56075e59e5d9e763',
     [], [12, 11, 8], [4, 5, 6, 7], 1),
    ('optimal', '-31.0', '-31.0', '3ae97face0e3e434',
     [], [12, 11, 8], [4, 5, 6, 7], 1),
    ('optimal', '-26.0', '-26.0', '84f7e0f68435074b',
     [], [12, 11, 10], [4, 5, 6, 7, 8], 1),
    ('optimal', '-30.0', '-30.0', 'bae940babf649712',
     [], [12, 11, 10], [4, 5, 6, 7, 8], 1),
    ('optimal', '-23.0', '-23.0', 'adcae6169c5912dd',
     [], [1, 11, 8], [5, 6, 7, 12], 1),
    ('optimal', '-27.0', '-27.0', 'e6e674c1563238de',
     [], [1, 11, 8], [5, 6, 7, 12], 1),
    ('optimal', '-27.0', '-27.0', '374767d9981214c1',
     [], [1, 11, 8], [5, 6, 7, 12], 1),
    ('optimal', '-31.0', '-31.0', '0deb53b6eeb04ee7',
     [], [1, 11, 8], [5, 6, 7, 12], 1),
    ('optimal', '-26.0', '-26.0', 'b26e7a22d4c6098f',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-30.0', '-30.0', '61d74ddd4a65764d',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-30.0', '-30.0', '2db09576bb78e649',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-34.0', '-34.0', '163b156c9b8f4a31',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-23.0', '-23.0', '75aed4ae85f7697c',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-27.0', '-27.0', '56075e59e5d9e763',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-27.0', '-27.0', '7f44275a1dfa4825',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-31.0', '-31.0', '3ae97face0e3e434',
     [], [12, 11, 8], [5, 6, 7], 1),
    ('optimal', '-22.0', '-22.0', '9dc7e687a2045fc6',
     [], [12, 11, 10], [5, 6, 7, 8], 1),
    ('optimal', '-26.0', '-26.0', '84f7e0f68435074b',
     [], [12, 11, 10], [5, 6, 7, 8], 1),
    ('optimal', '-26.0', '-26.0', '60243f4d3d0ccffd',
     [], [12, 11, 10], [5, 6, 7, 8], 1),
    ('optimal', '-30.0', '-30.0', 'bae940babf649712',
     [], [12, 11, 10], [5, 6, 7, 8], 1),
    ('optimal', '-14.0', '-14.0', 'fba46c0953aac506',
     [], [1, 11, 8], [6, 7, 12], 1),
    ('optimal', '-23.0', '-23.0', 'adcae6169c5912dd',
     [], [1, 11, 8], [6, 7, 12], 1),
    ('optimal', '-18.0', '-18.0', 'fff464db6cd55bc3',
     [], [1, 11, 8], [6, 7, 12], 1),
    ('optimal', '-27.0', '-27.0', 'e6e674c1563238de',
     [], [1, 11, 8], [6, 7, 12], 1),
]

GOLDEN_RANDOM_LP_DIGEST = '9bd06fdf02e8c48e461707deccb421c145f5e15cb221e1007d17b4d55ed39156'

# (exit code, sha256 of stdout, sha256 of the trace file or None)
GOLDEN_CLI = {
    'cluster_n10_r2.mps solve': (
        0, '47b96b42de0b77499577474004dc731673ac5686b2ab895bc544203a66299a72',
        None),
    'cluster_n10_r2.mps enumerate': (
        0, 'b5ad00edd023fae3ab3ea35b3e48c25a9d873413b09644478d406a4ea084e4d1',
        'dca452303f76b0301b0d8ba243fb8c06ec0f3ff1bad3a6bd675cb2e83243cf0a'),
    'cluster_n10_r2.mps diverse': (
        0, '9b9bd8ab551914e757fa2fc30a60e838fe51484eb7cf475225b1be5fa5d1e25a',
        '777c6c7f1b040c8920fb2ddfa9b72bc973d62bf9cde44a4c570220200524d2e1'),
    'cluster_n10_r2.mps compare': (
        0, 'c121adf7e54ab24c81b8e3d19b7886d2b2cd74965fd4e31dc80f43f64d7da711',
        None),
    'cluster_n8_r1.mps solve': (
        0, '770b11b3a50e0a72eb0b8596b42c859fd443d95f46faa8e6aab9d4f4c970fd31',
        None),
    'cluster_n8_r1.mps enumerate': (
        0, '72d015ad9a13c3fc03665b5f892d06aa1965a9d57ecec3b8263a4663907cf578',
        'e32cdb2af9da7bc2387db5aedcc31ed44c7fa9377600ae8377cb17e02887f089'),
    'cluster_n8_r1.mps diverse': (
        0, 'cf9084ee1b3c121f1cc6d4fd75cced494220e532d396a4ee7658a4582b5808a9',
        'e32cdb2af9da7bc2387db5aedcc31ed44c7fa9377600ae8377cb17e02887f089'),
    'cluster_n8_r1.mps compare': (
        0, 'fc5b867da4dafcf16c42b9db7cba6365a0f4c782e4f7b22d262f9207ba42446f',
        None),
    'genint.mps solve': (
        0, '8e8fecbebcdc2bb561254c46e41762f0d8cbdb107358fe8d495219134892c82b',
        None),
    'genint.mps enumerate': (
        0, 'c9d674218e64181bddf814e69222eef5918bb41dcb34ab3b9edf29b5d74b24dd',
        'ec0fe7d324044226b48db9f29b6e54e47279adc6187a5544b1d57a6de7aa8cba'),
    'genint.mps diverse': (
        0, '9962c1218eaeed40ae86d4f6ebe644405ce1949aef0afd18721fcdba33cea1c3',
        'ec0fe7d324044226b48db9f29b6e54e47279adc6187a5544b1d57a6de7aa8cba'),
    'genint.mps compare': (
        0, '09aea3835a46cc6b31e83512ebcbe3b7165375581416cfdbf4943e3ad49cc82f',
        None),
    'knap3.mps solve': (
        0, '1d9042361a9c077503cc2454ef5131d24d1a96b3121026c53a777e610dac8c4c',
        None),
    'knap3.mps enumerate': (
        0, 'ef36958d8fbe096a7f9a75cc7c22a8062841279de72f8a8c5c97c7ac8c69c848',
        'da0f16cf338c9b37c0effc1c8d3959426bfb17e38b9c3d62b27b6737c356fa57'),
    'knap3.mps diverse': (
        0, '85d6a5f65e8e99487df7bcd32efdf2dfde772d4eb096b0b0d910822ff08b617a',
        'da0f16cf338c9b37c0effc1c8d3959426bfb17e38b9c3d62b27b6737c356fa57'),
    'knap3.mps compare': (
        0, '43a0646505ef59d167a82325ad346fe177d528965a9c859b7ed62081e22788e9',
        None),
    'mixed4.mps solve': (
        0, '3790ce95be793a2afb4cc3736bb0fa4044df6cd3f2265750eb3004fcff704048',
        None),
    'mixed4.mps enumerate': (
        0, '70d4ad867e9d0f8b94e73bfe0f6dcb5dc583e90f7671e84668e5c8da31588aac',
        '44f01963062f20a22bb142bc031929c049101057496bce92ac7854b7f29d9415'),
    'mixed4.mps diverse': (
        0, '36dbc3379c4f6107c42de43485d841b2187891d7ae7b8dab55661d6fa8031ce8',
        '44f01963062f20a22bb142bc031929c049101057496bce92ac7854b7f29d9415'),
    'mixed4.mps compare': (
        0, '60f3de5031c37b01d592bcf848e99b291a092660547b44af9becec4d512055f1',
        None),
    'rand0.mps solve': (
        0, 'bc08191eea5ac6f4790693ed9ec74b19525a4764d6d0c1fdb97ac228c5aa3cd1',
        None),
    'rand0.mps enumerate': (
        0, '985c1e76ba405cfe1a6cec7ebf008ea8b8cca728cced99d33305060b7b7541af',
        'dfc66b304a6fdad7350668a475b2e5cde5b49a410c51d15b17ce48fe45fa1c44'),
    'rand0.mps diverse': (
        0, '5d37969e49a8225d41fe2c302a709ab8460f03b2cc41aa58873c6b82da4826a4',
        'dfc66b304a6fdad7350668a475b2e5cde5b49a410c51d15b17ce48fe45fa1c44'),
    'rand0.mps compare': (
        0, '8553251ad8355bd1f76201f42f5bb2840624d473f7f27d337cfa2a4cd35e6f82',
        None),
    'rand1.mps solve': (
        0, '5f51d6bf42f702a1a2a9048fa4547b5bf04bfe8e5eb61e0fbd5278be4d1f5ea1',
        None),
    'rand1.mps enumerate': (
        0, 'c9b5c155619db047ae40941e3a06acf9e00ee6e01facc90fe60c118d4c438234',
        'b3ab215abe78bca59262866b5a6720f98b7b096ef5e6cea5f20d4cd8b9ec54e7'),
    'rand1.mps diverse': (
        0, '7ebd09fb3e70929b25874e6cdcb230400d903587bc2d81e8a9842d13e21c534f',
        'b3ab215abe78bca59262866b5a6720f98b7b096ef5e6cea5f20d4cd8b9ec54e7'),
    'rand1.mps compare': (
        0, '5f9fcd893019c81818e8fec9571e7d2f297dc24410c31507b5f7e30c107be85e',
        None),
    'rand2.mps solve': (
        0, '851586835c2124aeed0aec03eb75156fff6a8a7161f67f37f15fa0dc3cc953be',
        None),
    'rand2.mps enumerate': (
        0, '634a901eddf97488dc63291428f59bb67577f724cdefaa4703aeb161dff72792',
        'ae779246e3fecc13cab60321803236387ae1b7205d3b024ba77815983a2d9822'),
    'rand2.mps diverse': (
        0, 'ee69d254834fd0ba6820844c6ea3e0bd724978325e5870b43c0f760ba6c16c53',
        'ae779246e3fecc13cab60321803236387ae1b7205d3b024ba77815983a2d9822'),
    'rand2.mps compare': (
        0, 'b687b12a847485fb91655577ae8de88e226753765c1822cf263b4cfdefcd0b61',
        None),
}


class TestCountPhaseGolden:
    def test_every_case_is_pinned(self):
        assert sorted(GOLDEN_COUNT) == sorted(count_cases())

    @pytest.mark.parametrize("name", sorted(count_cases()))
    def test_trace_hash_pool_and_objectives(self, name):
        assert count_fingerprint(name) == GOLDEN_COUNT[name]


class TestSimplexGolden:
    def test_warm_resolves_on_rand0(self):
        got = warm_sequence(parse_mps(str(INSTANCES / "rand0.mps")), len(GOLDEN_WARM_RAND0) - 1)
        assert got == GOLDEN_WARM_RAND0

    def test_random_lp_cold_and_warm_digest(self):
        assert random_lp_digest() == GOLDEN_RANDOM_LP_DIGEST


class TestCliGolden:
    def test_every_case_is_pinned(self):
        assert list(GOLDEN_CLI) == cli_cases()

    @pytest.mark.parametrize("case", cli_cases())
    def test_stdout_and_trace_bytes(self, case):
        assert cli_fingerprint(case) == GOLDEN_CLI[case]


def test_printed_values_are_the_pinned_source():
    # what ``python tests/test_golden.py`` prints must paste back unchanged
    assert _pinned_source() in Path(__file__).read_text()


def _pinned_source():
    """The pinned values, as Python source."""
    lines = ["# (trace hash, pool size, sha256 of repr(pool objectives))", "GOLDEN_COUNT = {"]
    for name in sorted(count_cases()):
        trace, size, objectives = count_fingerprint(name)
        lines += [f"    {name!r}: (", f"        {trace!r},", f"        {size}, {objectives!r}),"]
    lines += ["}", "", "# lp_fingerprint of the root solve, then of each warm resolve",
              "GOLDEN_WARM_RAND0 = ["]
    for fp in warm_sequence(parse_mps(str(INSTANCES / "rand0.mps")), 40):
        lines += [f"    ({', '.join(map(repr, fp[:4]))},",
                  f"     {', '.join(map(repr, fp[4:]))}),"]
    lines += ["]", "", f"GOLDEN_RANDOM_LP_DIGEST = {random_lp_digest()!r}", "",
              "# (exit code, sha256 of stdout, sha256 of the trace file or None)",
              "GOLDEN_CLI = {"]
    for case in cli_cases():
        code, out, trace = cli_fingerprint(case)
        lines += [f"    {case!r}: (", f"        {code}, {out!r},", f"        {trace!r}),"]
    lines += ["}"]
    return "\n".join(lines)


if __name__ == "__main__":
    print(_pinned_source())
