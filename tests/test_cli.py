"""Command-line interface: JSON contracts, determinism, flag handling."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import diversitree
from conftest import enum_pure_integer, scipy_lp, scipy_milp
from diversitree.cli import main
from diversitree.generators import knapsack_instance, random_binary_instance
from diversitree.mps import parse_mps, write_mps


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    out = {}
    for name, inst in (
        ("knap", knapsack_instance()),
        ("rand3", random_binary_instance(3)),
        ("rand5", random_binary_instance(5)),
    ):
        p = root / f"{name}.mps"
        p.write_text(write_mps(inst))
        out[name] = str(p)
    return out


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


class TestSolve:
    def test_reports_the_maximization_optimum(self, runner, paths):
        res = invoke(runner, ["solve", "--instance", paths["knap"]])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert set(doc) == {"schemaVersion", "instance", "status", "zStar",
                            "nodesProcessed", "x", "wallTimeMs"}
        assert doc["status"] == "optimal"
        assert doc["zStar"] == pytest.approx(10.0)  # source model maximizes
        assert [int(v) for v in doc["x"]] == [1, 0, 1]
        assert doc["wallTimeMs"] is None

    def test_timings_flag_fills_the_field(self, runner, paths):
        res = invoke(runner, ["solve", "--instance", paths["knap"], "--timings"])
        assert json.loads(res.output)["wallTimeMs"] >= 0.0

    def test_infeasible_file_reports_cleanly(self, runner, tmp_path):
        bad = """NAME NO
ROWS
 N OBJ
 G ON
 L OFF
COLUMNS
    MARKER M1 'MARKER' 'INTORG'
    X OBJ 1.0 ON 1.0
    X OFF 1.0
    MARKER M2 'MARKER' 'INTEND'
RHS
    RHS ON 1.0
    RHS OFF 0.0
BOUNDS
 BV BND X
ENDATA
"""
        p = tmp_path / "no.mps"
        p.write_text(bad)
        res = invoke(runner, ["solve", "--instance", str(p)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["status"] == "infeasible"
        assert doc["zStar"] is None and doc["x"] is None


    @pytest.mark.parametrize("line", [b" FR", b" BV", b"\xff"])
    def test_a_malformed_file_is_a_clean_parse_failure(self, runner, tmp_path, line):
        """A flag bound without a column, or a byte that is not UTF-8, names
        its line; neither prints a traceback."""
        p = tmp_path / "bad.mps"
        p.write_bytes(b"NAME t\nROWS\n N obj\nCOLUMNS\n    x obj 1.0\nBOUNDS\n" + line
                      + b"\nENDATA\n")
        res = runner.invoke(main, ["solve", "--instance", str(p)])
        assert res.exit_code == 1
        assert f"cannot parse {p}: line 7:" in res.output
        assert isinstance(res.exception, SystemExit)  # no traceback

    @pytest.mark.parametrize("head, line, message", [
        ("OBJSENSE\n    MAXX\n", 3, "unknown OBJSENSE 'MAXX'"),  # once a maximization
        ("OBJSENSE FOO\n", 2, "unknown OBJSENSE 'FOO'"),  # once a minimization
        ("", 7, "repeated entry for column 'x' in row 'c1'"),  # once summed
    ])
    def test_a_typo_is_a_clean_parse_failure_not_another_problem(self, runner, tmp_path, head,
                                                                 line, message):
        p = tmp_path / "typo.mps"
        p.write_text("NAME t\n" + head + "ROWS\n N obj\n L c1\nCOLUMNS\n    x obj 1.0 c1 5.0\n"
                     + ("    x c1 7.0\n" if not head else "") + "RHS\n    RHS c1 9.0\nENDATA\n")
        res = runner.invoke(main, ["solve", "--instance", str(p)])
        assert res.exit_code == 1
        assert f"cannot parse {p}: line {line}: {message}" in res.output
        assert isinstance(res.exception, SystemExit)  # no traceback

    @pytest.mark.parametrize("text", ["", "NAME t\n", "NAME t\nROWS\n N obj\n L c1\nENDATA\n"])
    def test_a_file_with_no_column_is_a_clean_parse_failure(self, runner, tmp_path, text):
        """An empty file, or one that declares no column, is not solved as
        an instance with no variables."""
        p = tmp_path / "none.mps"
        p.write_text(text)
        res = runner.invoke(main, ["solve", "--instance", str(p)])
        assert res.exit_code == 1
        assert f"cannot parse {p}: line " in res.output
        assert "no COLUMNS entry declares a column" in res.output
        assert isinstance(res.exception, SystemExit)  # no traceback

class TestHugeBounds:
    """x0, x1 binary and y in [-bound, bound], minimizing x0 + x1 + y under
    -4 x0 - 4 x1 - 4 y >= 0 and -4 x1 = 0. The model reads a bound of 1e308
    as an infinity, so the relaxation is unbounded, as scipy's ``linprog``
    finds (``milp`` says "unbounded or infeasible"); 1e19 is a finite bound,
    which y reaches."""

    @staticmethod
    def write(tmp_path, bound):
        p = tmp_path / f"huge{bound}.mps"
        p.write_text(f"""NAME huge
ROWS
 N OBJ
 G R1
 E R2
COLUMNS
    M0 'MARKER' 'INTORG'
    x0 OBJ 1.0 R1 -4.0
    x1 OBJ 1.0 R1 -4.0 R2 -4.0
    M1 'MARKER' 'INTEND'
    y OBJ 1.0 R1 -4.0
BOUNDS
 LO BND y -{bound}
 UP BND y {bound}
ENDATA
""")
        return str(p)

    def test_a_bound_of_1e308_is_unbounded(self, runner, tmp_path):
        path = self.write(tmp_path, "1e308")
        assert scipy_lp(parse_mps(path))[0] == "unbounded"
        res = invoke(runner, ["solve", "--instance", path])  # a RuntimeWarning raises here
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert (doc["status"], doc["zStar"], doc["x"]) == ("unbounded", None, None)
        res = CliRunner().invoke(main, ["diverse", "--instance", path])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "optimize stage: instance is unbounded" in res.output

    def test_a_bound_of_1e19_is_reached(self, runner, tmp_path):
        path = self.write(tmp_path, "1e19")
        assert scipy_milp(parse_mps(path)) == ("optimal", -1e19)
        res = invoke(runner, ["solve", "--instance", path])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert (doc["status"], doc["zStar"], doc["x"]) == ("optimal", -1e19, [0.0, 0.0, -1e19])


class TestEnumerate:
    def test_unlimited_pool_matches_brute_force(self, runner, paths):
        inst = random_binary_instance(3)
        z, admitted = enum_pure_integer(inst, 0.05)
        res = invoke(runner, ["enumerate", "--instance", paths["rand3"],
                              "--q", "0.05", "--p1", "0"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["p1"] is None
        assert doc["exhausted"] is True
        assert doc["zStar"] == pytest.approx(z, abs=1e-9)
        got = {tuple(int(round(v)) for v in row) for row in doc["solutions"]}
        assert got == admitted
        assert doc["poolSize"] == len(admitted)
        assert len(doc["objectives"]) == len(admitted)
        assert doc["traceHash"]

    def test_trace_file_is_written(self, runner, paths, tmp_path):
        trace = tmp_path / "t.jsonl"
        res = invoke(runner, ["enumerate", "--instance", paths["knap"],
                              "--q", "0.5", "--trace", str(trace)])
        assert res.exit_code == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert set(json.loads(lines[0])) == {"id", "depth", "lpBound",
                                             "classification", "poolSize"}


class TestDiverse:
    ARGS = ["--q", "0.05", "--p1", "30", "--p", "4"]

    def test_repeat_runs_are_byte_identical(self, runner, paths):
        a = invoke(runner, ["diverse", "--instance", paths["rand5"]] + self.ARGS)
        b = invoke(runner, ["diverse", "--instance", paths["rand5"]] + self.ARGS)
        assert a.exit_code == 0
        assert a.output == b.output

    def test_out_file_is_byte_identical_too(self, runner, paths, tmp_path):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = invoke(runner, ["diverse", "--instance", paths["rand5"], "--out",
                                  str(out)] + self.ARGS)
            assert res.exit_code == 0
            assert f"wrote {out}" in res.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        doc = json.loads(blobs[0])
        assert doc["rule"] == "bestfs"
        assert len(doc["subsetIndices"]) == min(4, doc["poolSize"])

    def test_preset_equals_its_explicit_flags(self, runner, paths):
        by_preset = invoke(runner, ["diverse", "--instance", paths["rand5"],
                                    "--preset", "HHL"] + self.ARGS)
        by_flags = invoke(runner, ["diverse", "--instance", paths["rand5"],
                                   "--rule", "diversitree", "--alpha", "0.94",
                                   "--beta", "0.06", "--scut", "0.8"] + self.ARGS)
        assert by_preset.output == by_flags.output
        doc = json.loads(by_preset.output)
        assert (doc["rule"], doc["alpha"], doc["beta"]) == ("diversitree", 0.94, 0.06)

    def test_timing_fields_stay_null_without_the_flag(self, runner, paths):
        doc = json.loads(invoke(runner, ["diverse", "--instance", paths["knap"],
                                         "--q", "0.5", "--p", "2"]).output)
        assert doc["wallTimeMs"] is None
        timed = json.loads(invoke(runner, ["diverse", "--instance", paths["knap"],
                                           "--q", "0.5", "--p", "2", "--timings"]).output)
        assert timed["wallTimeMs"] >= 0.0

    def test_pipeline_errors_exit_nonzero(self, runner, tmp_path):
        p = tmp_path / "free.mps"
        p.write_text("""NAME FREE
ROWS
 N OBJ
 L CAP
COLUMNS
    Y OBJ 1.0 CAP 1.0
RHS
    RHS CAP 5.0
BOUNDS
 MI BND Y
 UP BND Y 0.0
ENDATA
""")
        res = CliRunner().invoke(main, ["diverse", "--instance", str(p)])
        assert res.exit_code == 1
        assert "optimize stage" in res.output


    def test_a_model_error_is_a_clean_parse_failure(self, tmp_path):
        p = tmp_path / "overflow.mps"
        p.write_text("""\
NAME overflow
ROWS
 N OBJ
 L CAP
COLUMNS
    Y OBJ 1.0 CAP 1e308
RHS
    RHS CAP 5.0
ENDATA
""")
        res = CliRunner().invoke(main, ["diverse", "--instance", str(p)])
        assert res.exit_code == 1
        assert "cannot parse" in res.output and "not finite" in res.output
        assert isinstance(res.exception, SystemExit)  # no traceback


class TestCompare:
    def test_table_mode(self, runner, paths):
        res = invoke(runner, ["compare", "--instance", paths["rand5"], "--q", "0.05",
                              "--p1", "20", "--p", "3", "--rules", "bestfs,dfs"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0].startswith("rule")
        assert any(row.startswith("bestfs") and "+0.0" in row for row in lines[1:])
        assert any(row.startswith("dfs") for row in lines[1:])

    def test_csv_mode(self, runner, paths, tmp_path):
        out = tmp_path / "cmp.csv"
        res = invoke(runner, ["compare", "--instance", paths["rand5"], "--q", "0.05",
                              "--p1", "20", "--p", "3", "--rules", "bestfs,diversitree",
                              "--alpha", "0.94", "--beta", "0.06", "--scut", "0.8",
                              "--out", str(out)])
        assert res.exit_code == 0
        assert f"wrote {out}" in res.output
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["rule"] for r in rows] == ["bestfs", "diversitree"]
        assert rows[0]["improvementPct"] not in ("", None)

    def test_a_weight_sum_above_one_warns_once(self, runner, caplog):
        knap3 = Path(__file__).resolve().parents[1] / "instances" / "knap3.mps"
        with caplog.at_level("WARNING", logger="diversitree.selectors"):
            res = invoke(runner, ["compare", "--instance", str(knap3),
                                  "--alpha", "0.95", "--beta", "0.06"])
        assert res.exit_code == 0
        assert len(res.output.splitlines()) == 1 + 6  # the header and one row per rule
        assert [rec.getMessage() for rec in caplog.records] == [
            "alpha + beta = 1.0100 > 1; the bound weight goes negative"]

    def test_unknown_rule_is_a_usage_error(self, runner, paths):
        res = runner.invoke(main, ["compare", "--instance", paths["knap"],
                                   "--rules", "bestfs,cplex"])
        assert res.exit_code == 2
        assert "unknown rule" in res.output


class TestGrid:
    def test_table_mode_ranks_rows(self, runner, paths):
        res = invoke(runner, ["grid", "--instance", paths["rand3"], "--q", "0.05",
                              "--p1", "10", "--p", "3", "--alpha-grid", "0,0.94",
                              "--beta-grid", "0", "--s-grid", "0.8"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0].lstrip().startswith("rank")

    def test_csv_covers_every_q_and_unlimited_p1(self, runner, paths, tmp_path):
        out = tmp_path / "grid.csv"
        res = invoke(runner, ["grid", "--instance", paths["rand3"], "--q", "0.03",
                              "--q", "0.1", "--p1", "0", "--p", "3",
                              "--alpha-grid", "0,0.5", "--beta-grid", "0",
                              "--s-grid", "0.5", "--out", str(out)])
        assert res.exit_code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["q"] for r in rows} == {"0.03", "0.1"}
        assert {r["p1"] for r in rows} == {""}  # unlimited pools serialize empty
        assert [r["rank"] for r in rows] == ["1", "2", "3", "4"]

    def test_bad_float_list_is_a_usage_error(self, runner, paths):
        res = runner.invoke(main, ["grid", "--instance", paths["knap"],
                                   "--alpha-grid", "0,zebra"])
        assert res.exit_code == 2
        assert "bad float list" in res.output

    @pytest.mark.parametrize("flags", [
        ["--q", "-1"],
        ["--alpha-grid=-0.5", "--beta-grid", "0"],
        ["--p", "0"],
    ], ids=["q", "alpha-grid", "p"])
    def test_invalid_sweep_value_is_a_usage_error(self, runner, paths, flags):
        res = runner.invoke(main, ["grid", "--instance", paths["knap"], *flags])
        assert res.exit_code == 2
        assert "Error:" in res.output and "Traceback" not in res.output


SELECTOR_FLAGS = ["--rule", "--preset"]
WEIGHT_FLAGS = ["--alpha", "--beta", "--scut", "--dcut", "--rho", "--literal-score",
                "--seed", "--node-limit", "--time-limit"]
HELP_FLAGS = {
    "solve": ["--instance", "--node-limit", "--time-limit", "--timings", "--out"],
    "enumerate": ["--instance", "--q", "--p1", "--dedup", *SELECTOR_FLAGS, *WEIGHT_FLAGS,
                  "--trace", "--timings", "--out"],
    "diverse": ["--instance", "--q", "--p1", "--p", "--method", "--dedup", *SELECTOR_FLAGS,
                *WEIGHT_FLAGS, "--trace", "--timings", "--out"],
    "compare": ["--instance", "--q", "--p1", "--p", "--dedup", "--rules", "--baseline",
                *WEIGHT_FLAGS, "--out"],
    "grid": ["--instance", "--q", "--p1", "--p", "--rule", "--alpha-grid", "--beta-grid",
             "--s-grid", "--seed", "--node-limit", "--time-limit", "--out"],
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_every_option_in_order(runner, command):
    res = invoke(runner, [command, "--help"])
    assert res.exit_code == 0
    listed = re.findall(r"^  (--[a-z0-9-]+)", res.output, re.M)
    assert listed == HELP_FLAGS[command] + ["--help"]


class TestFlagValidation:
    def test_unknown_selector_rule(self, runner, paths):
        res = runner.invoke(main, ["diverse", "--instance", paths["knap"],
                                   "--rule", "nonsense"])
        assert res.exit_code == 2

    def test_alpha_out_of_range(self, runner, paths):
        res = runner.invoke(main, ["diverse", "--instance", paths["knap"],
                                   "--alpha", "1.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("rule, rho", [("he", "nan"), ("uct", "inf")])
    def test_non_finite_rho(self, runner, paths, rule, rho):
        res = runner.invoke(main, ["diverse", "--instance", paths["knap"],
                                   "--rule", rule, "--rho", rho])
        assert res.exit_code == 2
        assert "rho must be a finite number >= 0" in res.output

    @pytest.mark.parametrize("command", ["diverse", "enumerate"])
    def test_a_preset_weight_sum_above_one_warns_once(self, runner, caplog, command):
        knap3 = str(Path(__file__).resolve().parents[1] / "instances" / "knap3.mps")
        with caplog.at_level("WARNING", logger="diversitree.selectors"):
            res = invoke(runner, [command, "--instance", knap3, "--preset", "hll"])
            assert res.exit_code == 0
            assert [rec.getMessage() for rec in caplog.records] == [
                "alpha + beta = 1.0100 > 1; the bound weight goes negative"]
            caplog.clear()
            # flags take the place of the preset's values, its rule included
            res = invoke(runner, [command, "--instance", knap3, "--preset", "hll",
                                  "--alpha", "0.5", "--rule", "bestfs"])
        assert res.exit_code == 0 and caplog.records == []
        doc = json.loads(res.output)
        assert (doc["rule"], doc["alpha"], doc["beta"], doc["solCutoff"]) == ("bestfs", 0.5, 0.06, 0.2)

    def test_subset_bigger_than_pool_capacity(self, runner, paths):
        res = runner.invoke(main, ["diverse", "--instance", paths["knap"],
                                   "--p1", "5", "--p", "6"])
        assert res.exit_code == 2
        assert "exceeds pool capacity" in res.output

    @pytest.mark.parametrize("command, flags", [
        (command, flags)
        for flags in (["--time-limit", "nan"], ["--time-limit", "-1"], ["--node-limit", "-1"],
                      ["--q", "nan"])
        for command in ("solve", "enumerate", "diverse", "compare", "grid")
        if not (command == "solve" and flags[0] == "--q")  # solve takes no --q
    ])
    def test_nan_or_negative_limit_is_a_usage_error(self, runner, paths, command, flags):
        res = runner.invoke(main, [command, "--instance", paths["knap"], *flags])
        assert res.exit_code == 2
        assert "must be nonnegative" in res.output and "Traceback" not in res.output

    def test_missing_instance_file(self, runner, tmp_path):
        res = runner.invoke(main, ["solve", "--instance", str(tmp_path / "ghost.mps")])
        assert res.exit_code == 2

    def test_version_flag(self, runner):
        res = invoke(runner, ["--version"])
        assert res.exit_code == 0
        assert "0.1.0" in res.output

    def test_module_entry_point_version(self):
        # python -m diversitree must work from a checkout that is not installed
        src = str(Path(diversitree.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-m", "diversitree", "--version"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"diversitree, version {diversitree.__version__}\n"

    def test_log_env_smoke(self, runner, paths):
        for value in ("DEBUG", "purple"):
            res = invoke(runner, ["solve", "--instance", paths["knap"]],
                         env={"DIVERSITREE_LOG": value})
            assert res.exit_code == 0
