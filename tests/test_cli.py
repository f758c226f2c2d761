"""Command-line interface: every subcommand end to end, in process."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpccert
from mpccert.cli import build_parser, main


def run_json(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    return json.loads(out.splitlines()[-1])


class TestAlpha:
    def test_exponential_closed_form(self, capsys):
        rec = run_json(
            capsys, ["alpha", "--C", "3", "--sigma", "0.6666666667", "--N", "18", "--m", "1"]
        )
        assert rec["N"] == 18
        assert rec["m"] == 1
        assert rec["method"] == "closed_form"
        assert rec["alpha"] == pytest.approx(0.0548841419, abs=1e-9)
        assert rec["stable"] is True
        assert rec["performance_bound"] == pytest.approx(1.0 / rec["alpha"], rel=1e-9)

    def test_exact_route(self, capsys):
        rec = run_json(capsys, ["alpha", "--M", "3", "--N", "4", "--m", "2", "--exact"])
        assert rec["method"] == "linear_program"
        assert rec["alpha"] == pytest.approx(0.36, abs=1e-9)
        assert rec["submultiplicative"] is True

    def test_exact_route_on_an_ordinary_constant_bound(self, capsys):
        # a HiGHS solve of this program used to fail its feasibility gate
        rec = run_json(capsys, ["alpha", "--M", "1.5125", "--N", "20", "--m", "5", "--exact"])
        assert rec["method"] == "linear_program"
        closed = run_json(capsys, ["alpha", "--M", "1.5125", "--N", "20", "--m", "5"])
        assert rec["alpha"] == pytest.approx(closed["alpha"], abs=1e-12)

    def test_unstable_result_is_not_an_error(self, capsys):
        rec = run_json(capsys, ["alpha", "--M", "3", "--N", "3", "--m", "1"])
        assert rec["stable"] is False
        assert rec["performance_bound"] is None

    def test_gamma_sources_are_mutually_exclusive(self, capsys):
        for argv in (
            ["alpha", "--C", "3", "--M", "2", "--N", "4", "--m", "1"],
            ["horizon", "--M", "2", "--C", "3", "--sigma", "0.5"],
        ):
            assert main(argv) == 1
            assert "error:" in capsys.readouterr().err

    def test_sigma_requires_c(self, capsys):
        assert main(["alpha", "--sigma", "0.5", "--N", "4", "--m", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_parameter_value(self, capsys):
        assert main(["alpha", "--C", "0.5", "--sigma", "0.5", "--N", "4", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "alpha.json"
        rec = run_json(
            capsys, ["alpha", "--M", "2", "--N", "4", "--m", "1", "--output", str(out)]
        )
        on_disk = json.loads(out.read_text())
        assert on_disk == rec


class TestGammaAndCsvInterop:
    def test_written_sequence_feeds_alpha(self, capsys, tmp_path):
        path = tmp_path / "gamma.csv"
        assert main(["gamma", "--M", "2", "--length", "3", "--output", str(path)]) == 0
        capsys.readouterr()
        rec = run_json(capsys, ["alpha", "--gamma-csv", str(path), "--N", "3", "--m", "1"])
        # constant M=2, N=3, m=1: q1 = 1/3 over {2,3}, q2 = 1 -> alpha = 2/3
        assert rec["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-11)

    def test_stdout_when_no_output(self, capsys):
        assert main(["gamma", "--M", "2", "--length", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "i,gamma"
        assert len(out) == 4

    def test_exponential_source(self, capsys, tmp_path):
        path = tmp_path / "gamma.csv"
        assert main(
            ["gamma", "--C", "3", "--sigma", "0.5", "--length", "4", "--output", str(path)]
        ) == 0
        rows = path.read_text().strip().splitlines()
        assert rows[1] == "1,3"
        assert rows[2] == "2,4.5"


class TestProfileRegionHorizon:
    def test_profile_csv(self, capsys, tmp_path):
        argv = ["profile", "--C", "3", "--sigma", "0.6666666667", "--N", "12"]
        out = tmp_path / "profile.csv"
        assert main([*argv, "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#config")
        assert lines[1] == "m,alpha"
        assert len(lines) == 2 + 11  # m = 1..11
        best = max(float(l.split(",")[1]) for l in lines[2:])
        assert best == pytest.approx(0.1266, abs=1e-3)
        # without --output the same table goes to stdout
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_region_csv(self, capsys, tmp_path):
        out = tmp_path / "region.csv"
        assert main(
            [
                "region", "--N", "8", "--m", "1",
                "--C-range", "1.5", "3", "--sigma-range", "0.3", "0.7",
                "--grid", "3", "--output", str(out),
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "C,sigma,stable"
        assert len(lines) == 2 + 9
        verdicts = {tuple(l.split(",")[:2]): l.split(",")[2] for l in lines[2:]}
        assert verdicts[("1.5", "0.3")] == "1"

    def test_region_rejects_oversized_grids(self, tmp_path):
        # the grid's axes and mask are allocated before any check; run in a
        # child with a time and an address-space limit, as above
        out = tmp_path / "r.csv"
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "import mpccert.cli\n"
            "for grid in ('1001', '1000000000'):\n"
            "    print(mpccert.cli.main(['region', '--N', '8', '--m', '1', '--grid', grid,\n"
            f"                            '--output', {str(out)!r}]))\n"
        )
        res = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                             text=True, check=True, timeout=30)
        assert res.stdout.split() == ["1", "1"]
        errors = res.stderr.strip().splitlines()
        assert errors == [
            "error: grid 1001 exceeds 1000 cells per axis",
            "error: grid 1000000000 exceeds 1000 cells per axis",
        ]
        assert not out.exists()

    def test_horizon_single(self, capsys):
        rec = run_json(capsys, ["horizon", "--M", "2"])
        assert rec["N_hat"] == 2
        assert rec["m"] == 1
        assert rec["bound_m1"] == pytest.approx(2.0, abs=1e-9)

    def test_horizon_policy_best(self, capsys):
        rec = run_json(
            capsys, ["horizon", "--C", "3", "--sigma", "0.6666666667", "--policy", "best"]
        )
        assert rec["N_hat"] == 12

    def test_horizon_table(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["horizon", "--table", "2", "4", "1", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "M,N_hat_m1,N_hat_half,bound_m1,bound_half"
        assert len(lines) == 5  # config + header + M in {2,3,4}

    def test_horizon_table_rejects_endless_or_empty_ranges(self, tmp_path):
        # a non-positive step used to loop forever, growing without bound,
        # a non-finite bound to write 0 rows, and a tiny step to build ~1e10
        # rows before any work; run in a child with a time and an
        # address-space limit so a regression cannot hang the suite
        cases = [
            ["2", "4", "0"],
            ["2", "4", "-1"],
            ["nan", "4", "1"],
            ["2", "inf", "1"],
            ["2", "4", "nan"],
            ["2", "40", "1e-9"],
            ["2", "10003", "1"],  # 10002 rows, two above the limit
        ]
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "import mpccert.cli\n"
            f"for table in {cases!r}:\n"
            f"    print(mpccert.cli.main(['horizon', '--table', *table, '--output', {str(tmp_path / 't.csv')!r}]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                             text=True, check=True, timeout=30)
        assert out.stdout.split() == ["1"] * len(cases)
        errors = out.stderr.strip().splitlines()
        assert len(errors) == len(cases)
        assert all(e.startswith("error: table ") for e in errors), errors
        assert not (tmp_path / "t.csv").exists()


class TestSimulate:
    def test_lq_run_with_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        rec = run_json(
            capsys,
            [
                "simulate", "--model", "lq-scalar", "--N", "6", "--m", "2",
                "--steps", "10", "--output", str(out),
            ],
        )
        assert rec["updates"] == 5
        assert rec["all_converged"] is True
        assert rec["measured_alpha"] > 0.99
        assert rec["value_final"] < rec["value_initial"]
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "n,x1,u1,lambda,update_flag,m_k,V_N"
        assert len(lines) == 2 + 10 + 1

    def test_explicit_initial_state(self, capsys):
        rec = run_json(
            capsys,
            ["simulate", "--model", "lq-scalar", "--N", "5", "--m", "1",
             "--steps", "4", "--x0", "2.0"],
        )
        assert rec["config"]["x0"] == [2.0]
        # V_5(2) = 4 p_5 with p_5 = 4.230769... from the cost-to-go recursion
        assert rec["value_initial"] == pytest.approx(4.0 * 4.230769230769, rel=1e-6)


    @pytest.mark.parametrize("model, startup, epsilon", [("lq-scalar", 0, 0.0), ("pendulum", 20, 1e-5)])
    def test_unset_loop_flags_take_the_model_defaults(self, capsys, model, startup, epsilon):
        rec = run_json(capsys, ["simulate", "--model", model, "--N", "2", "--m", "1", "--steps", "1"])
        assert (rec["config"]["startup"], rec["config"]["epsilon"]) == (startup, epsilon)
        assert rec["failure"] is None

    @pytest.mark.parametrize("flag,value", [("--m", "0"), ("--m", "-1"), ("--steps", "0")])
    def test_nonpositive_counts_are_rejected(self, capsys, flag, value):
        argv = {"--m": "2", "--steps": "4"}
        argv[flag] = value
        cmd = ["simulate", "--model", "lq-scalar", "--N", "6"]
        assert main(cmd + [tok for kv in argv.items() for tok in kv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} {value} must be >= 1"), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--model", "lq-scalar", "--N", "3", "--m", "5", "--steps", "10"],
            ["--model", "lq-scalar", "--N", "3", "--m", "3", "--steps", "10"],
            ["--model", "pendulum", "--N", "2", "--m", "4", "--steps", "4", "--startup", "0"],
        ],
    )
    def test_control_horizon_above_n_minus_one_is_rejected(self, capsys, argv):
        assert main(["simulate"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --m "), captured.err
        assert "must be <= N - 1" in captured.err
        assert captured.out == ""


class TestNetwork:
    def test_certified_campaign(self, capsys):
        rec = run_json(
            capsys,
            ["network", "--model", "lq-scalar", "--N", "6", "--m-star", "3",
             "--p", "0.3", "--seeds", "3", "--steps", "15"],
        )
        assert rec["violations"] == 0
        assert rec["alpha_star"] == pytest.approx(0.0756302521, abs=1e-9)
        assert len(rec["seeds"]) == 3
        assert [s["all_converged"] for s in rec["seeds"]] == [True, True, True]

    def test_long_horizon_campaign_passes_its_audit(self, capsys):
        # at N = 20 single shooting returned V_N off by up to 12x near the
        # target, which showed up as two violations and measured alpha -1.32
        rec = run_json(
            capsys,
            ["network", "--model", "lq-scalar", "--N", "20", "--m-star", "3",
             "--p", "0.3", "--seeds", "1", "--steps", "30"],
        )
        assert rec["violations"] == 0
        for seed in rec["seeds"]:
            assert seed["violations"] == 0
            assert seed["measured_alpha"] >= rec["alpha_star"] - 1e-6

    def test_falsification_probe(self, capsys):
        rec = run_json(
            capsys,
            ["network", "--model", "lq-scalar", "--N", "6", "--m-star", "3",
             "--p", "0.3", "--seeds", "3", "--steps", "15", "--audit-alpha", "1.0"],
        )
        assert rec["violations"] >= 1

    def test_every_model_choice_runs(self, capsys):
        # each model argparse accepts must reach a report; from the origin
        # every solve is trivial, which keeps the N = 44 double integrator
        # (its shortest certified horizon at m* = 1) cheap
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        models = next(a for a in sub.choices["network"]._actions if a.dest == "model").choices
        args = {
            "lq-scalar": ["--N", "6", "--m-star", "3", "--x0", "1"],
            "lq-double-integrator": ["--N", "44", "--m-star", "1", "--x0", "0,0"],
        }
        assert set(models) == set(args)
        for model in models:
            rec = run_json(
                capsys,
                ["network", "--model", model, *args[model], "--p", "0.3", "--seeds", "1", "--steps", "2"],
            )
            assert rec["alpha_star"] > 0.0
            assert rec["violations"] == 0
            # from the origin realized cost and bound are both 0: a finite
            # ratio within the bound, not 0/0 = inf
            assert isinstance(rec["cost_ratio_max"], float)
            assert rec["cost_ratio_max"] <= 1.0 + 1e-6

    def test_model_without_growth_bounds_is_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["network", "--model", "pendulum", "--N", "8", "--m-star", "2", "--p", "0.3"])
        assert exc_info.value.code == 2

    def test_uncertified_is_refused(self, capsys):
        assert main(
            ["network", "--model", "lq-scalar", "--N", "3", "--m-star", "2",
             "--p", "0.3", "--seeds", "2", "--steps", "10"]
        ) == 1
        assert "not certified" in capsys.readouterr().err


def _to_closed_pipe(argv, buffered: bool) -> tuple[int, str]:
    """Exit status and stderr of the CLI in a child whose stdout is a pipe
    with its read end already closed (no race with a reader)."""
    env = _child_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-m", "mpccert.cli", *argv], stdout=w,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(w)
    return out.returncode, out.stderr


class TestClosedPipe:
    # a buffered stdout fails at the flush, an unbuffered one at the first print
    @pytest.mark.parametrize("argv, buffered", [
        (["alpha", "--M", "2", "--N", "4", "--m", "1"], False),
        (["gamma", "--M", "2", "--length", "5"], True),
    ])
    def test_a_reader_that_has_gone_is_not_an_error(self, argv, buffered):
        assert _to_closed_pipe(argv, buffered) == (0, "")

    def test_the_output_file_is_written_before_stdout_is_tried(self, tmp_path):
        target = tmp_path / "alpha.json"
        argv = ["alpha", "--M", "2", "--N", "4", "--m", "1", "--output", str(target)]
        assert _to_closed_pipe(argv, buffered=False) == (0, "")
        assert json.loads(target.read_text())["config"]["N"] == 4

    def test_an_unwritable_output_path_still_fails(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["alpha", "--M", "2", "--N", "4", "--m", "1", "--output", str(blocker / "alpha.json")]
        status, err = _to_closed_pipe(argv, buffered=True)
        assert status == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestArgumentHandling:
    def test_unknown_flag_exits_with_usage_error(self):
        for argv in (
            ["alpha", "--M", "2", "--N", "4", "--m", "1", "--bogus"],
            # the exact route of an unbounded LQ plant has no iterations to cap
            ["network", "--model", "lq-scalar", "--N", "6", "--m-star", "3", "--p", "0.3", "--maxiter", "5"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_relative_output_resolves_against_outdir(self, capsys, tmp_path, monkeypatch):
        outdir = tmp_path / "collected"
        monkeypatch.setenv("MPCCERT_OUTDIR", str(outdir))
        run_json(capsys, ["alpha", "--M", "2", "--N", "4", "--m", "1",
                          "--output", "sub/alpha.json"])
        assert (outdir / "sub" / "alpha.json").exists()

    def test_a_failed_write_leaves_no_directories(self, capsys, tmp_path):
        # the parents are made at write time, and removed again when the
        # write fails (here: a file name longer than any file system allows)
        target = tmp_path / "a" / "b" / ("x" * 300 + ".json")
        assert main(["alpha", "--M", "2", "--N", "4", "--m", "1", "--output", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "a").exists()

    def test_absolute_output_ignores_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MPCCERT_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        run_json(capsys, ["alpha", "--M", "2", "--N", "4", "--m", "1",
                          "--output", str(target)])
        assert target.exists()
        assert not (tmp_path / "elsewhere").exists()


def _child_env() -> dict:
    src = str(Path(mpccert.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_in_child(argv, module: str) -> str:
    """Exit status of ``main(argv)`` in a fresh interpreter, and whether it left ``module`` loaded."""
    code = (
        "import sys, io, contextlib, mpccert.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = mpccert.cli.main({argv!r})\n"
        f"print(status, {module!r} in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the shooting solver on first use only
    code = "import sys, mpccert, mpccert.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # the exact index is a closed-form recursion, with no LP solver
    for argv in (
        ["alpha", "--M", "3", "--N", "4", "--m", "2", "--exact"],
        ["profile", "--C", "3", "--sigma", "0.5", "--N", "12", "--exact"],
    ):
        assert _run_in_child(argv, "scipy") == "0 False", argv
    # unbounded LQ plants are solved by the Riccati recursion, and their
    # growth bounds come from one numpy eigensolve, so no scipy module loads
    for argv in (
        ["simulate", "--model", "lq-scalar", "--N", "6", "--m", "2", "--steps", "4"],
        ["network", "--model", "lq-scalar", "--N", "6", "--m-star", "2", "--p", "0.3",
         "--seeds", "1", "--steps", "4"],
        ["simulate", "--model", "lq-double-integrator", "--N", "6", "--m", "2", "--steps", "4"],
        ["network", "--model", "lq-double-integrator", "--N", "46", "--m-star", "1", "--p", "0.3",
         "--seeds", "1", "--steps", "2"],
    ):
        assert _run_in_child(argv, "scipy") == "0 False", argv
