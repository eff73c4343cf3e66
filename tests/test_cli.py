"""End-to-end checks of the ``bhcp run`` command line."""

import math
import os

import pytest

import bhcp.pint
from bhcp.bench import parse_csv
from bhcp.cli import build_parser, main


def run_args(out, **overrides):
    options = {
        "--example": "1",
        "--method": "pint-qbvm",
        "--solver": "pint",
        "--mesh": "16x8",
        "--eps": "1e-1",
        "--seed": "7",
        "--out": out,
    }
    options.update(overrides)
    argv = ["run"]
    for flag, value in options.items():
        if value is None:
            continue
        argv.extend([flag, value])
    return argv


def test_run_writes_csv_and_banner(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out)) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "# bhcp run"
    assert "example=1" in lines[1]
    assert "seed=7" in lines[3]
    assert any("pint-qbvm" in line and "ok" in line for line in lines[4:])
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0].method == "pint-qbvm"
    assert rows[0].status == "ok"


def test_method_all_with_pint_is_rejected(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out, **{"--method": "all"})) == 2
    assert not os.path.exists(out)
    assert "bhcp:" in capsys.readouterr().err


def test_method_all_with_sparse_lu(tmp_path):
    out = str(tmp_path / "rows.csv")
    argv = run_args(out, **{"--method": "all", "--solver": "sparse-lu"})
    assert main(argv) == 0
    rows = parse_csv(out)
    assert sorted(r.method for r in rows) == [
        "mqbvm",
        "pint-mqbvm",
        "pint-qbvm",
        "qbvm",
    ]
    assert all(r.status == "ok" for r in rows)


def test_bad_mesh_and_eps_exit_via_argparse(tmp_path):
    out = str(tmp_path / "rows.csv")
    for overrides in (
        {"--mesh": "16"},
        {"--mesh": "16xNaNx3"},
        {"--mesh": "axb"},
        {"--eps": "0.1,lots"},
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(run_args(out, **overrides))
        assert excinfo.value.code == 2


def test_fixed_alpha_rule_lands_in_csv(tmp_path):
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out, **{"--alpha-rule": "fixed:0.05"})) == 0
    rows = parse_csv(out)
    assert rows[0].alpha == 0.05


def test_unknown_alpha_rule_rejected(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out, **{"--alpha-rule": "bogus"})) == 2
    assert "bhcp:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"--eps": "1e-2", "--alpha-rule": "fixed:nan"},
        {"--eps": "1e-2", "--alpha-rule": "fixed:inf"},
        {"--eps": "nan"},
        {"--eps": "inf"},
    ],
)
def test_non_finite_alpha_or_eps_rejected(tmp_path, capsys, overrides):
    # rejected with the configuration, before any row is written
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out, **overrides)) == 2
    assert not os.path.exists(out)
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1.5", "1e308"])
def test_eps_above_one_rejected(tmp_path, capsys, eps):
    # noise above 100% of the data is refused up front, not run into an error row
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out, **{"--eps": eps})) == 2
    assert not os.path.exists(out)
    assert "[0, 1]" in capsys.readouterr().err


def test_profiles_flag_writes_files(tmp_path):
    out = str(tmp_path / "rows.csv")
    profiles = tmp_path / "profiles"
    argv = run_args(out, **{"--profiles": str(profiles)})
    assert main(argv) == 0
    files = list(profiles.iterdir())
    assert len(files) == 1
    assert files[0].name.startswith("ex1_pint-qbvm_M16_N8")


def test_out_in_a_missing_directory_is_rejected_before_the_sweep(tmp_path, capsys):
    out = str(tmp_path / "missing" / "rows.csv")
    assert main(run_args(out)) == 2
    captured = capsys.readouterr()
    assert "does not exist" in captured.err
    assert "# bhcp run" not in captured.out


def test_out_that_is_a_directory_is_rejected_before_the_sweep(tmp_path, capsys):
    assert main(run_args(str(tmp_path))) == 2
    captured = capsys.readouterr()
    assert "is a directory" in captured.err
    assert "# bhcp run" not in captured.out


def test_empty_out_is_rejected_before_the_sweep(capsys):
    assert main(run_args("")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bhcp: --out")
    assert "# bhcp run" not in captured.out


def test_profiles_under_a_file_is_rejected_before_the_sweep(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = run_args(out, **{"--profiles": str(blocker / "profiles")})
    assert main(argv) == 2
    assert not os.path.exists(out)
    assert "--profiles" in capsys.readouterr().err


def test_infeasible_rows_exit_zero(tmp_path, capsys):
    # a refusal is an expected outcome, not an error
    out = str(tmp_path / "rows.csv")
    argv = run_args(
        out, **{"--method": "qbvm", "--solver": "sparse-lu", "--mesh": "4096x4096"}
    )
    assert main(argv) == 0
    rows = parse_csv(out)
    assert rows[0].status == "infeasible"
    captured = capsys.readouterr()
    assert "infeasible" in captured.out
    assert "bhcp: qbvm M=4096 N=4096 eps=0.1 infeasible: " in captured.err
    assert "exceed the budget" in captured.err


def test_pint_refusal_rows_exit_zero(tmp_path, monkeypatch):
    # the pint solver's size guard is an expected outcome too
    monkeypatch.setattr(bhcp.pint, "BLOCK_BUDGET", 0)
    out = str(tmp_path / "rows.csv")
    assert main(run_args(out)) == 0
    assert [row.status for row in parse_csv(out)] == ["infeasible"]


def test_ill_conditioned_rows_exit_zero(tmp_path, capsys):
    # noise-free data gives alpha = 1e-12, past the pint conditioning cut-off;
    # the refusal is an expected outcome, not an error
    for method in ("pint-qbvm", "pint-mqbvm"):
        out = str(tmp_path / f"{method}.csv")
        assert main(run_args(out, **{"--method": method, "--eps": "0"})) == 0
        assert [row.status for row in parse_csv(out)] == ["ill-conditioned"]
        captured = capsys.readouterr()
        assert "ill-conditioned" in captured.out
        assert f"bhcp: {method} " in captured.err
        assert "ill-conditioned: error bound cond(Gamma)*eps" in captured.err


def test_extreme_fixed_alpha_rows_are_ok(tmp_path):
    # at alpha 1e300 the pint rows' rhs is about 1e-300, whose squares
    # underflow; the residual still comes out finite
    out = str(tmp_path / "rows.csv")
    argv = run_args(out, **{
        "--method": "all", "--solver": "sparse-lu", "--mesh": "8x8",
        "--seed": "1", "--alpha-rule": "fixed:1e300",
    })
    assert main(argv) == 0
    rows = parse_csv(out)
    assert [row.status for row in rows] == ["ok"] * 4
    assert all(math.isfinite(row.residual) for row in rows)


def test_overflowing_mqbvm_row_is_refused(tmp_path, capsys):
    # at alpha 1e308 mqbvm's alpha/tau overflows; that row is refused and
    # the other three kinds still answer
    out = str(tmp_path / "rows.csv")
    argv = run_args(out, **{
        "--method": "all", "--solver": "sparse-lu", "--mesh": "8x8",
        "--seed": "1", "--alpha-rule": "fixed:1e308",
    })
    assert main(argv) == 0
    rows = parse_csv(out)
    assert [row.status for row in rows] == ["ok", "ill-conditioned", "ok", "ok"]
    assert "bhcp: mqbvm M=8 N=8 eps=0.1 ill-conditioned: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, statuses",
    [
        (
            {"--method": "all", "--solver": "sparse-lu",
             "--alpha-rule": "fixed:1e-323"},
            ["ok", "ok", "ill-conditioned", "ill-conditioned"],
        ),
        (
            {"--method": "pint-mqbvm", "--solver": "spectral-oracle",
             "--alpha-rule": "fixed:5e-324"},
            ["ill-conditioned"],
        ),
    ],
)
def test_underflowing_alpha_rows_are_refused(tmp_path, capsys, overrides, statuses):
    # at these alphas the pint corner 1/(tau*alpha) or 1/alpha is inf (for
    # pint-qbvm tau*alpha underflows to 0); those rows are refused by the
    # solver and the run exits 0
    out = str(tmp_path / "rows.csv")
    argv = run_args(out, **{"--mesh": "8x8", "--seed": "1", **overrides})
    assert main(argv) == 0
    assert [row.status for row in parse_csv(out)] == statuses
    err = capsys.readouterr().err
    assert "bhcp: pint-mqbvm M=8 N=8 eps=0.1 ill-conditioned: " in err
    assert "failed" not in err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == 2


def test_repeats_multiplies_rows(tmp_path):
    out = str(tmp_path / "rows.csv")
    argv = run_args(out, **{"--repeats": "3"})
    assert main(argv) == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert len({r.seed for r in rows}) == 3
