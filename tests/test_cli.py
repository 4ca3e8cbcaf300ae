import json
import subprocess
import sys
from pathlib import Path

import pytest

from corz import census, cli
from corz.cli import COUNT_N_MAX, ELL_MAX, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_values(capsys):
    cases = [
        (("count", "p", "6"), "11"),
        (("count", "p-regular", "6", "5"), "10"),
        (("count", "cores", "6", "5"), "6"),
        (("count", "sigma", "7", "5"), "6"),
        (("count", "delta", "11"), "5"),
        (("count", "inv-alpha", "7"), "8"),
        (("count", "n-ell", "3"), "16"),
        (("count", "z-all", "4"), "4"),
    ]
    for argv, want in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == want, argv


def test_count_arity_error(capsys):
    code, out, err = run_cli(capsys, "count", "cores", "6")
    assert code == 2
    assert "takes 2 argument(s)" in err


def test_count_domain_error(capsys):
    code, out, err = run_cli(capsys, "count", "inv-alpha", "9")
    assert code == 2
    assert err.startswith("corz:")
    # (ell^2 - 1)/24 is an integer at ell = 1, -1 and -5, which are no moduli
    for argv in (("delta", "1"), ("delta", "-1"), ("delta", "-5"), ("n-ell", "1")):
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2 and out == "", argv
        assert "ell must be at least 2" in err, argv


def test_count_series_bound(capsys):
    n_args = (("p", "1000000"), ("p-regular", "1000000", "2"), ("cores", "1000000", "5"),
              ("cores", str(COUNT_N_MAX + 1), "5"))
    ell_args = (("cores", "10", str(ELL_MAX + 1)), ("sigma", "100000000000000", "997"),
                ("delta", "505"), ("inv-alpha", "503"), ("n-ell", "501"))
    for argv in n_args + ell_args:
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2 and out == "", argv
        assert f"at most {ELL_MAX if argv in ell_args else COUNT_N_MAX}" in err, argv
    code, out, err = run_cli(capsys, "count", "p", str(COUNT_N_MAX))
    assert code == 0 and out.strip().isdigit()
    code, out, err = run_cli(capsys, "count", "cores", "10", "499")
    assert code == 0 and out.strip() == "42"


def test_count_sigma_bounds_n(capsys):
    # the twisted divisor sum trial-divides up to sqrt(n): a large prime n
    # used to run for seconds before printing
    code, out, err = run_cli(capsys, "count", "sigma", "10000000000000061", "5")
    assert code == 2 and out == ""
    assert f"n must be at most {COUNT_N_MAX}" in err
    code, out, err = run_cli(capsys, "count", "sigma", str(COUNT_N_MAX), "5")
    assert code == 0 and out.strip() == "13125"


def test_count_z_all_cap(capsys):
    code, out, err = run_cli(capsys, "count", "z-all", "30")
    assert code == 2 and "cap" in err
    code, out, err = run_cli(capsys, "count", "z-all", "19", "--cap-exact", "19")
    assert code == 0 and out.strip().isdigit()


def test_census_stdout_csv(capsys):
    code, out, err = run_cli(
        capsys, "census", "--ell", "2,3", "--n-min", "1", "--n-max", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,ell,p_n,p_ell_n,c_ell_n,z_lower,z_exact,z_star_exact,z_star_closed,"
        "main_term_num,main_term_den"
    )
    assert lines[1] == "1,2,1,1,1,0,0,0,,,"
    assert len(lines) == 7


def test_census_out_file(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, printed, err = run_cli(
        capsys, "census", "--ell", "3", "--n-min", "1", "--n-max", "2",
        "--out", str(out),
    )
    assert code == 0 and printed == ""
    assert out.read_text().startswith("n,ell,")


def test_census_unwritable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_census", no_sweep)
    for out in (tmp_path / "missing" / "c.csv", tmp_path, tmp_path / "file.txt" / "c.csv"):
        (tmp_path / "file.txt").write_text("")
        code, printed, err = run_cli(capsys, "census", "--out", str(out))
        assert code == 2 and printed == "", out
        assert f"--out {out}" in err, out
    assert not (tmp_path / "missing").exists()


def test_census_rejects_small_moduli(capsys, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_census", no_sweep)
    # and those above ELL_MAX, where the core enumeration would recurse too deep
    n_zero = ("--n-min", "0", "--n-max", "0")
    for ell in ("1", "0", "5,1", str(ELL_MAX + 1), "991", "5,501"):
        code, out, err = run_cli(capsys, "census", "--ell", ell, *n_zero)
        assert code == 2 and out == "", ell
        assert f"--ell moduli must be between 2 and {ELL_MAX}" in err, ell
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "census", "--ell", "499", *n_zero)
    assert code == 0 and out.splitlines()[1].startswith("0,499,1,1,1,0,0,0,,")


REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


@pytest.mark.parametrize(
    "ref, argv",
    [
        ("census-star-window.csv", ("--ell", "5,7", "--n-min", "26", "--n-max", "29")),
        ("census-full-table.csv", ("--z-all", "--ell", "3,5,7", "--n-min", "10", "--n-max", "14")),
    ],
)
def test_census_bytes_match_the_benchmark_references(ref, argv, tmp_path, capsys):
    # cold cache, then warm: both print the reference CSV byte for byte
    want = (REFS / ref).read_bytes()
    for run in ("cold", "warm"):
        code, out, err = run_cli(capsys, "census", *argv, "--cache-dir", str(tmp_path))
        assert code == 0, err
        assert out.encode() == want, run


def test_census_and_asymptotics_bound_n_max(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "run_census", no_work)
    monkeypatch.setattr(cli, "count_p", no_work)
    for command in ("census", "asymptotics"):
        code, out, err = run_cli(capsys, command, "--n-max", str(COUNT_N_MAX + 1))
        assert code == 2 and out == "", command
        assert f"--n-max must be at most {COUNT_N_MAX}" in err, command


def test_census_json_format(capsys):
    code, out, err = run_cli(
        capsys, "census", "--ell", "5", "--n-min", "6", "--n-max", "6",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["n"] == 6 and rec["ell"] == 5
    assert rec["z_exact"] == "14"
    assert rec["main_term_num"] == "66"


def test_census_env_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CORZ_CACHE_DIR", str(tmp_path / "cache"))
    code, out, err = run_cli(
        capsys, "census", "--ell", "3", "--n-min", "4", "--n-max", "4"
    )
    assert code == 0
    assert (tmp_path / "cache" / "census-3-4.json").exists()


def test_census_bad_ell_list(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "census", "--ell", "2,x")
    assert code == 2
    assert "cannot parse --ell" in err

    def no_sweep(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_census", no_sweep)
    for ell in (" ", ",", ", ,", ""):
        code, out, err = run_cli(capsys, "census", "--ell", ell)
        assert code == 2 and out == "", ell
        assert "names no modulus" in err, ell


def test_census_rejects_jobs_out_of_range(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(census, "ProcessPoolExecutor", no_pool)
    for jobs in ("0", "-1", str(10**6)):
        code, out, err = run_cli(capsys, "census", "--jobs", jobs)
        assert code == 2 and out == "", jobs
        assert "--jobs must be between 1 and" in err, jobs


def test_census_z_all_flag(capsys):
    code, out, err = run_cli(
        capsys, "census", "--ell", "3", "--n-min", "3", "--n-max", "3", "--z-all"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",z_all")
    assert lines[1].endswith(",1")


def test_verify_text_output(capsys):
    code, out, err = run_cli(capsys, "verify", "constants")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("ok  ")) == 4
    assert lines[-1].startswith("suite constants passed")


def test_verify_json_output(capsys):
    code, out, err = run_cli(capsys, "verify", "closed-forms", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["suite"] == "closed-forms"
    assert doc[0]["passed"] is True


def test_verify_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "nope")
    assert code == 2
    assert "unknown suite" in err and "available" in err


def test_asymptotics_table(capsys):
    code, out, err = run_cli(
        capsys, "asymptotics", "--ell", "5", "--n-min", "100", "--n-max", "200",
        "--step", "100",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "n", "p_n", "hr_estimate", "hr_ratio", "p_ell_n", "hagis_estimate",
        "hagis_ratio",
    ]
    assert len(lines) == 3
    assert lines[1].split()[1] == "190569292"


def test_asymptotics_csv(capsys):
    code, out, err = run_cli(
        capsys, "asymptotics", "--n-min", "50", "--n-max", "50", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,p_n,")
    assert lines[1].startswith("50,204226,")


def test_asymptotics_rejects_bad_range(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--n-min", "0")
    assert code == 2


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--format", "yaml"])
    assert exc.value.code == 2


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corz.cli", "count", "p", "30"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5604"
