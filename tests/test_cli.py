import concurrent.futures
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corz import census, characters, cli
from corz.cli import COUNT_N_MAX, ELL_MAX, Z_ALL_N_MAX, main


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
    for argv in (("p", "-1"), ("z-all", "-1")):
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2 and out == "", argv
        assert err == "corz: n must be nonnegative\n", argv


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


def test_count_z_all_cap(capsys, monkeypatch):
    # count z-all is bounded by Z_ALL_N_MAX alone, as the other quantities are
    # by their own bounds, and it has no --cap-exact
    code, out, err = run_cli(capsys, "count", "z-all", "19")
    assert code == 0 and err == "" and out == f"{census.z_all_exact(19, cap=19)}\n"

    def no_work(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(characters, "_row_vectors", no_work)
    characters._whole_table.cache_clear()
    for n in (Z_ALL_N_MAX + 1, 60):
        code, out, err = run_cli(capsys, "count", "z-all", str(n))
        assert code == 2 and out == "", n
        assert err == f"corz count z-all: n must be at most {Z_ALL_N_MAX}\n", n
    with pytest.raises(SystemExit) as exc:
        main(["count", "p", "5", "--cap-exact", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-exact 3" in capsys.readouterr().err


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


ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"
README = ROOT / "README.md"


@pytest.mark.parametrize(
    "ref, argv",
    [
        ("census-star-window.csv", ("--ell", "5,7", "--n-min", "26", "--n-max", "29")),
        ("census-full-table.csv", ("--z-all", "--ell", "3,5,7", "--n-min", "10", "--n-max", "14")),
        (
            "census-series-wide.csv",
            ("--ell", "2,3,5,7", "--n-min", "0", "--n-max", "1150",
             "--cap-exact", "12", "--cap-star", "26"),
        ),
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

    for name in ("run_census", "count_p", "count_p_regular", "count_cores", "sigma_twisted"):
        monkeypatch.setattr(cli, name, no_work)
    # asymptotics takes its series from census._sweep_series
    for name in ("_core_tables", "_regular_window", "_twisted_divisor_sums"):
        monkeypatch.setattr(census, name, no_work)
    for command in ("census", "asymptotics"):
        code, out, err = run_cli(capsys, command, "--n-max", str(COUNT_N_MAX + 1))
        assert code == 2 and out == "", command
        assert f"--n-max must be at most {COUNT_N_MAX}" in err, command
    # an empty range is refused too, rather than printing a bare header
    cases = [
        (("census", "--n-min", "5", "--n-max", "3"), "3", "5"),
        (("census", "--n-max", "-1"), "-1", "0"),
        (("asymptotics", "--ell", "5", "--n-min", "9", "--n-max", "3"), "3", "9"),
    ]
    for argv, n_max, n_min in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"--n-max {n_max} is below --n-min {n_min}: no n to sweep\n", argv
    # the main term is stated for primes 5 <= ell, and ell is bounded like census's
    for ell in ("3", "4", "9", str(ELL_MAX + 3)):
        code, out, err = run_cli(capsys, "asymptotics", "--ell", ell)
        assert code == 2 and out == "", ell
        assert f"--ell must be a prime from 5 to {ELL_MAX}, got {ell}" in err, ell


def test_whole_table_above_its_ceiling_is_refused(capsys, monkeypatch):
    # a whole table above Z_ALL_N_MAX would not fit the memory budget: the
    # command exits 2, naming n and the ceiling, before any table is built
    def no_work(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(characters, "_row_vectors", no_work)
    characters._whole_table.cache_clear()
    top = Z_ALL_N_MAX + 1
    cases = [
        ("census", "--z-all", "--n-max", "50", "--cap-exact", str(top)),
        ("census", "--z-all", "--n-max", str(top), "--cap-exact", "50"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == (
            f"census --z-all: the whole table of n={top} is above n={Z_ALL_N_MAX}, "
            "the largest that fits in 2 GiB\n"
        ), argv
    # a census whose --n-max or --cap-exact is within the ceiling passes the
    # check: above --cap-exact a record reads no table, and has no z_all
    code, out, err = run_cli(capsys, "census", "--z-all", "--ell", "3", "--n-min", str(top),
                             "--n-max", str(top), "--cap-exact", str(Z_ALL_N_MAX))
    assert code == 0 and err == "", err
    assert len(out.splitlines()) == 2 and "z_all" not in out
    # so does a census whose --n-min lies above min(--n-max, --cap-exact): no
    # cell of it reads a table, and it prints the rows it prints without --z-all
    argv = ("census", "--ell", "5", "--n-min", "50", "--n-max", "52", "--cap-exact", "40",
            "--cap-star", "0")
    code, out, err = run_cli(capsys, *argv, "--z-all")
    assert code == 0 and err == "", err
    assert len(out.splitlines()) == 4 and "z_all" not in out
    assert run_cli(capsys, *argv) == (0, out, "")
    # a census with a cell at or below that top still exits 2 before any
    # table is built, whatever its --n-min
    code, out, err = run_cli(capsys, "census", "--z-all", "--ell", "5", "--n-min", "30",
                             "--n-max", "40", "--cap-exact", "40")
    assert code == 2 and out == ""
    assert err == (
        f"census --z-all: the whole table of n=40 is above n={Z_ALL_N_MAX}, "
        "the largest that fits in 2 GiB\n"
    )


def test_census_rejects_negative_n_min(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_census", no_work)
    code, out, err = run_cli(capsys, "census", "--n-min", "-3")
    assert code == 2 and out == ""
    assert err == "--n-min must be nonnegative, got -3\n"


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


def test_census_unreadable_cache_file_exits_2(tmp_path, capsys):
    # a truncated file and a non-object document each name the file
    path = tmp_path / "census-3-6.json"
    for text in ('{"format": 1, "payload": {"z_star', "[1,2]"):
        path.write_text(text)
        code, out, err = run_cli(capsys, "census", "--ell", "3", "--n-min", "6",
                                 "--n-max", "6", "--cache-dir", str(tmp_path))
        assert code == 2 and out == "", text
        assert err.startswith("corz: census cache file") and str(path) in err, text


@pytest.mark.parametrize("source, target", [(20, 21), (10, 20)])
def test_census_refuses_a_cache_file_of_another_cell(tmp_path, capsys, source, target):
    # a file copied over another cell's keeps a valid checksum; read as that
    # cell's, 20 -> 21 printed z_exact 4338 and z_star 100 for n = 21, and
    # 10 -> 20 ended in an uncaught AssertionError.  Both exit 2 naming it
    argv = ("census", "--ell", "5", "--cap-exact", "21", "--cache-dir", str(tmp_path))
    for n in (source, target):
        code, out, err = run_cli(capsys, *argv, "--n-min", str(n), "--n-max", str(n))
        assert code == 0, err
    path = tmp_path / f"census-5-{target}.json"
    path.write_bytes((tmp_path / f"census-5-{source}.json").read_bytes())
    code, out, err = run_cli(capsys, *argv, "--n-min", str(target), "--n-max", str(target))
    assert code == 2 and out == ""
    assert err == f"corz: census cache file holds another cell than n={target}, ell=5: {path}\n"


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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


def test_census_composite_modulus_has_no_star_closed_form(capsys):
    # Theorem 2 is for primes: at (108, 4), past n_4 = 105, c^2 = 256 would be wrong
    argv = ("census", "--ell", "4", "--n-min", "108", "--n-max", "108")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[1] == "108,4,483502844,46923664,16,6985266880,,,,,"
    code, out, err = run_cli(capsys, *argv, "--cap-star", "120")
    assert code == 0 and out.splitlines()[1] == "108,4,483502844,46923664,16,6985266880,,240,,,"


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
        capsys, "asymptotics", "--ell", "7", "--n-min", "100", "--n-max", "300",
        "--step", "100",
    )
    assert code == 0
    lines = out.splitlines()
    assert [line.split() for line in lines] == [
        ["n", "p_n", "p_ell_n", "c_ell_n", "core_ratio", "lower_ratio"],
        ["100", "190569292", "76548423", "1440", "1.0000000000", "0.5983171150"],
        ["200", "3972999029388", "849096202659", "6375", "1.0000000000", "0.7862833098"],
        ["300", "9253082936723602", "1186721644858540", "14354", "1.0072098939",
         "0.8780337274"],
    ]
    # right-aligned columns
    assert len({len(line) for line in lines}) == 1


def test_asymptotics_fills_windows_at_every_step(capsys, monkeypatch):
    # every --step takes p_ell and sigma_ell from one window each over the n
    # it prints; the rows the steps share agree
    fills = []
    for name in ("_regular_window", "_twisted_divisor_sums"):
        def logged(*args, fn=getattr(census, name), name=name):
            fills.append((name, *args))
            return fn(*args)

        monkeypatch.setattr(census, name, logged)
    argv = ("asymptotics", "--ell", "11", "--n-min", "3", "--n-max", "300", "--format", "csv")
    outs = {}
    for step in (1, 2, 3, 7):
        code, outs[step], err = run_cli(capsys, *argv, "--step", str(step))
        assert code == 0, err
    # sigma_11 over m = n + delta_11 = n + 5, with the exponent (11 - 3) / 2
    assert fills == [fill for step in (1, 2, 3, 7)
                     for fill in (("_twisted_divisor_sums", 11, 4, 8, 305, step),
                                  ("_regular_window", 11, 3, 300, step))]
    dense = outs[1].splitlines()
    assert len(dense) == 299
    for step in (2, 3, 7):
        assert outs[step].splitlines() == dense[:1] + dense[1::step]


def test_asymptotics_csv(capsys):
    argv = ("asymptotics", "--n-min", "50", "--n-max", "400", "--step", "350",
            "--format", "csv")
    header = "n,p_n,p_ell_n,c_ell_n,core_ratio,lower_ratio"
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    # the default modulus is 5, where c_5(n) is the main term exactly
    assert out.splitlines() == [
        header,
        "50,204226,79888,32,1.0000000000,0.6088255168",
        "400,6727090051741041926,128113373974013629,402,1.0000000000,0.9809556029",
    ]
    code, out, err = run_cli(capsys, *argv, "--ell", "11")
    assert code == 0
    assert out.splitlines() == [
        header,
        "50,204226,169323,7238,1.0068938534,0.1720819884",
        "400,6727090051741041926,1872895522648327325,21399135,0.9999930067,0.7215840051",
    ]


def test_readme_asymptotics_example_is_its_real_output(capsys):
    # every line the README shows under `$ corz asymptotics ...`, up to the
    # next command or the end of the block
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^\$ corz asymptotics (.*?)\n(.*?)^(?:\$|```)", text, re.M | re.S)
    shown = block.group(2).rstrip("\n").splitlines()
    code, out, err = run_cli(capsys, "asymptotics", *block.group(1).split())
    assert code == 0, err
    assert out.splitlines() == shown
    assert len(shown) > 1


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


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)


def test_cli_imports_neither_mpmath_nor_the_process_pool():
    proc = run_python(
        "import sys, corz.cli\n"
        "print(sorted(m for m in ('mpmath', 'concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_imports_neither_the_suites_nor_dataclasses():
    # count, census and asymptotics need neither; the suites' three names in
    # corz still resolve, and so does every name of a star import
    proc = run_python(
        "import sys, corz.cli\n"
        "print(sorted(m for m in ('corz.suites', 'dataclasses') if m in sys.modules))\n"
        "names = {}\n"
        "exec('from corz import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(corz.__all__), len(corz.__all__))\n"
        "from corz import verify, Report, available_suites\n"
        "import corz.suites as s\n"
        "print(verify is s.verify, Report is s.Report, available_suites is s.available_suites)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True 44", "True True True"]
    # verify imports the suites itself, and still names an unknown one
    proc = subprocess.run([sys.executable, "-m", "corz.cli", "verify", "nosuch"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (
        "corz: unknown suite 'nosuch'; available: abacus, closed-forms, constants,"
        " lemma1, orthogonality, theorem2\n"
    )


def test_main_reuses_one_parser_and_prints_what_a_fresh_process_prints(capsys):
    def untimed(text):
        return re.sub(r"\d+\.\d\ds\b", "<s>", text)

    commands = [
        ["census"],
        ["count", "inv-alpha", "7"],
        ["census", "--ell", "7,3", "--n-min", "9", "--n-max", "11", "--z-all", "--format", "json"],
        ["verify", "constants"],
        ["census"],
    ]
    for argv in commands:
        fresh = subprocess.run([sys.executable, "-m", "corz.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        code, out, err = run_cli(capsys, *argv)
        assert code == fresh.returncode == 0, (argv, err, fresh.stderr)
        assert untimed(out) == untimed(fresh.stdout), argv
    assert cli._build_parser() is cli._build_parser()


def test_inv_alpha_and_constants_suite_run_without_mpmath():
    # a None entry makes any import of mpmath raise ImportError
    proc = run_python(
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "from corz.cli import main\n"
        "sys.exit(main(['count', 'inv-alpha', '97']) or main(['verify', 'constants']))"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == (
        "28738426215735700206612747962060062876615950867121179884879478439659"
        "82325182444922611891396374889675099441520471783906"
    )
    assert lines[-1].startswith("suite constants passed")


@pytest.mark.parametrize("blocked", [True, False], ids=["imports-blocked", "plain"])
def test_count_census_and_asymptotics_run_without_openssl_or_fractions(tmp_path, blocked):
    # the cache checksum comes from the interpreter's builtin sha256 and
    # inv_alpha's exact route is in integers, so none of these commands needs
    # hashlib, fractions or what they load; a None entry makes an import raise
    star = ["census", "--ell", "5,7", "--n-min", "26", "--n-max", "27"]
    calls = [
        [*star, "--cache-dir", str(tmp_path / "cache")],  # a miss
        [*star, "--cache-dir", str(tmp_path / "cache")],  # a hit
        ["count", "inv-alpha", "97"],
        ["asymptotics", "--ell", "13"],
        ["census", "--z-all", "--format", "json"],
    ]
    block = "sys.modules['hashlib'] = sys.modules['fractions'] = None\n"
    proc = run_python(
        "import sys\n"
        + (block if blocked else "")
        + "import contextlib, io, json\n"
        "from corz.cli import main\n"
        "runs = []\n"
        f"for argv in {calls!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        rc = main(argv)\n"
        "    runs.append((rc, buf.getvalue()))\n"
        "heavy = ('hashlib', '_hashlib', 'fractions', 'decimal')\n"
        "print(json.dumps([runs, [m for m in heavy if sys.modules.get(m) is not None]]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    runs, loaded = json.loads(proc.stdout)
    assert loaded == []
    assert [rc for rc, _ in runs] == [0] * len(calls)
    want = "".join((REFS / "census-star-window.csv").read_text().splitlines(True)[:5])
    assert runs[0][1] == runs[1][1] == want
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        f"census-{ell}-{n}.json" for ell in (5, 7) for n in (26, 27)
    ]
    assert runs[2][1].startswith("28738426215735700206612747962060062876615950867121179884879478439659")
