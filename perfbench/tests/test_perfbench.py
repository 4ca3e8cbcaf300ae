"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import make_refs  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CensusGrid,
    check,
    load_references,
    pairs_evaluated,
    plan,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, **changes):
    """A real workload shrunk to a corner of its reference grid."""
    return dataclasses.replace(WORKLOADS[name], **changes)


TINY_STAR = tiny("star-window", grid=CensusGrid((5, 7), 28, 28))
TINY_SERIES = tiny(
    "series-wide",
    grid=CensusGrid((5, 7), 0, 30, WORKLOADS["series-wide"].grid.flags),
    fill=("census", "--ell", "5,7", "--n-max", "4", "--cap-exact", "12", "--cap-star", "26"),
)


def measure(work, trace: bool, refs=None, seed: int = 0):
    bench = run.Bench(ROOT, work, seed, time.monotonic() + 120, refs)
    try:
        bench.prepare()
        return run.measure(bench, 0, trace)
    finally:
        run.shutil.rmtree(bench.dir, ignore_errors=True)


def test_benchmark_json_names_match_the_runner():
    # verify-all is runnable but not gated: one run of it takes 30 s
    assert [w["name"] for w in SPEC["workloads"]] == [n for n in WORKLOADS if n != "verify-all"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_present_with_its_unit(trace):
    line, reps = measure(TINY_SERIES, trace)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["correct"] is True
    assert line["attempted"] == sum(r["attempted"] for r in reps) >= 1
    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["census.records"] == 62
        assert m["census.cache_hits"] == 10  # the fill covers n <= 4
        assert m["numtheory.inv_alpha_calls"] >= 23
        assert m["numtheory.inv_alpha_failed"] == line["failed"] // len(reps)


def test_seed_defect_shows_as_failed_inv_alpha_ops():
    line, reps = measure(TINY_SERIES, False)
    failed = {p for r in reps for p in r["problems"]}
    assert failed == {f"inv-alpha {ell} raised (exit 2)"
                      for ell in (47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)}


def test_tampered_reference_makes_error_rate_positive():
    refs = load_references()
    bad = copy.deepcopy(refs)
    row = bad.census_rows["star-window"][(28, 7)]
    bad.census_rows["star-window"][(28, 7)] = row[:-1] + str((int(row[-1] or 0) + 1) % 10)
    line, _ = measure(TINY_STAR, False, bad)
    assert line["failed"] >= 1
    assert line["metrics"]["ok_ratio"]["value"] < 1.0
    assert line["correct"] is False
    good, _ = measure(TINY_STAR, False, refs)
    assert good["failed"] == 0 and good["metrics"]["ok_ratio"]["value"] == 1.0


def test_malformed_census_output_is_wrong_not_a_crash():
    refs = load_references()
    work = WORKLOADS["star-window"]
    call = plan(work, 0)[0]
    out = refs.census_header["star-window"] + "\nnot,a,census,line\n"
    res = check(work, call, 0, out, refs)
    assert res.attempted == len(call.cells) == res.failed
    assert res.wrong == 1
    assert pairs_evaluated(call, out, set()) == 0


def _child(tmp_path: Path, trace: bool) -> dict:
    spec = tmp_path / "spec.json"
    out = tmp_path / "result.json"
    spec.write_text(json.dumps({"calls": [["count", "inv-alpha", "5"]], "trace": trace}))
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec), str(out)],
                   cwd=ROOT, env={**run.os.environ, "PYTHONPATH": str(ROOT / "src")},
                   check=True, timeout=120)
    return json.loads(out.read_text())


def test_untraced_run_sees_the_original_functions(tmp_path):
    assert _child(tmp_path, False)["wrapped"] == []
    traced = _child(tmp_path, True)["wrapped"]
    assert "corz.census.build_record" in traced
    assert "corz.cli.main" in traced
    assert "corz.cli._COUNT_QUANTITIES['inv-alpha']" in traced


def test_uninstall_restores_every_name():
    from corz import census, cli, numtheory
    from layers import Tracer, wrapped_names

    before = {m.__name__: dict(vars(m)) for m in (census, cli, numtheory)}
    table = dict(cli._COUNT_QUANTITIES)
    tracer = Tracer()
    tracer.install()
    assert wrapped_names()
    tracer.uninstall()
    assert wrapped_names() == []
    assert cli._COUNT_QUANTITIES == table
    for m in (census, cli, numtheory):
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_seed_covers_the_reference_grid_once(name):
    work = WORKLOADS[name]
    refs = load_references()
    for seed in range(20):
        calls = plan(work, seed)
        cells = [c for call in calls for c in call.cells]
        if work.grid is not None:
            assert sorted(cells) == sorted(refs.census_rows[name])
        assert sorted(c.suite for c in calls if c.kind == "verify") == (
            sorted(refs.verify) if work.verify else [])
    assert plan(work, 7) == plan(work, 7)


def test_inv_alpha_references_are_independent_of_corz():
    refs = load_references()
    for ell in (5, 13, 43, 47, 97):
        assert refs.inv_alpha[ell] == make_refs.inv_alpha_reference(ell)


def test_refuses_to_run_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "star-window", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
