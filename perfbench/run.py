"""The corz benchmark: one workload, measured end to end or traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload is a fresh interpreter (`child.py`) that imports
`corz.cli` and calls `corz.cli.main(argv)` for each command line of the
seed's plan, in one process with `--jobs 1`.  Runs repeat until `--seconds`
have passed (at least one).  Every op is checked against the references in
`refs/`.  Times are scaled by the calibration kernel of `calib.py`, timed in
the same process, to seconds at a fixed machine speed; the metrics are
medians over runs.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A fuller result file,
with the raw samples and the machine, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calib import REFERENCE_S  # noqa: E402
from workloads import (  # noqa: E402
    VERIFY_SUITES,
    WORKLOADS,
    Call,
    Outcome,
    References,
    Workload,
    check,
    load_references,
    pairs_evaluated,
    plan,
)

TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "partitions.walk_yielded": "count",
    "partitions.walk_s": "s",
    "partitions.hook_calls": "count",
    "partitions.hook_s": "s",
    "partitions.series_s": "s",
    "abacus.cores_yielded": "count",
    "abacus.enum_s": "s",
    "abacus.series_s": "s",
    "characters.columns": "count",
    "characters.mn_calls": "count",
    "characters.mn_s": "s",
    "characters.mn_zero_ratio": "ratio",
    "characters.prefilter_ratio": "ratio",
    "numtheory.inv_alpha_calls": "count",
    "numtheory.inv_alpha_s": "s",
    "numtheory.inv_alpha_failed": "count",
    "numtheory.main_term_s": "s",
    "census.records": "count",
    "census.self_s": "s",
    "census.cache_hits": "count",
    "census.cache_writes": "count",
    "census.write_s": "s",
    **{f"census.verify_s.{s}": "s" for s in VERIFY_SUITES},
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Bench:
    def __init__(self, root: Path, work: Workload, seed: int, deadline: float,
                 refs: References | None = None):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.refs = refs or load_references()
        self.calls = plan(work, seed)
        self.dir = BENCH / "out" / "work" / f"{work.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("CORZ_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.template: Path | None = None
        self.fill: dict | None = None
        self.reps = 0

    def _spawn(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the run could start")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run did not finish within the time limit: {args}") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return started, proc

    def _child(self, argvs: list[list[str]], trace: bool, tag: str) -> tuple[float, dict]:
        spec = self.dir / f"{tag}.spec.json"
        result = self.dir / f"{tag}.result.json"
        spec.write_text(json.dumps({"calls": argvs, "trace": trace}), encoding="utf-8")
        started, _ = self._spawn([str(spec), str(result)])
        doc = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return doc["imported_at"] - started, doc

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.work.cache == "filled":
            self.template = self.dir / "filled-cache"
            t0 = time.monotonic()
            _, doc = self._child(
                [[*self.work.fill, "--cache-dir", str(self.template)]], False, "fill")
            self.fill = {"seconds": time.monotonic() - t0, "rc": doc["calls"][0]["rc"],
                         "files": len(list(self.template.glob("census-*.json")))}

    def rep(self, trace: bool) -> dict:
        """One run of the workload in a fresh interpreter, checked."""
        self.reps += 1
        tag = f"rep{self.reps}"
        cache = self.dir / f"{tag}-cache"
        if self.template is not None:
            shutil.copytree(self.template, cache)
        before = _cache_listing(cache)
        argvs = [c.argv + (["--cache-dir", str(cache)] if self.work.cache and c.kind == "census"
                           else []) for c in self.calls]
        setup_s, doc = self._child(argvs, trace, tag)
        after = _cache_listing(cache)
        shutil.rmtree(cache, ignore_errors=True)
        if not trace and doc["wrapped"]:
            raise BenchError(f"untraced run saw wrapped functions: {doc['wrapped']}")

        outcome = Outcome()
        pairs = 0
        hits = set(before)
        for call, res in zip(self.calls, doc["calls"]):
            outcome.add(check(self.work, call, res["rc"], res["stdout"], self.refs))
            pairs += pairs_evaluated(call, res["stdout"], hits)
        calib_s = sum(w for w, _ in doc["calib"]) / len(doc["calib"])
        wall_raw = sum(c["seconds"] for c in doc["calls"])
        cpu_raw = doc["cpu_s"] - sum(c for _, c in doc["calib"])
        scale = REFERENCE_S / calib_s
        rep = {
            "trace": trace,
            "calib_s": calib_s,
            "scale": scale,
            "setup_raw_s": setup_s,
            "wall_raw_s": wall_raw,
            "cpu_raw_s": cpu_raw,
            "setup_s": setup_s * scale,
            "wall_s": wall_raw * scale,
            "cpu_s": cpu_raw * scale,
            "peak_rss_mib": doc["maxrss_kib"] / 1024,
            "import_s": doc["import_s"],
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "wrong": outcome.wrong,
            "problems": outcome.problems,
            "cache_hits": sum(1 for call in self.calls for c in call.cells if c in hits),
            "cache_writes": sum(1 for k, v in after.items() if before.get(k) != v),
            "pairs": pairs,
            "verify_s": _verify_seconds(self.calls, doc["calls"]),
        }
        if trace:
            rep["trace_summary"] = doc["trace"]
        return rep


def _cache_listing(cache: Path) -> dict[tuple[int, int], tuple[int, int]]:
    # census-<ell>-<n>.json -> (size, mtime_ns)
    out = {}
    if cache.is_dir():
        for path in cache.glob("census-*-*.json"):
            _, ell, n = path.stem.split("-")
            st = path.stat()
            out[(int(n), int(ell))] = (st.st_size, st.st_mtime_ns)
    return out


def _verify_seconds(calls: list[Call], results: list[dict]) -> dict[str, float]:
    out = dict.fromkeys(VERIFY_SUITES, 0.0)
    for call, res in zip(calls, results):
        if call.kind != "verify":
            continue
        try:
            for report in json.loads(res["stdout"]):
                out[report["suite"]] = float(report["seconds"])
        except (ValueError, KeyError, TypeError):
            pass
    return out


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run; seconds are scaled like wall_s."""
    g = rep["trace_summary"]["groups"]

    def get(group: str, key: str):
        return g.get(group, {}).get(key, 0)

    mn_calls = get("characters.mn.value", "calls")
    out = {
        "partitions.walk_yielded": get("partitions.walk", "items"),
        "partitions.walk_s": get("partitions.walk", "self"),
        "partitions.hook_calls": get("partitions.hook", "calls"),
        "partitions.hook_s": get("partitions.hook", "self"),
        "partitions.series_s": get("partitions.series", "self"),
        "abacus.cores_yielded": get("abacus.enum", "items"),
        "abacus.enum_s": get("abacus.enum", "self"),
        "abacus.series_s": get("abacus.series", "self"),
        "characters.columns": get("characters.mn", "calls"),
        "characters.mn_calls": mn_calls,
        "characters.mn_s": get("characters.mn", "self") + get("characters.mn.value", "self"),
        "characters.mn_zero_ratio": (get("characters.mn.value", "zeros") / mn_calls
                                     if mn_calls else 0.0),
        "characters.prefilter_ratio": 1 - mn_calls / rep["pairs"] if rep["pairs"] else 0.0,
        "numtheory.inv_alpha_calls": get("numtheory.inv_alpha", "calls"),
        "numtheory.inv_alpha_s": get("numtheory.inv_alpha", "self"),
        "numtheory.inv_alpha_failed": get("numtheory.inv_alpha", "failed"),
        "numtheory.main_term_s": get("numtheory.main_term", "self"),
        "census.records": get("census.record", "calls"),
        "census.self_s": get("census.self", "self") + get("census.record", "self"),
        "census.cache_hits": rep["cache_hits"],
        "census.cache_writes": rep["cache_writes"],
        "census.write_s": get("census.write", "self"),
        **{f"census.verify_s.{s}": v for s, v in rep["verify_s"].items()},
        "cli.import_s": rep["import_s"],
        "cli.self_s": get("cli.self", "self"),
    }
    for key, unit in PER_LAYER.items():
        if unit == "s" and key in out:
            out[key] *= rep["scale"]
    return out


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Run the workload for `seconds`: (final line, runs).

    Untraced: runs until `seconds` have passed.  Traced: untraced runs for
    the first half, traced runs for the second, at least one of each.
    """
    start = time.monotonic()
    reps: list[dict] = []
    phases = [(False, seconds / 2), (True, seconds)] if trace else [(False, seconds)]
    for traced, until in phases:
        reps.append(bench.rep(traced))
        while time.monotonic() - start < until:
            reps.append(bench.rep(traced))
    plain = [r for r in reps if not r["trace"]]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    med = statistics.median
    if trace:
        traced = [r for r in reps if r["trace"]]
        per_rep = [layer_metrics(r) for r in traced]
        values = {k: med(m[k] for m in per_rep) for k in per_rep[0]}
        values["trace.overhead_ratio"] = (med(r["wall_s"] for r in traced)
                                          / med(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        values = {
            "wall_s": med(r["wall_s"] for r in plain),
            "cpu_s": med(r["cpu_s"] for r in plain),
            "setup_s": med(r["setup_s"] for r in reps),
            "peak_rss_mib": med(r["peak_rss_mib"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    line = {
        "correct": all(r["wrong"] == 0 for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return line, reps


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "corz" / "cli.py").is_file():
        print(f"perfbench: no corz source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    bench = Bench(root, WORKLOADS[args.workload], args.seed, started + TIME_LIMIT_S)
    try:
        bench.prepare()
        line, reps = measure(bench, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "fill": bench.fill,  # series-wide preparation; in no metric
        "plan": [c.argv for c in bench.calls],
        "runs": len(reps),
        "error_rate": line["failed"] / line["attempted"],
        "samples": [{k: v for k, v in r.items() if k != "trace_summary"} for r in reps],
        **line,
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if args.trace:
        traces = [r["trace_summary"] for r in reps if r["trace"]]
        (out_dir / f"trace-{name}.json").write_text(json.dumps(traces), encoding="utf-8")
    for problem in sorted({p for r in reps for p in r["problems"]})[:50]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
