"""One run of one workload in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

The import of `corz.cli` comes first, so the parent can take set-up time as
the span from spawning this process to the moment recorded right after it.
Each command line of the spec goes through `corz.cli.main(argv)` with stdout
and stderr captured; the result file holds exit codes, captured output,
seconds inside `main`, the process's CPU time and peak RSS, and the
calibration kernel's (wall, CPU) seconds just before and after the calls.
"""

import time

_t0 = time.perf_counter()
import corz.cli  # noqa: E402

IMPORTED = time.monotonic()
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run(spec: dict) -> dict:
    from calib import timed

    calib = [timed()]
    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = corz.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception:  # an op that raises is a failed op, not a bench error
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - t0
        calls.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "seconds": seconds})
    calib.append(timed())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    from layers import wrapped_names

    result = {
        "imported_at": IMPORTED,
        "import_s": IMPORT_S,
        "calls": calls,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "calib": calib,
        "maxrss_kib": usage.ru_maxrss,
        "wrapped": wrapped_names(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.uninstall()
    return result


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
