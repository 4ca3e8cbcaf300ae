"""Regenerate the stored references in refs/.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

Census CSVs and verify verdicts come from the code under `src/` and are the
regression reference: regenerate them only from a commit whose output is
known good.  The inv_alpha values do not come from corz at all: they are
computed here with mpmath's Dirichlet L-series, so a defect in corz's own
inv_alpha shows as a failed op instead of being copied into the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import INV_ALPHA_PRIMES, REFS, WORKLOADS, census_ref_path, strip_verify  # noqa: E402


def legendre(a: int, ell: int) -> int:
    """(a / ell) by Euler's criterion."""
    r = pow(a, (ell - 1) // 2, ell)
    return 0 if r == 0 else (1 if r == 1 else -1)


def inv_alpha_reference(ell: int) -> int:
    """((ell-3)/2)! ell^(ell/2) L(chi, (ell-1)/2) / (2 pi)^((ell-1)/2), rounded,
    at a working precision of its digit count plus 25."""
    k = (ell - 1) // 2
    chi = [legendre(a, ell) for a in range(ell)]

    def value(dps: int):
        with mpmath.workdps(dps):
            lval = mpmath.dirichlet(k, chi)
            return (mpmath.factorial(k - 1) * mpmath.power(ell, mpmath.mpf(ell) / 2)
                    * lval / (2 * mpmath.pi) ** k)

    digits = int(mpmath.floor(mpmath.log10(value(30)))) + 1
    dps = max(digits, 1) + 25
    with mpmath.workdps(dps):
        v = value(dps)
        n = int(mpmath.nint(v))
        if abs(v - n) > mpmath.mpf(10) ** -10:
            raise ArithmeticError(f"inv_alpha({ell}) is not near an integer: {v}")
    return n


def _cli(argv: list[str]) -> str:
    from corz.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"corz {' '.join(argv)} exited {rc}")
    return out.getvalue()


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    REFS.mkdir(exist_ok=True)
    for work in WORKLOADS.values():
        if work.grid is not None:
            census_ref_path(work).write_text(_cli(work.grid.full_argv()), encoding="utf-8")
    verdicts = strip_verify(json.loads(_cli(["verify", "all", "--format", "json"])))
    (REFS / "verify.json").write_text(json.dumps(verdicts, indent=1) + "\n", encoding="utf-8")
    inv = {str(ell): str(inv_alpha_reference(ell)) for ell in INV_ALPHA_PRIMES}
    (REFS / "inv_alpha.json").write_text(json.dumps(inv, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
