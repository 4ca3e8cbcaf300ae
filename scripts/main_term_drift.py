#!/usr/bin/env python3
"""How fast does the twisted-divisor main term track the core count?

For each modulus the script tabulates the exact ratio
count_cores(n, ell) / core_main_term(n, ell) on a grid and then reports the
mean absolute deviation from 1 per block, which shrinks as n grows.  At
ell = 5 the ratio is identically 1, so the interesting rows start at 7.
"""

import argparse

from corz.abacus import count_cores
from corz.numtheory import core_main_term

# grid rows printed per modulus before the block summary
SHOW_ROWS = 6


def block_deviations(ell: int, n_max: int, blocks: int) -> list[float]:
    width = n_max // blocks
    out = []
    for b in range(blocks):
        lo = max(1, b * width)
        hi = (b + 1) * width
        devs = []
        for n in range(lo, hi):
            main = core_main_term(n, ell)
            if main != 0:
                devs.append(abs(float(count_cores(n, ell) / main) - 1))
        out.append(sum(devs) / len(devs))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", default="5,7,11", help="comma-separated primes >= 5")
    ap.add_argument("--n-max", type=int, default=2000)
    ap.add_argument("--blocks", type=int, default=4)
    args = ap.parse_args()

    for ell in (int(t) for t in args.ell.split(",")):
        print(f"ell = {ell}")
        step = max(1, args.n_max // SHOW_ROWS)
        for n in range(step, args.n_max + 1, step):
            main = core_main_term(n, ell)
            exact = count_cores(n, ell)
            ratio = float(exact / main) if main else float("nan")
            print(f"  n = {n:6d}  c = {exact:16d}  main = {float(main):18.2f}  ratio = {ratio:.6f}")
        devs = block_deviations(ell, args.n_max, args.blocks)
        rendered = ", ".join(f"{d:.2e}" for d in devs)
        print(f"  mean |ratio - 1| per block: {rendered}")
        print()


if __name__ == "__main__":
    main()
