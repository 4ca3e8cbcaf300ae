#!/usr/bin/env python3
"""Where does the core-by-core block of the character table go all-zero?

Scans n upward and compares the exhaustive count of vanishing core pairs
with the square of the core count.  For prime ell the two agree above the
abacus bound; the script prints every n where they still differ and the
largest such n found, which for prime ell stays below the bound.
"""

import argparse

from corz.abacus import count_cores, n_ell
from corz.census import z_star_exact


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ell", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=60)
    args = ap.parse_args()

    bound = n_ell(args.ell)
    print(f"ell = {args.ell}, abacus bound = {bound}")
    print(f"{'n':>4} {'cores':>6} {'pairs':>8} {'zeros':>8}  note")
    last_survivor = None
    for n in range(args.n_max + 1):
        cores = count_cores(n, args.ell)
        zeros = z_star_exact(n, args.ell, cap=args.n_max)
        pairs = cores * cores
        note = ""
        if zeros < pairs:
            note = f"{pairs - zeros} surviving entries"
            last_survivor = n
        print(f"{n:>4} {cores:>6} {pairs:>8} {zeros:>8}  {note}")
    if last_survivor is None:
        print("no nonvanishing core pair in range")
    else:
        print(f"largest n with a nonvanishing core pair: {last_survivor} "
              f"(bound predicts none above {bound})")


if __name__ == "__main__":
    main()
