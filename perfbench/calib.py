"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared host, the speed of a CPU-bound Python process can change by up
to 1.8x for minutes at a time, and no statistic over one invocation's runs
removes that. Each run therefore times this kernel just before and just
after the workload, in the same process. The end-to-end times are divided by
the kernel's time and multiplied by `REFERENCE_S`, which gives seconds at
the speed the machine has when the kernel takes `REFERENCE_S`.

The kernel does not use corz, so a change to corz cannot change it. It mixes
the kinds of work that corz spends its time on: a reverse-lex partition
walk, border-strip removal on beta-sets with a memo, and exact big-integer
power-series updates.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.1


def _partitions(n: int):
    a = [n]
    yield tuple(a)
    while True:
        i = len(a) - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        v = a[i] - 1
        rem = len(a) - i
        a[i] = v
        del a[i + 1:]
        while rem > 0:
            c = v if v < rem else rem
            a.append(c)
            rem -= c
        yield tuple(a)


def _character(beta: tuple[int, ...], parts: tuple[int, ...], idx: int, memo: dict) -> int:
    if idx == len(parts):
        return 1
    key = (beta, idx)
    got = memo.get(key)
    if got is not None:
        return got
    k = parts[idx]
    present = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        if b < k or (b - k) in present:
            continue
        rest = tuple(sorted(beta[:pos] + (b - k,) + beta[pos + 1:]))
        height = sum(1 for x in beta if b - k < x < b)
        term = _character(rest, parts, idx + 1, memo)
        total += -term if height % 2 else term
    memo[key] = total
    return total


def kernel() -> int:
    """The fixed work: characters of S_15 on a grid of pairs, then the
    partition-count series to q^700."""
    parts = list(_partitions(15))
    acc = 0
    for mu in parts[::3]:
        memo: dict = {}
        for lam in parts[::2]:
            s = len(lam)
            beta = tuple(sorted(p + s - 1 - i for i, p in enumerate(lam)))
            acc += _character(beta, mu, 0, memo)
    coeffs = [1] + [0] * 700
    for k in range(1, 701):
        for m in range(k, 701):
            coeffs[m] += coeffs[m - k]
    return acc + coeffs[700]


def timed() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0
