"""Integer partitions: hooks, cores, regularity, and exact counting series.

Everything that counts is exact: p(n), p_ell(n) and c_ell(n) are Python
integers.  p(n) and c_ell(n) come from tables grown by one routine of the
pentagonal recurrence, one table for p and one per modulus for c_ell; the
tables that grow together, p among them, share passes of it over packed
ints, one lane per table.  Each lane is as wide as a proven bound on its
values, with one bit of margin:

- bits(p(N)) <= ceil(3.701 sqrt N), from p(N) < exp(pi sqrt(2N/3))
  (Apostol, Thm 14.5) and pi sqrt(2/3) / ln 2 < 3.701;
- c_ell(N) <= (2 floor(r) + 1)^(ell - 1), r = (|b| + sqrt(|b|^2 + 2 ell N))
  / ell, |b|^2 = sum_{i < ell} i^2: the ell-cores of N are the x in Z^ell
  with sum x = 0 and (ell/2)|x|^2 + b.x = N (Garvan-Kim-Stanton), so
  |x| <= r by Cauchy-Schwarz, and x is fixed by its first ell - 1
  coordinates.

_core_tables gives both proofs in full.  p_ell(n) is a pentagonal
convolution of the p(n) table.  A sweep forms it for a whole window
n = lo, lo + step, ... <= hi at once: the terms of each pentagonal number
are one strided slice of p, added or subtracted in a C-level pass, and each
value of the window goes to the row that reads it.  count_p_regular reads
one n off the p table as the plain convolution.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate
from math import isqrt
from operator import add, itemgetter, sub
from typing import Any


class Partition:
    """A partition of a nonnegative integer: weakly decreasing positive parts.

    Parts may be given in any order; zeros are dropped.  Instances are
    immutable by convention (``parts`` is a tuple) and hashable.
    """

    __slots__ = ("parts", "n")

    parts: tuple[int, ...]
    n: int

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = list(parts)
        for p in cleaned:
            # bool is an int subclass, but True is no part
            if type(p) is not int or p < 0:
                raise ValueError("partition parts must be nonnegative integers")
        cleaned.sort(reverse=True)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self.parts = tuple(cleaned)
        self.n = sum(cleaned)

    @classmethod
    def _from_desc(cls, parts: tuple[int, ...]) -> "Partition":
        # fast path for internal callers that already hold a clean descending tuple
        obj = object.__new__(cls)
        obj.parts = parts
        obj.n = sum(parts)
        return obj

    @classmethod
    def of(cls, lam: "PartitionLike") -> "Partition":
        return lam if isinstance(lam, Partition) else cls(lam)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


PartitionLike = Partition | Iterable[int]


def _require_int(x: object, name: str, least: int | None = 0) -> None:
    # every size and modulus is an int of at least least, and every other
    # integer argument an int (least None): a float or a bool (an int
    # subclass) would walk, count or index as a number
    if type(x) is not int or least is not None and x < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        if type(x) is int:
            raise ValueError(f"{name} must be {bound}")
        kind = {None: "an integer", 0: "a nonnegative integer"}.get(least, f"an integer {bound}")
        raise ValueError(f"{name} must be {kind}, got {x!r}")


# ---------------------------------------------------------------------------
# beta-sets as bitmasks: bit b is set when b is a beta number (a bead), one of
# the first-column hook lengths lam_i - i + s of a partition with s parts.
# Beads at 0, ..., t-1 under the others shifted up by t give the same
# partition; a mask with bit 0 clear is canonical, as beta_mask returns.


def beta_mask(parts: Sequence[int]) -> int:
    """Beta-set of a descending part sequence, as a bitmask."""
    s = len(parts)
    mask = 0
    for i, p in enumerate(parts):
        mask |= 1 << (p + s - 1 - i)
    return mask


def canonical_mask(mask: int) -> int:
    """The same partition with the run of beads at 0, 1, ... dropped."""
    return mask >> (((mask + 1) & ~mask).bit_length() - 1)


def conjugate_mask(mask: int) -> int:
    """Canonical beta-set of the conjugate partition.

    Within the bead range 0..L-1, L = mask.bit_length(), the empty positions
    reversed are the beta-set of the conjugate (Macdonald, Symmetric
    Functions, I.1.7).  The top bead becomes the empty bit 0, so the result
    is canonical.
    """
    width = mask.bit_length()
    return int(format(~mask & ((1 << width) - 1), f"0{width}b")[::-1], 2)


def bead_positions(mask: int) -> Iterator[int]:
    """Bead positions of a beta-set mask, lowest first."""
    if mask < 0:
        raise ValueError(f"a beta-set mask is nonnegative, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_parts(mask: int) -> tuple[int, ...]:
    """Parts, largest first, of the partition whose beta-set is mask."""
    # a bead's part is its position less the number of beads below it
    return tuple(b - i for i, b in enumerate(bead_positions(mask)) if b > i)[::-1]


def strip_ends(mask: int, k: int) -> int:
    """Bit c is set when a bead at c + k can move down to the empty
    position c: one removable border strip, and one hook, of length k."""
    return (mask & ~(mask << k)) >> k


def hook_mask(mask: int) -> int:
    """Distinct hook lengths as a bitmask: bit k for a hook of length k."""
    hooks = 0
    for k in range(1, mask.bit_length()):
        if strip_ends(mask, k):
            hooks |= 1 << k
    return hooks


def is_core(lam: PartitionLike, ell: int) -> bool:
    """True iff no hook length of lam is divisible by ell."""
    _require_int(ell, "ell", 2)
    # a hook of length divisible by ell exists iff one of length ell does
    return not strip_ends(beta_mask(Partition.of(lam).parts), ell)


def is_regular(lam: PartitionLike, a: int) -> bool:
    """True iff no part of lam is divisible by a."""
    _require_int(a, "a", 2)
    return not any(p % a == 0 for p in Partition.of(lam).parts)


# ---------------------------------------------------------------------------
# exact counting series.  Every count is a coefficient of an eta-quotient in
# Euler's function E(q) = prod_{k>=1} (1 - q^k):
#     sum p(n) q^n = 1/E(q),   sum p_a(n) q^n = E(q^a)/E(q),
#     sum c_ell(n) q^n = E(q^ell)^ell / E(q).
# By the pentagonal number theorem E(q) = 1 + sum sign(g) q^g over the
# generalized pentagonal numbers g, so it has O(sqrt N) terms up to q^N.
# p(n) and c_ell(n) are tables grown in place by one recurrence, the
# coefficients of E(q) times the series.  It is linear, so the tables of p and
# several moduli grow in shared passes of it over packed ints, one lane per
# table; a pass of one lane is the table itself.  p_a(n) is a convolution
# with the p(n) table, over a window of n or at one n.  Every sum runs over
# one list of the pentagonal numbers.

# the generalized pentagonal numbers g = k(3k -+ 1)/2 for k = 1, 2, ...,
# ascending, split by the sign (-1)^k of q^g in E(q): (minus, plus)
_PENTAGONAL: tuple[list[int], list[int]] = ([], [])


def _pentagonal(upto: int) -> tuple[list[int], list[int]]:
    # (minus, plus), extended on demand to hold every g <= upto; they may
    # hold larger ones too, so callers cut them
    minus, plus = _PENTAGONAL
    k = (len(minus) + len(plus)) // 2 + 1
    while k * (3 * k - 1) // 2 <= upto:
        (minus if k % 2 else plus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    return minus, plus


def _pentagonal_cuts(
    lo: int, hi: int, form: Callable[[list[int]], Any] = list
) -> Iterator[tuple[int, Any, Any]]:
    # (m, form(minus), form(plus)) for m = lo .. hi, both lists cut to
    # 1 <= g <= m.  The lists are taken once, and a cut is formed again only
    # when m reaches its next entry.
    minus, plus = _pentagonal(hi)
    i, j = bisect_right(minus, lo), bisect_right(plus, lo)
    cut_minus, cut_plus = form(minus[:i]), form(plus[:j])
    for m in range(lo, hi + 1):
        if i < len(minus) and minus[i] == m:
            i += 1
            cut_minus = form(minus[:i])
        if j < len(plus) and plus[j] == m:
            j += 1
            cut_plus = form(plus[:j])
        yield m, cut_minus, cut_plus


def _reads(cut: list[int]) -> Callable[[list[int]], tuple[int, ...]]:
    # series[-g] for every g in cut, as a tuple, read in C for two or more
    if len(cut) > 1:
        return itemgetter(*[-g for g in cut])
    return lambda series: tuple([series[-g] for g in cut])


def _extend_quotient(series: list[int], upto: int, top: Callable[[int], int]) -> list[int]:
    # Grow series, the coefficients of F(q) = T(q)/E(q), in place through
    # q^upto; top(m) is the coefficient of q^m in T(q).  The coefficient of
    # q^m in E(q) F(q) = T(q) gives F_m = T_m - sum_g sign(g) F_{m-g}.  F_m is
    # appended at index m, so F_{m-g} is series[-g], and the reads of one cut
    # of the pentagonal lists serve every m up to the next cut.
    for m, read_minus, read_plus in _pentagonal_cuts(len(series), upto, _reads):
        series.append(top(m) + sum(read_minus(series)) - sum(read_plus(series)))
    return series


_P_CACHE: list[int] = [1]


def count_p(n: int) -> int:
    """Number of partitions of n, by the pentagonal-number recurrence.

    Read from a table grown in place through n: a call that must grow it
    runs _core_tables with no modulus, a pass of the one p lane, which is
    the table itself.
    """
    _require_int(n, "n")
    if n < len(_P_CACHE):
        return _P_CACHE[n]
    return _core_tables((), n)[0][n]


def _regular_window(a: int, lo: int, hi: int, step: int = 1) -> list[int]:
    # p_a(n) for n = lo, lo + step, ... <= hi as p(n) + sum sign(g) p(n - a g) over
    # the generalized pentagonal g <= n/a.  A g reaches the n >= a g of the window,
    # from index k = max(0, ceil((a g - lo) / step)), and adds or subtracts its
    # strided slice of p there in one map pass.
    hi -= (hi - lo) % step  # the last n of the window: p grows no further
    count_p(hi)
    p = _P_CACHE
    top = hi // a
    minus, plus = _pentagonal(top)
    window = p[lo : hi + 1 : step]
    for gs, op in ((plus[: bisect_right(plus, top)], add), (minus[: bisect_right(minus, top)], sub)):
        for g in gs:
            s = a * g
            k = max(0, -((lo - s) // step))
            window[k:] = map(op, window[k:], p[lo + k * step - s : hi + 1 - s : step])
    return window


def count_p_regular(n: int, a: int) -> int:
    """Number of partitions of n with no part divisible by a.

    Coefficient of q^n in E(q^a)/E(q): the pentagonal convolution
    p(n) + sum sign(g) p(n - a g) over generalized pentagonal g <= n/a,
    read off the p table.  A sweep over many n takes its values from one
    window of its own instead.
    """
    _require_int(n, "n")
    _require_int(a, "a", 2)
    count_p(n)
    p = _P_CACHE
    top = n // a
    minus, plus = _pentagonal(top)
    return (
        p[n]
        + sum([p[n - a * g] for g in plus[: bisect_right(plus, top)]])
        - sum([p[n - a * g] for g in minus[: bisect_right(minus, top)]])
    )


_EULER_POWERS: dict[int, list[int]] = {}


def _euler_power(ell: int, upto: int) -> list[int]:
    # Coefficients of E(q)^ell through at least q^upto, extended in place by
    # J. C. P. Miller's power recurrence over the sparse pentagonal terms:
    # m e_m = sum_g ((ell + 1) g - m) sign(g) e_{m-g}, an exact division.
    e = _EULER_POWERS.setdefault(ell, [1])
    if len(e) <= upto:
        for m, minus, plus in _pentagonal_cuts(len(e), upto):
            total = sum([((ell + 1) * g - m) * e[m - g] for g in plus]) - sum(
                [((ell + 1) * g - m) * e[m - g] for g in minus]
            )
            e.append(total // m)
    return e


_CORE_TABLES: dict[int, list[int]] = {}
# bits of packed lanes per pass of _core_tables: a wider pass makes fewer passes
# over larger ints and holds a larger packed list.  At 3072 bits an entry stays
# within CPython's 512-byte small-object allocator
_PASS_BITS = 3072


def _ceil_isqrt(x: int) -> int:
    return 1 + isqrt(x - 1) if x else 0


def _p_width(upto: int) -> int:
    # lane bits for p(m), m <= upto: one more than ceil(3.701 sqrt(upto)), which
    # bounds bits(p(upto)) for upto >= 1 (see _core_tables), and at least 2
    bits = _ceil_isqrt(-(-3701**2 * upto // 10**6))
    return max(bits, 1) + 1


def _core_width(ell: int, upto: int) -> int:
    # lane bits for c_ell(m), m <= upto: one more than bits((2 floor(r) + 1)^(ell-1)),
    # r = (|b| + sqrt(|b|^2 + 2 ell upto)) / ell and |b|^2 = sum_{i < ell} i^2, with
    # each square root rounded up; never wider than the p lane (see _core_tables)
    b2 = (ell - 1) * ell * (2 * ell - 1) // 6
    r = (_ceil_isqrt(b2) + _ceil_isqrt(b2 + 2 * ell * upto)) // ell
    return min(_p_width(upto), ((2 * r + 1) ** (ell - 1)).bit_length() + 1)


def _core_tables(ells: Sequence[int], upto: int) -> tuple[list[int], list[list[int]]]:
    """The p(n) table and the c_ell(n) table of each ell in ells, in that
    order, each grown in place through n = upto.

    Each table is F(q) = T(q)/E(q) for its own top T, so it obeys the
    recurrence of _extend_quotient: T = 1 for p, and the coefficients of
    E(q^ell)^ell for c_ell.  The recurrence is linear, so the tables that
    must grow share passes of it over packed ints, one lane per table, p
    first.  A lane of w bits from bit s holds its table's values shifted by
    s, and the packed top adds e_j << s at q^(ell j), with e_j the
    coefficient of q^j in E(q)^ell.  p's top has no term past q^0, and
    every table already holds q^0, so a p lane adds none.  Each packed entry
    is the sum of its lanes' values, each shifted into place; every value is
    at least 0 and below 2^(w - 1), so no lane reaches the next and a plain
    bit slice decodes each one exactly.  The widths, each with that one bit
    of margin, hold for every m <= upto, since p and c_ell do not decrease:

    - p: p(N) < exp(pi sqrt(2N/3)) for N >= 1 (Apostol, Introduction to
      Analytic Number Theory, Thm 14.5), and pi sqrt(2/3) / ln 2 < 3.701,
      so p(N) < 2^(3.701 sqrt N) and bits(p(N)) <= ceil(3.701 sqrt N),
      computed as the rounded-up square root of ceil(3.701^2 N).  A lane
      has at least 2 bits, for p(0) = 1.
    - c_ell: the ell-cores of N correspond to the x in Z^ell with
      sum x = 0 and (ell/2)|x|^2 + b.x = N, b = (0, 1, ..., ell - 1)
      (Garvan-Kim-Stanton, "Cranks and t-cores", 1990).  Cauchy-Schwarz
      gives (ell/2)|x|^2 <= N + |b||x|, so |x| <= r = (|b| + sqrt(|b|^2 +
      2 ell N)) / ell, and every coordinate lies in [-floor(r), floor(r)].
      The first ell - 1 coordinates fix x, so c_ell(N) <=
      (2 floor(r) + 1)^(ell - 1).  Both square roots are rounded up, which
      can only raise the bound.  As c_ell(N) <= p(N), a lane is never wider
      than the p lane.

    Lanes fill a pass in that order until the next would take it past
    _PASS_BITS bits; a pass holds at least one lane.  A pass starts at its
    shortest table and recomputes what the longer ones hold.  A pass of one
    lane at shift 0 is the table itself, extended in place with no packing.
    """
    for ell in ells:
        _require_int(ell, "ell", 2)
    tables = [_CORE_TABLES.setdefault(ell, [1]) for ell in ells]
    # the (modulus, table, bits) lanes of the tables that must grow, modulus 0
    # for p, in passes
    passes: list[list[tuple[int, list[int], int]]] = []
    room = 0
    for ell, table in [(0, _P_CACHE), *dict(zip(ells, tables)).items()]:
        if len(table) > upto:
            continue
        bits = _core_width(ell, upto) if ell else _p_width(upto)
        if bits > room:
            passes.append([])
            room = _PASS_BITS
        passes[-1].append((ell, table, bits))
        room -= bits
    for group in passes:
        _grow_pass(group, upto)
    return _P_CACHE, tables


def _grow_pass(lanes: list[tuple[int, list[int], int]], upto: int) -> None:
    # one pass of the recurrence for the (modulus, table, bits) lanes of
    # _core_tables, lane k from the sum of the bits below it
    lo = min(len(table) for _, table, _ in lanes)
    shifts = list(accumulate([bits for _, _, bits in lanes[:-1]], initial=0))
    tops: dict[int, int] = {}
    for (ell, _, _), shift in zip(lanes, shifts):
        if ell:
            e = _euler_power(ell, upto // ell)
            for j in range(-(-lo // ell), upto // ell + 1):
                tops[ell * j] = tops.get(ell * j, 0) + (e[j] << shift)
    if len(lanes) == 1:
        _extend_quotient(lanes[0][1], upto, lambda m: tops.get(m, 0))
        return
    packed = [
        sum([table[m] << shift for (_, table, _), shift in zip(lanes, shifts)]) for m in range(lo)
    ]
    _extend_quotient(packed, upto, lambda m: tops.get(m, 0))
    for (_, table, bits), shift in zip(lanes, shifts):
        # mask before the shift: a shift sizes its result to the value, where a
        # mask would keep the full lane width allocated
        lane = ((1 << bits) - 1) << shift
        table.extend([(v & lane) >> shift for v in packed[len(table) :]])


def count_cores(n: int, ell: int) -> int:
    """Number of ell-cores of n.

    Coefficient of q^n in E(q^ell)^ell / E(q), read from a table of c_ell
    grown in place through n by the pentagonal recurrence
    c_ell(m) = [ell | m] e_{m/ell} - sum_g sign(g) c_ell(m - g), where e_k is
    the coefficient of q^k in E(q)^ell.  Each new entry costs O(sqrt m)
    integer additions.  The table grows through _core_tables, as one lane of
    a pass, beside a p lane when p(n) must grow too; a census grows p and
    the tables of all its moduli in that call, as lanes of shared packed
    passes.  Each table is one list of n + 1 integers: about 0.7 MiB for
    ell = 5 and 1.5 MiB for ell = 499 at n = 20000.
    """
    _require_int(n, "n")
    _require_int(ell, "ell", 2)
    table = _CORE_TABLES.get(ell, ())
    if n < len(table):
        return table[n]
    return _core_tables((ell,), n)[1][0][n]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, largest first."""
    _require_int(n, "n")
    # each step lowers the last part above 1 by one and refills the parts
    # after it greedily with the freed units
    a = [n] if n else []
    yield Partition._from_desc(tuple(a))
    while a and a[0] > 1:
        i = len(a) - 1
        while a[i] == 1:
            i -= 1
        v = a[i] - 1
        rem = len(a) - i
        a[i] = v
        del a[i + 1 :]
        while rem > 0:
            c = v if v < rem else rem
            a.append(c)
            rem -= c
        yield Partition._from_desc(tuple(a))
