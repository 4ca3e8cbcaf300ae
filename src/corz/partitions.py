"""Integer partitions: hooks, cores, regularity, and exact counting series.

Everything that counts is exact: p(n), p_ell(n) and c_ell(n) are Python
integers.  p(n) and c_ell(n) come from tables grown by the pentagonal
recurrence, one for p and one per modulus for c_ell, and p_ell(n) from a short
convolution with the p(n) table.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence


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
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
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
    if ell < 2:
        raise ValueError("ell must be at least 2")
    # a hook of length divisible by ell exists iff one of length ell does
    return not strip_ends(beta_mask(Partition.of(lam).parts), ell)


def is_regular(lam: PartitionLike, a: int) -> bool:
    """True iff no part of lam is divisible by a."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return not any(p % a == 0 for p in Partition.of(lam).parts)


# ---------------------------------------------------------------------------
# exact counting series.  Every count is a coefficient of an eta-quotient in
# Euler's function E(q) = prod_{k>=1} (1 - q^k):
#     sum p(n) q^n = 1/E(q),   sum p_a(n) q^n = E(q^a)/E(q),
#     sum c_ell(n) q^n = E(q^ell)^ell / E(q).
# By the pentagonal number theorem E(q) = 1 + sum sign(g) q^g over the
# generalized pentagonal numbers g, so it has O(sqrt N) terms up to q^N.
# p(n) and c_ell(n) are tables grown in place by one recurrence, the
# coefficients of E(q) times the series; p_a(n) is a short convolution with
# the p(n) table.  Every sum runs over one list of the pentagonal numbers.

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


def _pentagonal_cuts(lo: int, hi: int) -> Iterator[tuple[int, list[int], list[int]]]:
    # (m, minus, plus) for m = lo .. hi, both lists cut to 1 <= g <= m.  The
    # lists are taken once, and a cut is rebuilt only when m reaches its next
    # entry.
    minus, plus = _pentagonal(hi)
    i, j = bisect_right(minus, lo), bisect_right(plus, lo)
    cut_minus, cut_plus = minus[:i], plus[:j]
    for m in range(lo, hi + 1):
        if i < len(minus) and minus[i] == m:
            i += 1
            cut_minus = minus[:i]
        if j < len(plus) and plus[j] == m:
            j += 1
            cut_plus = plus[:j]
        yield m, cut_minus, cut_plus


def _extend_quotient(series: list[int], upto: int, top: Callable[[int], int]) -> list[int]:
    # Grow series, the coefficients of F(q) = T(q)/E(q), in place through
    # q^upto; top(m) is the coefficient of q^m in T(q).  The coefficient of
    # q^m in E(q) F(q) = T(q) gives F_m = T_m - sum_g sign(g) F_{m-g}.
    for m, minus, plus in _pentagonal_cuts(len(series), upto):
        series.append(
            top(m) + sum([series[m - g] for g in minus]) - sum([series[m - g] for g in plus])
        )
    return series


_P_CACHE: list[int] = [1]


def count_p(n: int) -> int:
    """Number of partitions of n, by the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_P_CACHE):
        return _P_CACHE[n]
    return _extend_quotient(_P_CACHE, n, lambda m: 0)[n]


def count_p_regular(n: int, a: int) -> int:
    """Number of partitions of n with no part divisible by a.

    Coefficient of q^n in E(q^a)/E(q): the pentagonal convolution
    p(n) + sum sign(g) p(n - a g) over generalized pentagonal g <= n/a.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if a < 2:
        raise ValueError("a must be at least 2")
    count_p(n)
    p = _P_CACHE
    top = n // a
    minus, plus = _pentagonal(top)
    minus, plus = minus[: bisect_right(minus, top)], plus[: bisect_right(plus, top)]
    return p[n] + sum([p[n - a * g] for g in plus]) - sum([p[n - a * g] for g in minus])


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


def count_cores(n: int, ell: int) -> int:
    """Number of ell-cores of n.

    Coefficient of q^n in E(q^ell)^ell / E(q), read from a table of c_ell
    grown in place through n by the pentagonal recurrence
    c_ell(m) = [ell | m] e_{m/ell} - sum_g sign(g) c_ell(m - g), where e_k is
    the coefficient of q^k in E(q)^ell.  Each new entry costs O(sqrt m)
    integer additions.  The table keeps one list of n + 1 integers per
    modulus: about 0.7 MiB for ell = 5 and 1.5 MiB for ell = 499 at
    n = 20000.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    table = _CORE_TABLES.setdefault(ell, [1])
    if n < len(table):
        return table[n]
    e = _euler_power(ell, n // ell)
    return _extend_quotient(table, n, lambda m: 0 if m % ell else e[m // ell])[n]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, largest first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
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
