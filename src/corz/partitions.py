"""Integer partitions: hooks, cores, regularity, and exact counting series.

Everything that counts is exact: p(n), p_ell(n) and c_ell(n) are Python
integers drawn from one p(n) table and sparse Euler products.  The two
closed-form growth estimates at the bottom are advisory floats and are never
mixed into exact results.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence


class Partition:
    """A partition of a nonnegative integer: weakly decreasing positive parts.

    Parts may be given in any order; zeros are dropped.  Instances are
    immutable by convention (``parts`` is a tuple) and hashable.
    """

    __slots__ = ("parts", "n")

    parts: tuple[int, ...]
    n: int

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = sorted(parts, reverse=True)
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative integers")
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        for p in cleaned:
            if not isinstance(p, int):
                raise ValueError("partition parts must be nonnegative integers")
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


def bead_positions(mask: int) -> Iterator[int]:
    """Bead positions of a beta-set mask, lowest first."""
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
# generalized pentagonal numbers g, so it has O(sqrt N) terms up to q^N, and
# each count is a short convolution with the one p(n) table.


def _pentagonal(upto: int) -> Iterator[tuple[int, int]]:
    # (g, sign) for the generalized pentagonal numbers 1 <= g <= upto,
    # ascending: g = k(3k -+ 1)/2 with sign (-1)^k for k = 1, 2, ...
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        g = k * (3 * k - 1) // 2
        if g > upto:
            return
        yield g, sign
        g += k
        if g > upto:
            return
        yield g, sign
        k += 1


_P_CACHE: list[int] = [1]


def count_p(n: int) -> int:
    """Number of partitions of n, by the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = _P_CACHE
    while len(p) <= n:
        m = len(p)
        # E(q) * sum p(n) q^n = 1
        p.append(-sum(sign * p[m - g] for g, sign in _pentagonal(m)))
    return p[n]


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
    return p[n] + sum(sign * p[n - a * g] for g, sign in _pentagonal(n // a))


_EULER_POWERS: dict[int, list[int]] = {}


def _euler_power(ell: int, upto: int) -> list[int]:
    # Coefficients of E(q)^ell through at least q^upto, extended in place by
    # J. C. P. Miller's power recurrence over the sparse pentagonal terms:
    # m e_m = sum_g ((ell + 1) g - m) sign(g) e_{m-g}, an exact division.
    e = _EULER_POWERS.setdefault(ell, [1])
    while len(e) <= upto:
        m = len(e)
        total = sum(sign * ((ell + 1) * g - m) * e[m - g] for g, sign in _pentagonal(m))
        e.append(total // m)
    return e


def count_cores(n: int, ell: int) -> int:
    """Number of ell-cores of n.

    Coefficient of q^n in E(q^ell)^ell / E(q): the convolution
    sum_m e_m p(n - ell m), where e_m is the coefficient of q^m in E(q)^ell.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ell < 2:
        raise ValueError("ell must be at least 2")
    count_p(n)
    p = _P_CACHE
    e = _euler_power(ell, n // ell)
    return sum(e[m] * p[n - ell * m] for m in range(n // ell + 1))


def _iter_partition_buffers(n: int) -> Iterator[list[int]]:
    # Reverse-lexicographic stream of partitions of n as a reused mutable
    # list; callers must copy anything they keep.
    if n == 0:
        yield []
        return
    a = [n]
    yield a
    while True:
        i = len(a) - 1
        while i >= 0 and a[i] == 1:
            i -= 1
        if i < 0:
            return
        v = a[i] - 1
        rem = len(a) - i
        a[i] = v
        del a[i + 1 :]
        while rem > 0:
            c = v if v < rem else rem
            a.append(c)
            rem -= c
        yield a


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, largest first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for buf in _iter_partition_buffers(n):
        yield Partition._from_desc(tuple(buf))


# ---------------------------------------------------------------------------
# advisory growth estimates (floats; never used in exact counts)


def hr_estimate(n: int) -> float:
    """Leading-order partition growth exp(pi sqrt(2n/3)) / (4 n sqrt(3))."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * n * math.sqrt(3))


def hagis_estimate(n: int, a: int) -> float:
    """Main-term size of count_p_regular(n, a) for large n.

    C_a (24 n - 1 + a)^(-3/4) exp(C sqrt((a-1)/a (n + (a-1)/24))) with
    C = pi sqrt(2/3) and C_a = sqrt(12) a^(-3/4) (a-1)^(1/4).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if a < 2:
        raise ValueError("a must be at least 2")
    c = math.pi * math.sqrt(2.0 / 3.0)
    c_a = math.sqrt(12.0) * a ** -0.75 * (a - 1) ** 0.25
    return (
        c_a
        * (24 * n - 1 + a) ** -0.75
        * math.exp(c * math.sqrt((a - 1) / a * (n + (a - 1) / 24)))
    )
