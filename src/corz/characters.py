"""Exact symmetric-group characters by border-strip removal, and the zero
counts over blocks of the character table of one n.

Strips are removed on the beta-set bitmask of the row (see partitions): a
strip of length k moves a bead from b down to an empty position b - k, and
its height is the number of beads strictly between the two.  Memos are
keyed on canonical masks, with no bead at 0.  A strip that lands above 0
leaves bit 0 clear, so the rest is canonical as it stands; only a strip that
lands at 0 leaves a run of beads at 0, 1, ... to shift out.

Two kernels share that step, ColumnEvaluator and the row-side kernel of
the whole table (below).  ColumnEvaluator evaluates rows on a column,
with one memo level per suffix of the column's parts short of the whole;
verify builds one per column.  The column's own value is met once per row,
so it is summed over the row's strips of the first part and not memoised.

Two routes count zeros, each a plain integer over a block of rows by
columns; both group the rows into conjugate orbits (_orbits), as
chi_lam'(mu) = sgn(mu) chi_lam(mu) vanishes with chi_lam(mu), and count a
zero once per row of the orbit.  The column loop (_count_zeros) decides a
pair by the hook prefilter, then by MN for the pairs it leaves open, on one
ColumnEvaluator per call that moves to each column with an open pair.  It
visits the columns in order of their reversed parts, so that each shares
its smallest parts, and the MN memo levels of those, with the one before
it, as chi_nu(remaining parts) does not depend on the parts already
removed.  The evaluator keeps each row's strips of a largest part for every
column that has it.  The loop keeps nothing from one call to the next.

The whole table (_whole_table) comes from the row-side kernel, which
decides every pair of n at once: it builds each row of n as one vector over
every column of n, from the vectors of the partitions left after removing a
strip, and finds the zero columns of each conjugate orbit of rows.  Its
vectors are Python ints with W signed bits per column, where W is the least
multiple of 64 with sqrt(n!) < 2^(W - 2), a bound on every character value
of n; so every value is exact and no dependency is needed.  Its memo keeps
each vector only as far as a parent reads it, about 4 MiB at n = 24 and
40 MiB at n = 30.  The process keeps the table of its latest n as one
value, from which _zero_reader counts the zeros of any rows of n on any
columns with no MN.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from typing import NamedTuple

from .partitions import (
    Partition,
    PartitionLike,
    bead_positions,
    beta_mask,
    canonical_mask,
    conjugate_mask,
    enumerate_partitions,
    hook_mask,
    mask_parts,
)


class ColumnEvaluator:
    """Character evaluations against one fixed cycle type.

    Strips are removed for the parts of mu in the order given (a Partition
    supplies them largest first); the value is independent of that order.
    Memo level s holds chi_nu of the column's last s parts, keyed on the
    canonical beta-set of the rows nu met; level 0 holds the empty
    partition, so a strip for the last part makes no call.  The column's
    own value is not memoised, as each row meets it once: it is summed over
    the row's strips of the first part, kept per first part and row.  The
    zero loop (_count_zeros) moves one evaluator from column to column (_move),
    keeping the levels of the suffix the two columns share.
    """

    def __init__(self, mu: PartitionLike | Sequence[int]):
        parts = tuple(mu.parts) if isinstance(mu, Partition) else tuple(mu)
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in parts):
            raise ValueError("cycle type parts must be positive integers")
        # the empty column: level 0 alone
        self.parts: tuple[int, ...] = ()
        self.size = 0
        self._levels: list[dict[int, int]] = [{0: 1}]
        # first part -> canonical row mask -> its strips of that part, as
        # (child, odd height); _tops is the current first part's
        self._firsts: dict[int, dict[int, list[tuple[int, int]]]] = {}
        if parts:
            self._move(parts)

    def _move(self, parts: tuple[int, ...]) -> None:
        # make parts (all positive) the column: keep the levels of the suffix
        # it shares with the current column and start the others empty
        shared = 0
        for a, b in zip(reversed(parts), reversed(self.parts)):
            if a != b:
                break
            shared += 1
        levels = self._levels
        del levels[shared + 1 :]
        levels.extend({} for _ in range(len(parts) - len(levels)))
        self.parts = parts
        self.size = sum(parts)
        if parts:
            self._tops = self._firsts.setdefault(parts[0], {})

    def value(self, lam: PartitionLike) -> int:
        lam = Partition.of(lam)
        self._check_size(lam.n)
        return self._value(beta_mask(lam.parts))

    def value_mask(self, mask: int) -> int:
        """chi_lam(mu) for the row lam given by a beta-set mask, with or
        without extra beads at 0..t-1.  The empty cycle type gives 1.
        Raises ValueError unless lam is a partition of self.size."""
        self._check_size(sum(mask_parts(mask)))
        return self._value(canonical_mask(mask))

    def _check_size(self, size: int) -> None:
        if size != self.size:
            raise ValueError(
                f"size mismatch: partition of {size} against cycle type of {self.size}"
            )

    def _value(self, mask: int) -> int:
        # chi_lam(mu) for the canonical mask of a row of self.size
        parts = self.parts
        if not parts:
            return self._levels[0][mask]
        strips = self._tops.get(mask)
        if strips is None:
            strips = self._tops[mask] = _strips(mask, parts[0])
        s = len(parts) - 1
        below = self._levels[s]
        total = 0
        for rest, odd in strips:
            term = below.get(rest)
            if term is None:
                term = self._eval(rest, s)
            total += -term if odd else term
        return total

    def _eval(self, mask: int, s: int) -> int:
        # the step of _strips, inline for speed: memo level s of the canonical mask
        k = self.parts[-s]
        ends = (mask & ~(mask << k)) >> k
        total = 0
        levels = self._levels
        below = levels[s - 1]
        while ends:
            end = ends & -ends
            ends ^= end
            top = end << k
            rest = mask ^ top ^ end
            if end == 1:
                rest >>= ((rest + 1) & ~rest).bit_length() - 1
            term = below.get(rest)
            if term is None:
                term = self._eval(rest, s - 1)
            total += -term if (mask & (top - end)).bit_count() & 1 else term
        levels[s][mask] = total
        return total


def _strips(mask: int, k: int) -> list[tuple[int, int]]:
    """The strips of length k of the row with canonical beta-set mask, as
    (canonical mask of the rest, 1 if the strip's height is odd else 0).
    A strip lands at an empty position `end` from the bead at top = end << k;
    the beads strictly between give its height.  Only a strip that lands at
    0 leaves a rest to canonicalise (see the module docstring)."""
    out = []
    ends = (mask & ~(mask << k)) >> k
    while ends:
        end = ends & -ends
        ends ^= end
        top = end << k
        rest = mask ^ top ^ end
        if end == 1:
            rest >>= ((rest + 1) & ~rest).bit_length() - 1
        out.append((rest, (mask & (top - end)).bit_count() & 1))
    return out


def _orbits(rows: Iterable[Partition]) -> dict[int, list[int]]:
    # the conjugate orbits of distinct rows, keyed on the smaller beta-set
    # mask, in the order the rows first meet them: the mask of the orbit's
    # first row, and its rows here (1 or 2)
    orbits: dict[int, list[int]] = {}
    for lam in rows:
        mask = beta_mask(lam.parts)
        key = min(mask, conjugate_mask(mask))
        if key in orbits:
            orbits[key][1] = 2
        else:
            orbits[key] = [mask, 1]
    return orbits


def _count_zeros(rows: Iterable[Partition], columns: Iterable[Partition]) -> int:
    # zeros chi_row(column) over distinct rows and the given columns, all of
    # one size.  A pair vanishes without MN when some part of the column is
    # not a hook length of the row.  Conjugation keeps hook lengths, so each
    # conjugate orbit is decided once per column.
    orbits = [(mask, hook_mask(key), here) for key, (mask, here) in _orbits(rows).items()]
    if not orbits:
        return 0
    # MN visits the columns by their reversed parts: a column then shares its
    # smallest parts, and the memo levels of those, with the one before.  The
    # rows' strips of a largest part serve every column with that part.
    # Entries are popped from the end, so each is freed once visited.
    todo = sorted((mu.parts[::-1] for mu in columns), reverse=True)
    col = ColumnEvaluator(())
    count = 0
    while todo:
        parts = todo.pop()[::-1]
        needed = sum(1 << p for p in set(parts))
        for mask, hooks, here in orbits:
            if needed & ~hooks:
                count += here
                continue
            # the evaluator moves to a column only once MN must decide a pair
            if col.parts is not parts:
                col._move(parts)
            # masks from beta_mask are canonical, and rows have the column's size
            if col._value(mask) == 0:
                count += here
    return count


# ---------------------------------------------------------------------------
# the whole table of one n, row by row.  V(nu) is chi_nu on the columns of
# m = |nu| in ascending lexicographic order, the reverse of
# enumerate_partitions, so the columns with largest part <= j are a prefix of
# L(m, j) = #{partitions of m with parts <= j}.  Block i of V(nu), the columns
# with largest part exactly i, is the sum of +- V(nu - strip)[:L(m - i, i)]
# over the i-strips of nu.  Only a parent of size m + i <= n reads V(nu), so
# the memo keeps just the blocks i <= min(m, n - m) and rows of n are never
# memoised.
#
# A vector is one Python int, W bits per signed lane: sum_k v_k 2^(kW).  Every
# lane is a character value, |chi_lam(mu)| <= f^lam <= sqrt(n!) as
# sum (f^lam)^2 = n!, and W is the least multiple of 64 with
# sqrt(n!) < 2^(W - 2): 64 bits for n <= 33, 128 for n <= 56.  A sum of lanes
# is then exact, and the first L lanes are the balanced residue of the int
# mod 2^(WL).  The memo holds about 4 MiB at n = 24 and 40 MiB at n = 30.


def _lane_width(n: int) -> int:
    width = 64
    while math.factorial(n) >= 1 << (2 * width - 4):  # sqrt(n!) >= 2^(W - 2)
        width += 64
    return width


def _truncate(x: int, cut: int) -> int:
    # the signed lanes of x below cut = 2^b - 1: the balanced residue mod 2^b
    x &= cut
    return x - cut - 1 if x > cut >> 1 else x


def _lane_ones(width: int, lanes: int) -> int:
    # a 1 in each of the first `lanes` lanes
    return int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * lanes, "little")


def _zero_lanes(x: int, width: int, ones: int) -> int:
    # bit width - 1 of each lane of `ones` is set when that lane of x is 0.
    # With the bias 2^(W-1) in each lane, a = x + bias has lanes
    # v_k + 2^(W-1) with no carry, whose top bit is set when v_k >= 0; in
    # a - ones it is set when v_k >= 1.  The two differ there exactly when
    # v_k = 0.
    high = ones << (width - 1)
    a = x + high
    return (a ^ (a - ones)) & high


def _prefix_counts(n: int) -> list[list[int]]:
    # table[m][j] = L(m, j) for 0 <= m, j <= n
    table = [[1] * (n + 1)]
    for m in range(1, n + 1):
        row = [0] * (n + 1)
        for j in range(1, n + 1):
            row[j] = row[j - 1] + (table[m - j][j] if j <= m else 0)
        table.append(row)
    return table


def _row_vectors(n: int, keys: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Per canonical beta-set mask of a row lam of n in keys, in their order:
    the mask and chi_lam on every column of n, packed in ascending lex order
    at _lane_width(n) bits a lane."""
    width = _lane_width(n)
    table = _prefix_counts(n)
    masks: dict[int, int] = {}  # lane count -> its all-ones mask
    memo = {0: 1}  # canonical mask -> stored blocks, as a residue

    def lanes_mask(count: int) -> int:
        mask = masks.get(count)
        if mask is None:
            mask = masks[count] = (1 << (width * count)) - 1
        return mask

    def vector(mask: int, m: int, top: int) -> int:
        # blocks 1..top of V(nu) for the canonical mask of nu |- m
        out = 0
        for i in range(1, top + 1):
            ends = (mask & ~(mask << i)) >> i
            if not ends:
                continue
            rest_m = m - i
            lanes = table[rest_m][i]
            cut = lanes_mask(lanes)
            total = 0
            while ends:
                end = ends & -ends
                ends ^= end
                t = end << i
                rest = mask ^ t ^ end
                if end == 1:
                    rest >>= ((rest + 1) & ~rest).bit_length() - 1
                term = memo.get(rest)
                if term is None:
                    rest_top = min(rest_m, n - rest_m)
                    term = vector(rest, rest_m, rest_top)
                    term = memo[rest] = term & lanes_mask(table[rest_m][rest_top])
                # a stored residue is nonnegative, so the cut costs its own size
                term &= cut
                total += -term if (mask & (t - end)).bit_count() & 1 else term
            out += _truncate(total, cut) << (width * table[m][i - 1])
        return out

    for key in keys:
        # only n = 0 finds its row, the empty partition, in the memo
        yield key, memo[key] if key in memo else vector(key, n, n)


class _WholeTable(NamedTuple):
    """The zero verdicts of the whole character table of one n."""

    count: int  # zeros in the table
    bits: dict[int, int]  # conjugate orbit of rows, keyed on its smaller mask -> its bit
    zeros: dict[tuple[int, ...], int]  # column parts -> the orbits that vanish there


@lru_cache(maxsize=1)
def _whole_table(n: int) -> _WholeTable:
    # the table does not depend on ell, so a sweep over moduli computes it
    # once per n.  Orbits get their bits in the order the partition walk
    # meets them.
    width = _lane_width(n)
    columns = list(enumerate_partitions(n))
    ones = _lane_ones(width, len(columns))
    orbits = _orbits(columns)
    # orbit bit j of group g moves the zero flag of each lane, bit width - 1,
    # to bit j, so a group of 64 orbits fills the low word of each lane
    bits: dict[int, int] = {}
    groups: dict[int, int] = {}
    count = 0
    for key, row in _row_vectors(n, orbits):
        lanes = _zero_lanes(row, width, ones)
        g, j = divmod(len(bits), 64)
        bits[key] = 1 << len(bits)
        groups[g] = groups.get(g, 0) | lanes >> (width - 1 - j)
        count += orbits[key][1] * lanes.bit_count()
    zero = [0] * len(columns)
    words = len(zero) * width // 64
    for g, acc in groups.items():
        low = struct.unpack(f"<{words}Q", acc.to_bytes(8 * words, "little"))[:: width // 64]
        zero = [z | w << 64 * g for z, w in zip(zero, low)]
    # lanes run in ascending lex order, the reverse of enumerate_partitions
    return _WholeTable(count, bits, {mu.parts: z for mu, z in zip(columns, reversed(zero))})


def _zero_reader(n: int, rows: Iterable[Partition]) -> Callable[..., int]:
    # counts the zeros of distinct rows of n on the given columns of n, or on
    # every column, from the whole table with no MN; the rows' orbit bits are
    # taken once for every call.  ones: orbits with a row here; twos: orbits
    # with both conjugates here
    table = _whole_table(n)
    orbits = _orbits(rows)
    ones = sum(table.bits[key] for key in orbits)
    twos = sum(table.bits[key] for key, (_, here) in orbits.items() if here == 2)

    def read(columns: Iterable[Partition] | None = None) -> int:
        zeros = table.zeros
        words = zeros.values() if columns is None else [zeros[mu.parts] for mu in columns]
        return sum([(z & ones).bit_count() + (z & twos).bit_count() for z in words])

    return read


def mn_character(lam: PartitionLike, mu: PartitionLike) -> int:
    """Exact character value chi_lam(mu) for partitions of the same size."""
    return ColumnEvaluator(Partition.of(mu)).value(lam)


def dimension(lam: PartitionLike) -> int:
    """Degree of the irreducible labeled by lam, by Frobenius' formula on its
    beta numbers b_1 < ... < b_r: n! prod_{i<j} (b_j - b_i) / prod_i b_i!."""
    lam = Partition.of(lam)
    beads = list(bead_positions(beta_mask(lam.parts)))
    num = math.factorial(lam.n)
    den = 1
    for j, b in enumerate(beads):
        den *= math.factorial(b)
        for a in beads[:j]:
            num *= b - a
    return num // den


def centralizer_order(mu: PartitionLike) -> int:
    """Order of the centralizer of a permutation of cycle type mu:
    prod_i i^{m_i} m_i! over part multiplicities m_i."""
    mu = Partition.of(mu)
    mult: dict[int, int] = {}
    for p in mu.parts:
        mult[p] = mult.get(p, 0) + 1
    out = 1
    for i, m in mult.items():
        out *= i**m * math.factorial(m)
    return out
