"""Gelfand-Zetlin patterns for covariant u(m|n) modules.

A pattern is a triangular array of nonnegative integers with r = m+n rows of
lengths r, r-1, ..., 1 (top row first).  The bottom m rows form a classical
interlacing triangle; in the upper rows the first m columns may drop by at
most one per step while the remaining columns interlace, subject to a per-row
hook inequality.  Validity is decomposed into named predicates so a failing
pattern reports exactly which condition broke.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .symfunc import check_partition, conjugate, hook_partitions


@dataclass(frozen=True)
class GZPattern:
    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]  # top row (length m+n) first

    def __post_init__(self):
        r = self.m + self.n
        if len(self.rows) != r or any(
            len(row) != r - i for i, row in enumerate(self.rows)
        ):
            raise ValueError("pattern rows must have lengths r, r-1, ..., 1")

    def entry(self, i: int, s: int) -> int:
        """mu_{i,s}: entry i of the row of length s (both 1-based)."""
        return self.rows[self.m + self.n - s][i - 1]

    def row(self, s: int) -> tuple[int, ...]:
        return self.rows[self.m + self.n - s]

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[0]

    def to_rows(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_rows(cls, m: int, n: int, rows) -> "GZPattern":
        return cls(m, n, tuple(tuple(int(x) for x in row) for row in rows))


# ---------------------------------------------------------------------------
# top rows <-> hook partitions
# ---------------------------------------------------------------------------

def top_row_from_partition(la, m: int, n: int) -> tuple[int, ...]:
    """First m slots take the parts, the rest the column excesses over m."""
    la = check_partition(la)
    if (la[m] if m < len(la) else 0) > n:
        raise ValueError(f"{la} violates the (m|{n}) hook condition")
    lac = conjugate(la)
    fer = [la[i] if i < len(la) else 0 for i in range(m)]
    bos = [max(0, (lac[i] if i < len(lac) else 0) - m) for i in range(n)]
    return tuple(fer + bos)


def partition_from_top_row(top, m: int, n: int) -> tuple[int, ...]:
    top = tuple(top)
    fer = list(top[:m])
    bos = check_partition(top[m:])
    # the last n slots hold column excesses over m, so their conjugate gives
    # the parts below row m
    return check_partition(tuple(fer) + conjugate(bos))


def top_row_is_valid(top, m: int, n: int) -> bool:
    """Highest-weight admissibility of a length-(m+n) row.

    Entries are nonnegative integers, weakly decreasing within the first m
    slots and within the last n slots (the junction is unconstrained), and the
    m-th entry dominates the number of positive entries after it.
    """
    top = tuple(top)
    r = m + n
    if len(top) != r:
        return False
    if any(x < 0 for x in top):
        return False
    for j in range(1, r):
        if j == m:
            continue
        if top[j - 1] < top[j]:
            return False
    if m >= 1:
        support = sum(1 for i in range(m, r) if top[i] > 0)
        if top[m - 1] < support:
            return False
    return True


def top_rows_for_level(m: int, n: int, level: int,
                       max_width: int | None = None) -> list[tuple[int, ...]]:
    """All top rows of the given level, from the hook partitions of width
    <= max_width (all of them when None), sorted."""
    return sorted(top_row_from_partition(la, m, n)
                  for la in hook_partitions(level, m, n, max_width=max_width))


def raise_top_row(top, m: int, n: int, k: int):
    """Row with slot k increased by one, or None when inadmissible (1-based k)."""
    top = tuple(top)
    if not 1 <= k <= m + n:
        raise ValueError(f"slot {k} out of range")
    cand = top[: k - 1] + (top[k - 1] + 1,) + top[k:]
    return cand if top_row_is_valid(cand, m, n) else None


def lower_top_row(top, m: int, n: int, k: int):
    top = tuple(top)
    if not 1 <= k <= m + n:
        raise ValueError(f"slot {k} out of range")
    cand = top[: k - 1] + (top[k - 1] - 1,) + top[k:]
    return cand if top_row_is_valid(cand, m, n) else None


# ---------------------------------------------------------------------------
# validity predicates (full patterns)
# ---------------------------------------------------------------------------

def _cond_nonnegative(pat: GZPattern) -> bool:
    return all(x >= 0 for row in pat.rows for x in row)


def _cond_top_row(pat: GZPattern) -> bool:
    return top_row_is_valid(pat.top, pat.m, pat.n)


def _cond_theta(pat: GZPattern) -> bool:
    """First-m columns drop by 0 or 1 between consecutive upper rows."""
    m, r = pat.m, pat.m + pat.n
    for s in range(m + 1, r + 1):
        for i in range(1, m + 1):
            if pat.entry(i, s) - pat.entry(i, s - 1) not in (0, 1):
                return False
    return True


def _cond_hook(pat: GZPattern) -> bool:
    """Per-row hook inequality in the upper rows."""
    m, r = pat.m, pat.m + pat.n
    if m == 0:
        return True
    for s in range(m + 1, r + 1):
        support = sum(1 for i in range(m + 1, s + 1) if pat.entry(i, s) > 0)
        if pat.entry(m, s) < support:
            return False
    return True


def _cond_junction(pat: GZPattern) -> bool:
    """If the m-th entry of row m+1 is zero it cannot drop into row m."""
    m, n = pat.m, pat.n
    if m == 0 or n == 0:
        return True
    if pat.entry(m, m + 1) == 0 and pat.entry(m, m) != 0:
        return False
    return True


def _cond_fermionic_rows(pat: GZPattern) -> bool:
    """First m entries weakly decreasing in every upper row below the top."""
    m, r = pat.m, pat.m + pat.n
    for s in range(m + 1, r):
        for i in range(1, m):
            if pat.entry(i, s) < pat.entry(i + 1, s):
                return False
    return True


def _cond_interlace(pat: GZPattern) -> bool:
    """Classical betweenness inside the bottom triangle and in the boson columns."""
    m, r = pat.m, pat.m + pat.n
    for j in range(1, m):
        for i in range(1, j + 1):
            if not (pat.entry(i, j + 1) >= pat.entry(i, j) >= pat.entry(i + 1, j + 1)):
                return False
    for j in range(m + 1, r):
        for i in range(m + 1, j + 1):
            if not (pat.entry(i, j + 1) >= pat.entry(i, j) >= pat.entry(i + 1, j + 1)):
                return False
    return True


CONDITIONS = (
    ("nonnegative", _cond_nonnegative),
    ("top_row", _cond_top_row),
    ("theta_steps", _cond_theta),
    ("hook_rows", _cond_hook),
    ("junction", _cond_junction),
    ("fermionic_rows", _cond_fermionic_rows),
    ("interlace", _cond_interlace),
)


def pattern_failures(pat: GZPattern) -> list[str]:
    """Names of the validity conditions the pattern violates."""
    return [name for name, pred in CONDITIONS if not pred(pat)]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _next_rows(m: int, n: int, s: int, row: tuple[int, ...]):
    """Admissible rows of length s-1 below a row of length s (s >= 2).

    Inside the upper block the first m slots drop by 0 or 1; inside the bottom
    triangle they interlace classically.  Boson slots always interlace.  The
    per-row hook inequality and the junction rule are applied where they bind.
    """
    fer_slots = min(m, s - 1)
    fer_ranges = []
    for i in range(1, fer_slots + 1):
        cur = row[i - 1]
        if s >= m + 1:
            lo = max(0, cur - 1)  # drop by at most one
        else:
            lo = row[i] if i < s else 0  # classical interlacing
        fer_ranges.append(range(cur, lo - 1, -1))
    bos_ranges = []
    for i in range(m + 1, s):
        hi = row[i - 1]
        lo = row[i] if i < s else 0
        bos_ranges.append(range(hi, lo - 1, -1))

    for fer in itertools.product(*fer_ranges):
        if any(fer[i] < fer[i + 1] for i in range(len(fer) - 1)):
            continue
        if s == m + 1 and m >= 1 and row[m - 1] == 0 and fer and fer[m - 1] != 0:
            continue  # junction: a zero above forces a zero below
        for bos in itertools.product(*bos_ranges):
            cand = fer + bos
            if s - 1 >= m + 1 and m >= 1:
                support = sum(1 for x in bos if x > 0)
                if cand[m - 1] < support:
                    continue
            yield cand


def fillings(top, m: int, n: int) -> list[GZPattern]:
    """All valid patterns under the given top row, in lexicographic row order."""
    top = tuple(top)
    if not top_row_is_valid(top, m, n):
        raise ValueError(f"invalid top row {top}")
    r = m + n
    results: list[tuple[tuple[int, ...], ...]] = []

    def descend(rows, s, row):
        if s == 1:
            results.append(tuple(rows))
            return
        for nxt in _next_rows(m, n, s, row):
            descend(rows + [nxt], s - 1, nxt)

    descend([top], r, top)
    pats = [GZPattern(m, n, rows) for rows in sorted(results)]
    return pats


def pattern_content(pat: GZPattern) -> tuple[int, ...]:
    """Creation content: entry k is the k-th row sum minus the (k-1)-th, rows
    counted by length from below."""
    sums = [0] + [sum(pat.row(k)) for k in range(1, pat.m + pat.n + 1)]
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def doubled_weight(content, m: int, n: int, p: int) -> tuple[int, ...]:
    """The vacuum shift: doubled weight (2x the Cartan eigenvalues) of a
    creation content in the module of order p, the doubled vacuum weight
    (-p,...,-p | p,...,p) plus twice the content."""
    shift = [-p] * m + [p] * n
    return tuple(o + 2 * c for o, c in zip(shift, content))


def pattern_weight(pat: GZPattern, p: int) -> tuple[int, ...]:
    """Doubled weight of a valid pattern in the module of order p."""
    if pattern_failures(pat):
        raise ValueError("invalid pattern")
    return doubled_weight(pattern_content(pat), pat.m, pat.n, p)


def valid_subrows(top, m: int, n: int) -> list[tuple[int, ...]]:
    """Rows of length m+n-1 that can sit directly below the given top row.

    For r = 1 the unique subrow is the empty row (there is nothing below the
    single-entry pattern, and row sums below the top count as zero).
    """
    top = tuple(top)
    r = m + n
    if r == 1:
        return [()]
    return sorted(_next_rows(m, n, r, top))


@lru_cache(maxsize=None)
def _subrow_counts(m: int, n: int, s: int, row: tuple[int, ...]) -> Counter:
    """Content of rows s..1 -> number of patterns below a row of length s,
    by the branching rule: each subrow, in sorted order, adds its step
    sum(row) - sum(subrow) to the contents below it.  The keys come in the
    order of their first pattern in fillings' lexicographic order."""
    if s == 1:
        return Counter({(row[0],): 1})
    out: Counter = Counter()
    total = sum(row)
    for nxt in sorted(_next_rows(m, n, s, row)):
        step = (total - sum(nxt),)
        for content, count in _subrow_counts(m, n, s - 1, nxt).items():
            out[content + step] += count
    return out


@lru_cache(maxsize=None)
def _count_table(m: int, n: int, level: int) -> tuple:
    """(width, content Counter of its patterns) per top row of one level."""
    return tuple((max(partition_from_top_row(top, m, n), default=0),
                  _subrow_counts(m, n, m + n, top))
                 for top in top_rows_for_level(m, n, level))


@lru_cache(maxsize=None)
def _width_counts(m: int, n: int, level: int, max_width: int | None) -> Counter:
    return sum((counts for width, counts in _count_table(m, n, level)
                if max_width is None or width <= max_width), Counter())


def pattern_counts(m: int, n: int, level: int,
                   max_width: int | None = None) -> Counter:
    """Content -> number of patterns at one level, over the top rows of
    width <= max_width (all of them when None), as a fresh Counter.  A top
    row's width is at most its level, so a max_width >= level reads as None
    and every such order shares one cached sum."""
    if max_width is not None and max_width >= level:
        max_width = None
    return Counter(_width_counts(m, n, level, max_width))
