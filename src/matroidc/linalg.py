"""Exact rank of sparse integer matrices and Betti bookkeeping.

One elimination kernel computes every rank, over Q or over GF(p), in one
pass over the rows: each row is reduced against the pivot rows found so
far, by integer cross-multiplication, so no rationals ever appear.  Over
Q each new row is divided by the gcd of its entries; over GF(p) its
entries are reduced mod p.  There is no dense fallback: the chain groups
are small and their matrices sparse.  The modular ranks, over the three
fixed 62-bit primes in `PRIMES`, are both a fast path and an independent
check on the exact one.
"""

from __future__ import annotations

from math import gcd


class SparseIntMatrix:
    """Integer matrix stored as a dict of nonzero entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    self.entries[(i, j)] = int(v)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def triples(self):
        return sorted((i, j, v) for (i, j), v in self.entries.items())

    def compose(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        by_row: dict[int, list] = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], int] = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, 0) + u * v
        return SparseIntMatrix(self.rows, other.cols, out)

    def add(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return SparseIntMatrix(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not self.entries

    def max_abs(self) -> int:
        return max((abs(v) for v in self.entries.values()), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# -- Matrix Market ----------------------------------------------------------

MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


def write_matrix_market(mat: SparseIntMatrix, fh) -> None:
    fh.write(MM_HEADER + "\n")
    fh.write(f"{mat.rows} {mat.cols} {mat.nnz}\n")
    for i, j, v in mat.triples():
        fh.write(f"{i + 1} {j + 1} {v}\n")


# -- elimination --------------------------------------------------------------


def _reduced(row: dict[int, int], p: int) -> dict[int, int]:
    """The row's nonzero entries mod p, or divided by their gcd when p is 0."""
    if p:
        return {j: v % p for j, v in row.items() if v % p}
    row = {j: v for j, v in row.items() if v}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(mat: SparseIntMatrix, p: int = 0) -> int:
    """Rank over Q when p is 0, else over GF(p), in one pass over the rows.

    Each row is reduced against the pivot rows found so far, in the order
    they were found, and what is left of it becomes the pivot row of its
    smallest column.  A pivot row is zero in the column of every earlier
    pivot, so one pass clears them all.
    """
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in mat.entries.items():
        rows.setdefault(i, {})[j] = v
    pivots: dict[int, dict[int, int]] = {}
    for row in rows.values():
        row = _reduced(row, p)
        for pj, prow in pivots.items():
            a = row.get(pj)
            if a:
                # pv * row - a * prow, over the union of their columns
                pv = prow[pj]
                combo = {j: pv * v for j, v in row.items()}
                for j, w in prow.items():
                    combo[j] = combo.get(j, 0) - a * w
                row = _reduced(combo, p)
        if row:
            pivots[min(row)] = row
    return len(pivots)


def rank_exact(mat: SparseIntMatrix) -> int:
    """Rank over the rationals, by integer-preserving elimination."""
    return _eliminate(mat)


def rank_mod_p(mat: SparseIntMatrix, p: int) -> int:
    """Rank over GF(p), for a prime p."""
    return _eliminate(mat, p)


# -- modular rank -------------------------------------------------------------


# Three distinct 62-bit primes.  They are constants so that no run depends on
# a prime search; the tests check their primality.
PRIMES = (2522243858249721719, 3911179900747682747, 2394233167496025809)


class ModularRank:
    __slots__ = ("value", "agree", "certified")

    def __init__(self, value: int, agree: bool, certified: bool):
        self.value = value
        self.agree = agree
        self.certified = certified

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.agree, self.certified) == (
            other.value, other.agree, other.certified
        )

    def __hash__(self):
        return hash((self.value, self.agree, self.certified))


def rank_modular(mat: SparseIntMatrix, primes) -> ModularRank:
    """Max rank over the given primes; always a lower bound for the exact rank.

    Certification follows a conservative policy: all primes agree and the
    matrix entries are units with dimensions below the smallest prime.
    """
    primes = tuple(primes)
    if len(primes) < 1:
        raise ValueError("need at least one prime")
    ranks = tuple(rank_mod_p(mat, p) for p in primes)
    agree = len(set(ranks)) == 1
    certified = (
        agree
        and len(primes) >= 2
        and mat.max_abs() <= 1
        and min(mat.rows, mat.cols) < min(primes)
    )
    return ModularRank(max(ranks), agree, certified)


# -- Betti bookkeeping ---------------------------------------------------------


class BettiRow:
    FIELDS = ("spec", "kind", "n", "r", "dim", "rank_out", "rank_in", "betti", "certified")
    __slots__ = FIELDS

    def __init__(
        self,
        spec: str,
        kind: str,
        n: int,
        r: int | None,
        dim: int,
        rank_out: int,
        rank_in: int | None,
        betti: int,
        certified: str,
    ):
        self.spec = spec
        self.kind = kind
        self.n = n
        self.r = r
        self.dim = dim
        self.rank_out = rank_out
        self.rank_in = rank_in
        self.betti = betti
        self.certified = certified

    def as_dict(self) -> dict:
        """The fields in order, as the JSON output writes them."""
        return {f: getattr(self, f) for f in self.FIELDS}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def csv(self) -> str:
        r = "" if self.r is None else str(self.r)
        rin = "" if self.rank_in is None else str(self.rank_in)
        return (
            f"{self.spec},{self.kind},{self.n},{r},{self.dim},"
            f"{self.rank_out},{rin},{self.betti},{self.certified}"
        )


BETTI_CSV_HEADER = ",".join(BettiRow.FIELDS)


class BettiTable:
    def __init__(self, rows: list[BettiRow]):
        self.rows = rows

    def to_csv(self) -> str:
        return "\n".join([BETTI_CSV_HEADER] + [row.csv() for row in self.rows]) + "\n"

    def __iter__(self):
        return iter(self.rows)


class RankPolicy:
    """How ranks are computed: exact, or modular with exact confirmation."""

    def __init__(self, exact: bool = False):
        self.exact = exact

    def rank(self, mat: SparseIntMatrix) -> tuple[int, str]:
        if self.exact:
            return rank_exact(mat), "exact"
        mr = rank_modular(mat, PRIMES)
        if mr.certified:
            return mr.value, "modular"
        return rank_exact(mat), "exact"
