"""Exact rank of sparse integer matrices and Betti bookkeeping.

One sparse elimination kernel computes every rank, over Q or over GF(p).
Pivots are chosen Markowitz-style (minimal fill, unit entries first), and
rows are combined by integer cross-multiplication, so no rationals ever
appear.  Over Q each new row is re-reduced by its gcd; over GF(p) its
entries are reduced mod p.  There is no dense fallback: the chain groups
are small and their matrices sparse.  The modular ranks, over word-size
primes, are both a fast path and an independent check on the exact one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import ParseError


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

    @classmethod
    def from_triples(cls, rows, cols, triples):
        e = {}
        for i, j, v in triples:
            if (i, j) in e:
                raise ValueError(f"duplicate entry ({i},{j})")
            e[(i, j)] = v
        return cls(rows, cols, e)

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


def read_matrix_market(fh) -> SparseIntMatrix:
    head = fh.readline().strip()
    if head != MM_HEADER:
        raise ParseError(f"unexpected Matrix Market header: {head!r}", line=1)
    ln = 1
    line = fh.readline()
    ln += 1
    while line.startswith("%"):
        line = fh.readline()
        ln += 1
    toks = line.split()
    if len(toks) != 3:
        raise ParseError("expected 'rows cols nnz'", line=ln)
    rows, cols, nnz = (int(t) for t in toks)
    triples = []
    for _ in range(nnz):
        ln += 1
        toks = fh.readline().split()
        if len(toks) != 3:
            raise ParseError("expected 'i j value'", line=ln)
        i, j, v = int(toks[0]), int(toks[1]), int(toks[2])
        triples.append((i - 1, j - 1, v))
    return SparseIntMatrix.from_triples(rows, cols, triples)


# -- elimination --------------------------------------------------------------


def _row_reduce_gcd(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(mat: SparseIntMatrix, p: int = 0) -> int:
    """Rank over Q when p is 0, else over GF(p), by sparse elimination."""
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in mat.entries.items():
        if p:
            v %= p
        if v:
            rows.setdefault(i, {})[j] = v
    col_rows: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    rank = 0
    while rows:
        # Markowitz pivot: minimize fill, prefer unit entries.
        best = None
        for i, row in rows.items():
            rl = len(row) - 1
            for j, v in row.items():
                score = (rl * (len(col_rows[j]) - 1), abs(v) != 1, abs(v), i, j)
                if best is None or score < best[0]:
                    best = (score, i, j, v)
        _, pi, pj, pv = best
        rank += 1
        prow = rows.pop(pi)
        for j in prow:
            col_rows[j].discard(pi)
        for i in list(col_rows.get(pj, ())):
            row = rows[i]
            a = row[pj]
            for j in row:
                col_rows[j].discard(i)
            new = {}
            for j, v in row.items():
                if j == pj:
                    continue
                new[j] = pv * v - a * prow.get(j, 0)
            for j, w in prow.items():
                if j != pj and j not in row:
                    new[j] = -a * w
            if p:
                new = {j: v % p for j, v in new.items() if v % p}
            else:
                new = {j: v for j, v in new.items() if v}
                _row_reduce_gcd(new)
            if new:
                rows[i] = new
                for j in new:
                    col_rows.setdefault(j, set()).add(i)
            else:
                del rows[i]
    return rank


def rank_exact(mat: SparseIntMatrix) -> int:
    """Rank over the rationals, by integer-preserving elimination."""
    return _eliminate(mat)


def rank_mod_p(mat: SparseIntMatrix, p: int) -> int:
    """Rank over GF(p), for a prime p."""
    return _eliminate(mat, p)


# -- modular rank -------------------------------------------------------------


def _is_prime_64(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def default_primes(count: int = 3, seed: int = 0x6D74726F) -> tuple[int, ...]:
    """Deterministic 62-bit primes; the fixed seed keeps output bytes stable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.getrandbits(62) | (1 << 61) | 1
        while not _is_prime_64(c):
            c += 2
        if c not in out:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class ModularRank:
    value: int
    agree: bool
    certified: bool


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


@dataclass
class BettiRow:
    spec: str
    kind: str
    n: int
    r: int | None
    dim: int
    rank_out: int
    rank_in: int | None
    betti: int
    certified: str

    def csv(self) -> str:
        r = "" if self.r is None else str(self.r)
        rin = "" if self.rank_in is None else str(self.rank_in)
        return (
            f"{self.spec},{self.kind},{self.n},{r},{self.dim},"
            f"{self.rank_out},{rin},{self.betti},{self.certified}"
        )


BETTI_CSV_HEADER = "spec,kind,n,r,dim,rank_out,rank_in,betti,certified"


class BettiTable:
    def __init__(self, rows: list[BettiRow]):
        self.rows = rows

    def to_csv(self) -> str:
        return "\n".join([BETTI_CSV_HEADER] + [row.csv() for row in self.rows]) + "\n"

    def __iter__(self):
        return iter(self.rows)


class RankPolicy:
    """How ranks are computed: exact, or modular with exact confirmation."""

    def __init__(self, exact: bool = False, primes=None):
        self.exact = exact
        self.primes = tuple(primes) if primes else default_primes(3)

    def rank(self, mat: SparseIntMatrix) -> tuple[int, str]:
        if self.exact:
            return rank_exact(mat), "exact"
        mr = rank_modular(mat, self.primes)
        if mr.certified:
            return mr.value, "modular"
        return rank_exact(mat), "exact"
