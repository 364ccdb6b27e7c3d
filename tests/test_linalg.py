"""Exact and modular rank against a rational-elimination oracle."""

import random
from fractions import Fraction
from io import StringIO
from itertools import chain

import pytest

from matroidc.linalg import (
    BETTI_CSV_HEADER,
    PRIMES,
    BettiRow,
    BettiTable,
    SparseIntMatrix,
    rank_exact,
    rank_mod_p,
    rank_modular,
    write_matrix_market,
)
from oracles import from_triples, is_prime_64, read_matrix_market, transpose

# The displayed 2x18 deletion matrix from degree 7 to degree 6 of the full
# complex, used as a frozen regression input.
DISPLAYED_DEL = [
    [1, 3, 0, 4, 4, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 3, 7, -1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def dense_to_sparse(rows):
    e = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                e[(i, j)] = v
    return SparseIntMatrix(len(rows), len(rows[0]) if rows else 0, e)


def rank_oracle(rows):
    """Straightforward Gaussian elimination over Fraction."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rank_trivial():
    assert rank_exact(SparseIntMatrix(3, 3)) == 0
    ident = SparseIntMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert rank_exact(ident) == 3
    assert rank_exact(SparseIntMatrix(0, 5)) == 0


def test_rank_displayed_deletion_matrix():
    assert rank_exact(dense_to_sparse(DISPLAYED_DEL)) == 2


# Entries in +-1..+-8, one draw in six nonzero: the kind of matrix the
# n <= 8 census ranks (its largest differential is 18 x 341 with entries up
# to 8), at up to 18 x 40.
SPARSE_VALUES = (0,) * 80 + tuple(s * v for s in (1, -1) for v in range(1, 9))


def random_rows(rng, count, max_rows, max_cols, values):
    """`count` dense matrices of random shape up to max_rows x max_cols."""
    for _ in range(count):
        nr, nc = rng.randint(1, max_rows), rng.randint(1, max_cols)
        yield [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]


def test_rank_matches_oracle_on_random_matrices():
    rng = random.Random(13)
    small = random_rows(rng, 60, 7, 7, (-2, -1, 0, 0, 0, 1, 1, 2, 3))
    large = random_rows(rng, 60, 18, 40, SPARSE_VALUES)
    for rows in chain(small, large):
        m = dense_to_sparse(rows)
        expect = rank_oracle(rows)
        assert rank_exact(m) == expect
        assert rank_exact(transpose(m)) == expect


def rank_mod_p_oracle(rows, p):
    """Dense Gaussian elimination over GF(p)."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_rank_mod_p_matches_dense_oracle(p):
    rng = random.Random(1000 + p)
    small = random_rows(rng, 80, 8, 8, (-3, -2, -1, 0, 0, 0, 1, 2, 3, 5, 7))
    large = random_rows(rng, 60, 18, 40, SPARSE_VALUES)
    for rows in chain(small, large):
        m = dense_to_sparse(rows)
        expect = rank_mod_p_oracle(rows, p)
        assert rank_mod_p(m, p) == expect
        assert rank_mod_p(transpose(m), p) == expect


def test_rank_modular_identity_and_discrepancy():
    ident = SparseIntMatrix(3, 3, {(i, i): 1 for i in range(3)})
    for p in PRIMES:
        assert rank_mod_p(ident, p) == 3
    two = SparseIntMatrix(1, 1, {(0, 0): 2})
    assert rank_mod_p(two, 2) == 0  # designed undercount
    assert rank_exact(two) == 1
    mr = rank_modular(two, (2,))
    assert mr.value == 0 and not mr.certified


def test_rank_modular_certification():
    m = dense_to_sparse(DISPLAYED_DEL)
    # entries up to 7 are not units: not certified even when primes agree
    mr = rank_modular(m, PRIMES)
    assert mr.value == 2 and mr.agree and not mr.certified
    unit_m = SparseIntMatrix(2, 2, {(0, 0): 1, (1, 1): -1})
    assert rank_modular(unit_m, PRIMES).certified


def test_primes_are_distinct_62bit_primes():
    assert len(set(PRIMES)) == 3
    for p in PRIMES:
        assert p.bit_length() == 62 and is_prime_64(p)
    # the oracle itself: small cases, a Carmichael number and 2**61 - 1
    assert [n for n in range(30) if is_prime_64(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime_64(561) and is_prime_64(2**61 - 1)


def test_matrix_ops():
    a = SparseIntMatrix(2, 2, {(0, 0): 1, (0, 1): 2})
    b = SparseIntMatrix(2, 1, {(0, 0): 3, (1, 0): -1})
    assert a.compose(b).entries == {(0, 0): 1}
    assert a.add(a).entries == {(0, 0): 2, (0, 1): 4}
    with pytest.raises(ValueError):
        a.compose(SparseIntMatrix(3, 1))
    with pytest.raises(ValueError):
        from_triples(2, 2, [(0, 0, 1), (0, 0, 2)])


def test_matrix_market_roundtrip():
    m = dense_to_sparse(DISPLAYED_DEL)
    buf = StringIO()
    write_matrix_market(m, buf)
    text = buf.getvalue()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general\n")
    assert read_matrix_market(StringIO(text)) == m


def test_matrix_market_empty():
    buf = StringIO()
    write_matrix_market(SparseIntMatrix(0, 0), buf)
    assert buf.getvalue() == "%%MatrixMarket matrix coordinate integer general\n0 0 0\n"


def test_betti_csv_format():
    rows = [
        BettiRow("all", "del", 3, None, 0, 0, 0, 0, "exact"),
        BettiRow("simple", "del", 6, 3, 2, 0, 2, 0, "modular"),
        BettiRow("all", "del", 7, None, 18, 2, None, 16, "upper_bound"),
    ]
    csv = BettiTable(rows).to_csv()
    lines = csv.splitlines()
    assert lines[0] == BETTI_CSV_HEADER
    assert lines[1] == "all,del,3,,0,0,0,0,exact"
    assert lines[2] == "simple,del,6,3,2,0,2,0,modular"
    assert lines[3] == "all,del,7,,18,2,,16,upper_bound"


def test_matrix_market_comment_lines():
    text = (
        "%%MatrixMarket matrix coordinate integer general\n"
        "% produced elsewhere\n"
        "2 2 1\n"
        "1 2 -3\n"
    )
    m = read_matrix_market(StringIO(text))
    assert m.entries == {(0, 1): -3}
