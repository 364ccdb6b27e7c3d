"""Reference implementations and test-only helpers.

The brute-force oracles scan every permutation, so they are for small n
only.  The rest are used by tests alone and are kept here, out of the
package.
"""

from itertools import permutations

from matroidc.canonical import (
    CanonicalKey,
    Permutation,
    apply_perm_mask,
    automorphism_generators,
    perm_compose,
    perm_identity,
    perm_sign,
)
from matroidc.classes import ClassVector, normalize
from matroidc.complexes import ALL, DifferentialKind, Report, apply_differential, chain_basis
from matroidc.errors import ExchangeViolation, ParseError
from matroidc.linalg import MM_HEADER, SparseIntMatrix
from matroidc.matroid import Matroid, _bit_positions


def automorphisms_bruteforce(m: Matroid) -> list[Permutation]:
    """All automorphisms by scanning every permutation; small n only."""
    base_set = set(m.bases)
    out = []
    for p in permutations(range(1, m.n + 1)):
        if all(apply_perm_mask(b, p) in base_set for b in m.bases):
            out.append(p)
    return out


def has_odd_automorphism_bruteforce(m: Matroid) -> bool:
    base_set = set(m.bases)
    for p in permutations(range(1, m.n + 1)):
        if perm_sign(p) == 1:
            continue
        if all(apply_perm_mask(b, p) in base_set for b in m.bases):
            return True
    return False


def automorphism_group(m: Matroid) -> list[Permutation]:
    """The full automorphism group, closed over the generating set."""
    gens = automorphism_generators(m)
    ident = perm_identity(m.n)
    group = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = perm_compose(h, g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return sorted(group)


def mu_sign(m: Matroid, x: int, target: CanonicalKey) -> int:
    """Relabeling sign identifying m\\x with the chosen representative.

    Zero when the deletion is not isomorphic to the target.  Well-defined
    whenever the target has no odd automorphism.
    """
    nz = normalize(m.delete(x))
    if nz is None or nz[0] != target:
        return 0
    return nz[1]


def has_series_pair(m: Matroid) -> bool:
    return m.dual().has_parallel_pair()


def transpose(mat: SparseIntMatrix) -> SparseIntMatrix:
    return SparseIntMatrix(
        mat.cols, mat.rows, {(j, i): v for (i, j), v in mat.entries.items()}
    )


def check_exchange_pairwise(bases: tuple[int, ...]) -> None:
    """Axiom (B2) tried pair by pair; the reference for check_exchange."""
    family = set(bases)
    for s in bases:
        for t in bases:
            if s == t:
                continue
            rest = t & ~s
            for i in _bit_positions(s & ~t):
                base = s & ~(1 << i)
                for j in _bit_positions(rest):
                    if (base | (1 << j)) in family:
                        break
                else:
                    raise ExchangeViolation(s, t, i + 1)


def from_triples(rows, cols, triples) -> SparseIntMatrix:
    e = {}
    for i, j, v in triples:
        if (i, j) in e:
            raise ValueError(f"duplicate entry ({i},{j})")
        e[(i, j)] = v
    return SparseIntMatrix(rows, cols, e)


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
    return from_triples(rows, cols, triples)


def verify_bidegrees(max_n: int, source) -> Report:
    """Each single kind lowers the grade it does not keep, on every basis class."""
    rep = Report([])
    for kind in DifferentialKind:
        if kind.grade_kept is None:
            continue
        dk, dr = (-1, 0) if kind.grade_kept == "rank" else (0, -1)
        ok = True
        for n in range(1, max_n + 1):
            for key in chain_basis(n, ALL, source).keys:
                k0, r0 = key.bidegree
                image = apply_differential(kind, ClassVector({key: 1}))
                for ckey in image.terms:
                    if ckey.bidegree != (k0 + dk, r0 + dr):
                        ok = False
        rep.record(ok, f"bidegree {kind.value}", f"n<={max_n}")
    return rep


def is_prime_64(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 2**64."""
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
