"""Reference implementations and test-only helpers.

The brute-force oracles scan every permutation, so they are for small n
only.  The rest are used by tests alone and are kept here, out of the
package.
"""

from itertools import chain, combinations, permutations

from matroidc.canonical import (
    CanonicalKey,
    Permutation,
    _colex_combos,
    apply_perm_mask,
    automorphism_generators,
    canonical_key,
    perm_compose,
    perm_identity,
    perm_sign,
)
from matroidc.classes import ClassVector, normalize
from matroidc.complexes import ALL, DifferentialKind, Report, apply_differential, chain_basis
from matroidc.errors import ExchangeViolation, ParseError
from matroidc.enumerate import _classes, _exchange_families
from matroidc.hopf import _shuffle_sign
from matroidc.linalg import MM_HEADER, SparseIntMatrix
from matroidc.matroid import (
    EMPTY,
    Graph,
    Matroid,
    _bit_positions,
    _partition_roots,
    _subset_masks,
    complete_graph,
    fano,
    graphic,
    uniform,
)


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


def coproduct_direct(key: CanonicalKey) -> ClassVector:
    """The coproduct of [key] summed over every subset S afresh, with no table:
    [M|S] tensor [M/S] times the sign of the shuffle putting S first."""
    m = key.matroid()
    terms = []
    for smask in range(1 << m.n):
        left = normalize(m.minor(0, m.full_mask & ~smask))
        right = normalize(m.minor(smask, 0))
        if left is None or right is None:
            continue
        sign = _shuffle_sign(smask, m.n) * left[1] * right[1]
        terms.append(((left[0], right[0]), sign))
    return ClassVector.accumulate(terms)


def excluded_minors(which: str) -> tuple[Matroid, ...]:
    """The full excluded-minor list of a minor-closed tag: U(2,4) for binary
    and U(2,4), F7, F7* for regular (Tutte 1958), then M*(K5) and M*(K3,3)
    for graphic (Tutte 1959) and their duals for cographic; U(2,5), U(3,5),
    F7, F7* for ternary (Bixby 1979; Seymour 1979)."""
    u24, f7 = uniform(2, 4), fano()
    k5 = graphic(complete_graph(5))
    k33 = graphic(Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))
    return {
        "binary": (u24,),
        "ternary": (uniform(2, 5), uniform(3, 5), f7, f7.dual()),
        "regular": (u24, f7, f7.dual()),
        "graphic": (u24, f7, f7.dual(), k5.dual(), k33.dual()),
        "cographic": (u24, f7, f7.dual(), k5, k33),
    }[which]


def holds_by_excluded_minors(m: Matroid, which: str) -> bool:
    """The tag decided by searching m for every one of its excluded minors."""
    return not any(m.has_minor(x) for x in excluded_minors(which))


def has_clone_pair_bruteforce(m: Matroid) -> bool:
    """Whether some transposition maps the basis family onto itself."""
    base_set = set(m.bases)
    for e, f in combinations(range(m.n), 2):
        p = list(range(1, m.n + 1))
        p[e], p[f] = p[f], p[e]
        if {apply_perm_mask(b, p) for b in m.bases} == base_set:
            return True
    return False


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


def drop_pair(bases: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The family less bases[k] and the last basis sharing all but one of
    its elements.  Dropping bases[k] alone from U(r, n) leaves a matroid, in
    which it is a circuit-hyperplane; dropping both breaks (B2) at their
    common part."""
    x = bases[k]
    y = [b for b in bases if (b & x).bit_count() == x.bit_count() - 1][-1]
    return tuple(b for b in bases if b not in (x, y))


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


def _direct_search_rank(n: int, r: int):
    """All rank-r matroids on [n] containing the basis {1..r}, as families.

    Every isomorphism class has such a representative, so this is complete
    up to isomorphism.
    """
    cands = sorted(_subset_masks((1 << n) - 1, r))
    first = cands[0]  # the basis {1..r}
    for extra in _exchange_families((first,), cands[1:]):
        yield (first, *extra)


def enumerate_direct(n: int) -> list[Matroid]:
    """Direct-search enumeration of isomorphism classes; the slow oracle."""
    if n == 0:
        return [EMPTY]
    return list(_classes(
        canonical_key(Matroid(n, r, fam))
        for r in range(n + 1)
        for fam in _direct_search_rank(n, r)
    ))


def search_blockwise(n: int, r: int, bases_set: frozenset) -> tuple[Permutation, bool, list]:
    """Return (witness to the canonical labeling, odd flag, automorphism gens).

    The per-candidate block search that `canonical._search` replaced: each
    node scores every unused candidate and sorts them.  The reference the
    column-scan kernel is compared against.

    The witness sigma satisfies: relabeling by sigma yields the canonical
    representative.  Generators are 0-based image tuples over range(n).
    """
    combos_by_depth = [_colex_combos(d, r - 1) if r >= 1 else () for d in range(n)]

    def blocks(order, depth: int, elements) -> list[tuple[int, int]]:
        """(-block, e) for each e in elements given label `depth` after `order`."""
        orvals = []
        for combo in combos_by_depth[depth]:
            mm = 0
            for p in combo:
                mm |= 1 << order[p]
            orvals.append(mm)
        out = []
        for e in elements:
            obit = 1 << e
            val = 0
            for mm in orvals:
                val = (val << 1) | (1 if (mm | obit) in bases_set else 0)
            out.append((-val, e))
        return out

    # Seed the incumbent with the identity labeling; it is a genuine leaf,
    # so equality against it already certifies an automorphism.
    best = [-blocks(range(n), depth, (depth,))[0][0] for depth in range(n)]

    best_witness = list(range(n))  # 0-based: element i -> label best_witness[i]
    autos: list[tuple[int, ...]] = []
    auto_set: set[tuple[int, ...]] = set()
    odd = False

    order: list[int] = []
    used = [False] * n

    def dfs(depth: int, improved_edge: bool) -> None:
        nonlocal best_witness, odd
        if depth == n:
            if improved_edge:
                best_witness = [0] * n
                for i, e in enumerate(order):
                    best_witness[e] = i
            else:
                # order achieves the same maximum as best_witness: the
                # discrepancy is an automorphism of the input.
                psi = tuple(order[best_witness[e]] for e in range(n))
                if psi != tuple(range(n)) and psi not in auto_set:
                    auto_set.add(psi)
                    autos.append(psi)
                    # The group has an odd element iff a generator is odd.
                    if perm_sign(tuple(v + 1 for v in psi)) < 0:
                        odd = True
            return

        cands = blocks(order, depth, [e for e in range(n) if not used[e]])
        cands.sort()

        # Orbit roots under the found automorphisms fixing the prefix, taken
        # once a second sibling passes and again when automorphisms arrive.
        tried: set[int] = set()
        roots, rooted = range(n), 0  # rooted: len(autos) when roots was taken
        for negval, e in cands:
            val = -negval
            if len(best) > depth:
                if val < best[depth]:
                    break  # candidates are sorted by block, the rest are worse
                improved = val > best[depth]
            else:
                # First descent after an improvement shallower up: no
                # reference exists yet at this depth.
                improved = True
            if tried and rooted != len(autos):
                roots = _partition_roots(n, chain.from_iterable(
                    enumerate(psi) for psi in autos if all(psi[p] == p for p in order)
                ))
                rooted = len(autos)
                tried = {roots[t] for t in tried}
            root = roots[e]
            if root in tried:
                continue
            tried.add(root)
            if improved:
                del best[depth:]
                best.append(val)
            order.append(e)
            used[e] = True
            # An improvement truncates best, so every deeper edge on that
            # descent appends and re-raises the flag; passing only this
            # edge's flag therefore still marks champion leaves correctly,
            # while equal siblings inside a rebuilt subtree count as ties.
            dfs(depth + 1, improved)
            order.pop()
            used[e] = False

    dfs(0, False)
    witness = tuple(lab + 1 for lab in best_witness)
    return witness, odd, autos
