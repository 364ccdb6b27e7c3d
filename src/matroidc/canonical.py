"""Canonical labeling, isomorphism witnesses and automorphism signs.

The canonical form of a matroid is the relabeling whose sorted basis-mask
sequence is lexicographically minimal over all n! relabelings.  Minimizing
the sorted mask sequence is the same as maximizing the indicator vector of
the basis family over all r-subsets taken in ascending mask order, and that
ordering is colex: every r-subset of {1..t} precedes any r-subset touching
an element beyond t.  The search therefore extends a partial relabeling one
element at a time, comparing the block of newly determined indicator bits
against the best known labeling and pruning:

  * candidates whose block falls below the incumbent are cut immediately;
  * candidates equivalent to an already-explored sibling under a discovered
    automorphism (fixing the chosen prefix pointwise) are skipped.

Every fully-equal leaf yields an automorphism, and the set discovered this
way generates the whole group, so after the search we know both the
canonical key and whether some automorphism is odd.  Detecting an odd
automorphism is what decides whether an oriented class survives, so that
flag is carried on the key itself.

One search also answers the canonical representative.  A search on m
returns a witness sigma with R = relabel(m, sigma); the result for R is the
same key, the identity witness and the generators sigma psi sigma^-1, which
generate Aut(R).  It is stored until the first lookup of R, so a census
record and the representative built from its key cost one search, not two.
Signs do not change: when the class has no odd automorphism any two
witnesses onto R differ by an even automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .matroid import Matroid

Permutation = tuple[int, ...]  # images of 1..n, 1-based


def perm_sign(p: Permutation) -> int:
    """Parity of a permutation given as a tuple of 1-based images."""
    n = len(p)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_compose(f: Permutation, g: Permutation) -> Permutation:
    """(f o g)(x) = f(g(x))."""
    return tuple(f[g[i] - 1] for i in range(len(f)))


def apply_perm_mask(mask: int, p: Permutation) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << (p[i] - 1)
        mask >>= 1
        i += 1
    return out


def relabel(m: Matroid, p: Permutation) -> Matroid:
    return Matroid(m.n, m.r, tuple(sorted(apply_perm_mask(b, p) for b in m.bases)))


@dataclass(frozen=True)
class CanonicalKey:
    """Isomorphism-class fingerprint: canonical basis family plus parity flag."""

    n: int
    r: int
    masks: tuple[int, ...]
    odd_auto: bool

    @property
    def encoding(self) -> bytes:
        head = bytes((self.n, self.r))
        return head + b"".join(m.to_bytes(2, "big") for m in self.masks)

    def matroid(self) -> Matroid:
        return Matroid(self.n, self.r, self.masks)

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.n - self.r, self.r)

    def __repr__(self):
        flag = "-" if self.odd_auto else "+"
        return f"Key(n={self.n},r={self.r},{flag},{list(self.masks)})"


@lru_cache(maxsize=None)
def _colex_combos(k: int, j: int) -> tuple[tuple[int, ...], ...]:
    combos = list(combinations(range(k), j))
    combos.sort(key=lambda c: sum(1 << i for i in c))
    return tuple(combos)


class _CanonResult:
    __slots__ = ("key", "witness", "generators")

    def __init__(self, key, witness, generators):
        self.key = key
        self.witness = witness
        self.generators = generators


def _search(n: int, r: int, bases_set: frozenset) -> tuple[Permutation, bool, list]:
    """Return (witness to the canonical labeling, odd flag, automorphism gens).

    The witness sigma satisfies: relabeling by sigma yields the canonical
    representative.  Generators are 0-based image tuples over range(n).
    """
    combos_by_depth = [_colex_combos(d, r - 1) if r >= 1 else () for d in range(n)]

    # Seed the incumbent with the identity labeling; it is a genuine leaf,
    # so equality against it already certifies an automorphism.
    best: list[int] = []
    for depth in range(n):
        obit = 1 << depth
        val = 0
        for combo in combos_by_depth[depth]:
            mm = obit
            for p in combo:
                mm |= 1 << p
            val = (val << 1) | (1 if mm in bases_set else 0)
        best.append(val)

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

        combos = combos_by_depth[depth]
        orvals = []
        for combo in combos:
            mm = 0
            for p in combo:
                mm |= 1 << order[p]
            orvals.append(mm)

        cands = []
        for e in range(n):
            if used[e]:
                continue
            obit = 1 << e
            val = 0
            for mm in orvals:
                val = (val << 1) | (1 if (mm | obit) in bases_set else 0)
            cands.append((-val, e))
        cands.sort()

        done: list[int] = []
        uf: list[int] | None = None
        uf_autos = -1

        def same_orbit(a: int, b: int) -> bool:
            nonlocal uf, uf_autos
            if not autos:
                return False
            if uf is None or uf_autos != len(autos):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                prefix = order[:depth]
                for psi in autos:
                    if all(psi[e] == e for e in prefix):
                        for x in range(n):
                            rx, ry = find(x), find(psi[x])
                            if rx != ry:
                                parent[ry] = rx
                uf = [0] * n
                for x in range(n):
                    uf[x] = find(x)
                uf_autos = len(autos)
            return uf[a] == uf[b]

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
            if any(same_orbit(e, d) for d in done):
                continue
            done.append(e)
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


# Results for canonical representatives, answered by the search on an
# isomorphic input and popped by the first _canon call on the representative.
_representatives: dict[Matroid, _CanonResult] = {}


@lru_cache(maxsize=None)
def _canon(m: Matroid) -> _CanonResult:
    n, r = m.n, m.r
    if n == 0:
        key = CanonicalKey(0, 0, (0,), False)
        return _CanonResult(key, (), [])
    if r == 0 or r == n:
        # All-loop or all-coloop matroids: a single basis, full symmetric
        # automorphism group.
        masks = (0,) if r == 0 else ((1 << n) - 1,)
        gens = []
        if n >= 2:
            gens = [_adjacent_transposition(n, i) for i in range(n - 1)]
        key = CanonicalKey(n, r, masks, n >= 2)
        return _CanonResult(key, perm_identity(n), gens)
    stored = _representatives.pop(m, None)
    if stored is not None:
        return stored
    witness, odd, autos = _search(n, r, frozenset(m.bases))
    canon = relabel(m, witness)
    key = CanonicalKey(n, r, canon.bases, odd)
    gens = [tuple(v + 1 for v in psi) for psi in autos]
    if canon != m:
        # sigma maps Aut(m) onto Aut(canon) by conjugation: psi fixes the
        # bases of m, so sigma psi sigma^-1 fixes the bases of canon.
        inv = perm_inverse(witness)
        _representatives[canon] = _CanonResult(
            key,
            perm_identity(n),
            [perm_compose(witness, perm_compose(g, inv)) for g in gens],
        )
    return _CanonResult(key, witness, gens)


def _adjacent_transposition(n: int, i: int) -> Permutation:
    p = list(range(1, n + 1))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def canonical_form(m: Matroid) -> tuple[CanonicalKey, Permutation]:
    """Canonical key plus a witness relabeling onto the representative."""
    res = _canon(m)
    return res.key, res.witness


def canonical_key(m: Matroid) -> CanonicalKey:
    return _canon(m).key


def has_odd_automorphism(m: Matroid) -> bool:
    return _canon(m).key.odd_auto


def automorphism_generators(m: Matroid) -> list[Permutation]:
    """A generating set for Aut(m); the identity is omitted."""
    return list(_canon(m).generators)


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


def iso_witness(m1: Matroid, m2: Matroid) -> Permutation | None:
    """A basis-preserving bijection m1 -> m2, or None.

    When m2 has no odd automorphism the sign of the returned witness does
    not depend on which witness is picked: any two differ by an even
    automorphism.
    """
    if m1.n != m2.n or m1.r != m2.r or len(m1.bases) != len(m2.bases):
        return None
    r1 = _canon(m1)
    r2 = _canon(m2)
    if r1.key != r2.key:
        return None
    return perm_compose(perm_inverse(r2.witness), r1.witness)


# -- independent oracles -------------------------------------------------


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
