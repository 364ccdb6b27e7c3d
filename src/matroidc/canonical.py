"""Canonical labeling, isomorphism witnesses and automorphism signs.

The canonical form of a matroid is the relabeling whose sorted basis-mask
sequence is lexicographically minimal over all n! relabelings.  Minimizing
the sorted mask sequence is the same as maximizing the indicator vector of
the basis family over all r-subsets taken in ascending mask order, and that
ordering is colex: every r-subset of {1..t} precedes any r-subset touching
an element beyond t.  The search therefore extends a partial relabeling one
element at a time.  Giving label d to a candidate determines one block of
indicator bits, one per (r-1)-subset of the prefix in colex order, and the
search keeps only the candidates whose block is maximal:

  * one colex pass per node finds them.  `matroid._completions` maps each
    independent (r-1)-set to the mask of elements completing it to a basis;
    the pass keeps a mask of the candidates still tied for the maximal
    block, narrows it at every subset some of them complete, and writes a
    1 there and a 0 elsewhere;
  * a node's (r-1)-subsets are its parent's followed by those holding the
    newest label, so the pass scans the completion masks its parent looked
    up and looks up only the new subsets;
  * the pass stops as soon as the block's prefix falls below the
    incumbent's, which cuts the whole node;
  * the maximal candidates are tried in ascending element order, skipping
    any in the orbit of an already-explored sibling under the discovered
    automorphisms fixing the chosen prefix pointwise.  A node merges each
    such automorphism into its orbits once, as it arrives, through
    `matroid._partition_roots`.

The first leaf reached is the incumbent, and every later leaf that ties it
yields a new automorphism (McKay & Piperno 2014).  The set discovered this
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

from functools import lru_cache
from itertools import chain, combinations

from .matroid import Matroid, _completions, _partition_roots

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


class CanonicalKey:
    """Isomorphism-class fingerprint: canonical basis family plus parity flag.

    Two keys are equal when all four fields are; the hash is that of the
    field tuple.
    """

    __slots__ = ("n", "r", "masks", "odd_auto")

    def __init__(self, n: int, r: int, masks: tuple[int, ...], odd_auto: bool):
        self.n = n
        self.r = r
        self.masks = masks
        self.odd_auto = odd_auto

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.r, self.masks, self.odd_auto) == (
            other.n, other.r, other.masks, other.odd_auto
        )

    def __hash__(self):
        return hash((self.n, self.r, self.masks, self.odd_auto))

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
    if j < 0:
        return ()
    combos = list(combinations(range(k), j))
    combos.sort(key=lambda c: sum(1 << i for i in c))
    return tuple(combos)


def _fresh_rests(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The (r-1)-subsets of positions a node at depth d scans beyond its
    parent's, each without position d - 1.

    For d >= 1 the node's subsets are the parent's _colex_combos(d - 1, r - 1)
    followed by rest + (d - 1,) for each rest here, in order.  The root has
    no parent and no position d - 1: it scans _colex_combos(0, r - 1).
    """
    return _colex_combos(0, r - 1) if d == 0 else _colex_combos(d - 1, r - 2)


class _CanonResult:
    __slots__ = ("key", "witness", "generators")

    def __init__(self, key, witness, generators):
        self.key = key
        self.witness = witness
        self.generators = generators


def _search(n: int, r: int, bases: tuple[int, ...]) -> tuple[Permutation, bool, list]:
    """Return (witness to the canonical labeling, odd flag, automorphism gens).

    The witness sigma satisfies: relabeling by sigma yields the canonical
    representative.  Generators are 0-based image tuples over range(n).
    """
    completions = _completions(bases)
    rests = [_fresh_rests(d, r) for d in range(n)]
    sizes = [len(_colex_combos(d, r - 1)) for d in range(n)]
    inherited = [0] + sizes[:-1]
    # cols[i]: the completion mask of the i-th (r-1)-subset of the current
    # prefix's positions in colex order.  A node at depth d keeps its
    # parent's inherited[d] entries and writes its fresh ones after them;
    # the entries of a node that is cut are never read.
    cols: list[int] = []

    def column(order, depth: int, avail: int, ref: int) -> tuple[int, int]:
        """(block, winners): the maximal block over the candidates in `avail`
        given label `depth` after `order`, and the mask of those attaining it.

        The winners are 0 once the block's prefix falls below `ref`."""
        del cols[inherited[depth]:]
        val = 0
        shift = sizes[depth]
        for c in cols:
            shift -= 1
            c &= avail
            if c:
                avail = c
                val = val << 1 | 1
            else:
                val <<= 1
                if val < ref >> shift:
                    return val, 0
        last = 1 << order[depth - 1] if depth else 0
        for rest in rests[depth]:
            mm = last
            for p in rest:
                mm |= 1 << order[p]
            c = completions.get(mm, 0)
            cols.append(c)
            shift -= 1
            c &= avail
            if c:
                avail = c
                val = val << 1 | 1
            else:
                val <<= 1
                if val < ref >> shift:
                    return val, 0
        return val, avail

    best = [-1] * n  # every block beats -1
    best_witness: list[int] = []  # 0-based: element i -> label best_witness[i]
    autos: list[tuple[int, ...]] = []
    # moves[i]: the mask of the points autos[i] moves, and the pairs (p, psi(p)) there
    moves: list[tuple[int, tuple]] = []
    odd = False

    order: list[int] = []
    unused = (1 << n) - 1

    def dfs(depth: int, improved_edge: bool) -> None:
        nonlocal best_witness, odd, unused
        if depth == n:
            if improved_edge:
                best_witness = [0] * n
                for i, e in enumerate(order):
                    best_witness[e] = i
            else:
                # order achieves the same maximum as best_witness: the
                # discrepancy is an automorphism of the input.
                psi = tuple(order[best_witness[e]] for e in range(n))
                autos.append(psi)
                pairs = tuple((p, q) for p, q in enumerate(psi) if p != q)
                moves.append((sum(1 << p for p, _ in pairs), pairs))
                # The group has an odd element iff a generator is odd.
                if perm_sign(tuple(v + 1 for v in psi)) < 0:
                    odd = True
            return

        ref = best[depth]
        val, winners = column(order, depth, unused, ref)
        if not winners:
            return
        improved = val > ref

        # Every winner has the same block, so only the first can improve;
        # they are walked in ascending element order.  Once a second winner
        # passes, the automorphisms found since the node last looked that
        # fix the prefix (move no used element) are merged into its orbits.
        tried: set[int] = set()
        roots, seen = range(n), 0  # seen: len(autos) when the node last looked
        while winners:
            low = winners & -winners
            winners ^= low
            e = low.bit_length() - 1
            if tried and seen != len(autos):
                fixing = [pairs for mask, pairs in moves[seen:] if not mask & ~unused]
                seen = len(autos)
                if fixing:
                    roots = _partition_roots(n, chain.from_iterable(fixing), roots)
                    tried = {roots[t] for t in tried}
            root = roots[e]
            if root in tried:
                continue
            tried.add(root)
            if improved:
                best[depth:] = [val] + [-1] * (n - 1 - depth)
            order.append(e)
            unused ^= low
            # An improvement resets best below this depth to -1, so every
            # deeper edge on that descent beats it and re-raises the flag;
            # passing only this edge's flag therefore still marks champion
            # leaves correctly, while equal siblings inside a rebuilt
            # subtree count as ties.
            dfs(depth + 1, improved)
            order.pop()
            unused ^= low
            improved = False

    dfs(0, True)  # the first leaf is the incumbent, the empty one too at n = 0
    del dfs  # dfs refers to itself through its closure; free it on return
    witness = tuple(lab + 1 for lab in best_witness)
    return witness, odd, autos


# Results for canonical representatives, answered by the search on an
# isomorphic input and popped by the first _canon call on the representative.
_representatives: dict[Matroid, _CanonResult] = {}


@lru_cache(maxsize=None)
def _canon(m: Matroid) -> _CanonResult:
    stored = _representatives.pop(m, None)
    if stored is not None:
        return stored
    witness, odd, autos = _search(m.n, m.r, m.bases)
    canon = relabel(m, witness)
    key = CanonicalKey(m.n, m.r, canon.bases, odd)
    gens = [tuple(v + 1 for v in psi) for psi in autos]
    if canon != m:
        # sigma maps Aut(m) onto Aut(canon) by conjugation: psi fixes the
        # bases of m, so sigma psi sigma^-1 fixes the bases of canon.
        inv = perm_inverse(witness)
        _representatives[canon] = _CanonResult(
            key,
            perm_identity(m.n),
            [perm_compose(witness, perm_compose(g, inv)) for g in gens],
        )
    return _CanonResult(key, witness, gens)


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
