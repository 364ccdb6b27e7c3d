"""Matroids stored as basis families over a bitmask ground set.

Elements are 1..n and element j occupies bit j-1 of a basis mask, so a
basis family is a strictly sorted tuple of n-bit integers, and it is the
only representation: independent sets are the subsets of bases.  Every
deletion, contraction, restriction and minor comes from one kernel,
`Matroid.minor`, which takes one pass over the bases.  The basis-exchange
table, from each independent (r-1)-set to the elements completing it to a
basis, comes from `_completions` alone, and what reads it needs no
canonical key.  `check_exchange` ORs over each entry's completions the
mask of basis indices holding each, so (B2) is one test per entry.  The
clone-pair test looks in the table for a transposition fixing the bases.
`_fundamental_columns` reads off it which elements complete the first
basis less each of its elements; the binary test takes those columns as
the only candidate GF(2) representation, and `components` as the
fundamental graph, whose connected parts are the direct summands.  The
other minor-closed tags search the canonical representative for excluded
minors, behind a binary gate for regular, graphic and cographic, which
then need only the minors that binary matroids can have.  All operations
return new Matroid values; nothing is mutated after construction.  The
bitmask width is capped at 16 elements, which covers every census this
engine is expected to ingest.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import (
    BadPopcount,
    BitOutOfRange,
    ElementOutOfRange,
    EmptyBases,
    ExchangeViolation,
    InvalidGenus,
    InvalidRank,
    RaggedMatrix,
)

MAX_ELEMENTS = 16


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _squeeze(masks, keep: int) -> tuple[int, ...]:
    """Sorted distinct masks with the bits of `keep` moved down to 0, 1, ...

    Bits outside `keep` must already be clear.  A run of adjacent kept bits
    moves by one shift, so each mask takes one shift per run.
    """
    runs, dest = [], 0
    while keep:
        low = keep & -keep
        run = keep & ~(keep + low)
        shift = low.bit_length() - 1 - dest
        dest += run.bit_count()
        runs.append((shift, run >> shift))
        keep ^= run
    out = set()
    for b in masks:
        o = 0
        for shift, block in runs:
            o |= b >> shift & block
        out.add(o)
    return tuple(sorted(out))


def _partition_roots(n: int, pairs, start=None) -> list[int]:
    """For each point of range(n), the smallest member of its class in the
    finest partition that joins both points of every pair.

    `start`, an earlier result, continues that partition: the pairs are
    merged into its classes rather than into singletons."""
    root = list(range(n) if start is None else start)

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    return [find(x) for x in range(n)]


def _completions(bases) -> dict[int, int]:
    """Each independent (r-1)-set I, mapped to the mask of the elements x
    for which I + x is a basis.  Rank 0 gives an empty table."""
    out: dict[int, int] = {}
    for b in bases:
        rest = b
        while rest:
            low = rest & -rest
            out[b ^ low] = out.get(b ^ low, 0) | low
            rest ^= low
    return out


def check_exchange(bases: tuple[int, ...]) -> None:
    """Raise ExchangeViolation unless the family satisfies axiom (B2).

    A basis t fails exchange with s at i when it avoids every element that
    completes s - i in `_completions`, so each entry ORs the basis-index
    masks of the holders of its completions; the bases left out miss it.
    When some entry is missed, the bases s are walked in order: the lowest
    index missing some s - i is the first failing t, and x is the first such
    i in bit order, so the violation is the first in (s, t, i) order.
    """
    holders: dict[int, int] = {}
    for j, b in enumerate(bases):
        while b:
            low = b & -b
            holders[low] = holders.get(low, 0) | 1 << j
            b ^= low
    everyone = (1 << len(bases)) - 1
    missed = {}
    for rest, wit in _completions(bases).items():
        hit = 0
        while wit:
            low = wit & -wit
            hit |= holders[low]
            wit ^= low
        if hit != everyone:
            missed[rest] = everyone ^ hit
    if not missed:
        return
    for s in bases:
        firsts = [(m & -m, i) for i in _bit_positions(s) if (m := missed.get(s ^ 1 << i))]
        if firsts:
            t, x = min(firsts)
            raise ExchangeViolation(s, bases[t.bit_length() - 1], x + 1)


class Matroid:
    """A matroid on ground set [n] given by its basis family."""

    __slots__ = ("n", "r", "bases", "_hash")

    def __init__(self, n: int, r: int, bases: tuple[int, ...]):
        # Internal constructor: trusts its arguments.  Use from_bases for
        # validated construction from outside data.
        self.n = n
        self.r = r
        self.bases = bases
        self._hash = hash((n, r, bases))

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r}, {len(self.bases)} bases)"

    # -- basic invariants ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def loops_mask(self) -> int:
        used = 0
        for b in self.bases:
            used |= b
        return self.full_mask & ~used

    def coloops_mask(self) -> int:
        common = self.full_mask
        for b in self.bases:
            common &= b
        return common

    def loops(self) -> set[int]:
        return {i + 1 for i in _bit_positions(self.loops_mask())}

    def coloops(self) -> set[int]:
        return {i + 1 for i in _bit_positions(self.coloops_mask())}

    def is_loopless(self) -> bool:
        return self.loops_mask() == 0

    def is_simple(self) -> bool:
        return not self.loops_mask() and not self.has_parallel_pair()

    def has_clone_pair(self) -> bool:
        """Whether some transposition (e f) maps the bases onto themselves.

        The swap fixes every basis holding both or neither of e and f, and
        sends I + e to I + f for an (r-1)-set I avoiding both.  So it is an
        automorphism exactly when, for every independent (r-1)-set I that
        avoids e and f, both complete I to a basis or neither does; it reads
        the exchange table and needs no canonical key.  Two loops, two
        coloops, a parallel or series pair and any two elements of U(r,n)
        are clones.  A transposition is odd, so such a class is zero.
        """
        table = _completions(self.bases).items()
        for f in range(1, self.n):
            for e in range(f):
                pair = 1 << e | 1 << f
                if all(rest & pair or c & pair in (0, pair) for rest, c in table):
                    return True
        return False

    def has_parallel_pair(self) -> bool:
        """Whether two non-loops lie in no common basis."""
        ground = self.full_mask & ~self.loops_mask()
        return any(
            not any(b & pair == pair for b in self.bases)
            for pair in _subset_masks(ground, 2)
        )

    # -- independence ----------------------------------------------------

    def rank_of(self, subset_mask: int) -> int:
        # Maximal independent subsets of S all arise as B & S for a basis B.
        return max((b & subset_mask).bit_count() for b in self.bases)

    def independent_sets(self, size: int) -> list[int]:
        """The independent sets of the given size, in _subset_masks order;
        they are the subsets of bases."""
        found = {s for b in self.bases for s in _subset_masks(b, size)}
        return [s for s in _subset_masks(self.full_mask, size) if s in found]

    def _fundamental_columns(self) -> list[int]:
        """For each element e, the mask with bit k set when e completes B - b_k
        to a basis, where B = {b_0 < b_1 < ...} is the first basis.  Each b_k
        has bit k alone; a loop has none."""
        table = _completions(self.bases)
        basis = self.bases[0]
        cols = [0] * self.n
        for k, b in enumerate(_bit_positions(basis)):
            for e in _bit_positions(table[basis & ~(1 << b)]):
                cols[e] |= 1 << k
        return cols

    # -- minors / duality ----------------------------------------------------

    def minor(self, contract: int, delete: int) -> "Matroid":
        """M / C \\ D for disjoint element masks C and D.

        The bases of M / C are B - C for the bases B meeting C in rank_of(C)
        elements; deleting D then keeps the largest of their cuts to the
        remaining elements.  Those are squeezed down to bits 0, 1, ...
        """
        full = self.full_mask
        if (contract | delete) & ~full or contract & delete:
            raise ElementOutOfRange(
                f"masks {contract:#x} and {delete:#x} are not disjoint subsets of [{self.n}]"
            )
        keep = full & ~(contract | delete)
        bases = self.bases
        if contract:
            k = self.rank_of(contract)
            bases = [b for b in bases if (b & contract).bit_count() == k]
        cuts = {b & keep for b in bases}
        r = max(map(int.bit_count, cuts))
        if delete:
            cuts = [c for c in cuts if c.bit_count() == r]
        return Matroid(keep.bit_count(), r, _squeeze(cuts, keep))

    def _element_mask(self, elements) -> int:
        mask = 0
        for x in elements:
            if not 1 <= x <= self.n:
                raise ElementOutOfRange(f"element {x} not in [{self.n}]")
            mask |= 1 << (x - 1)
        return mask

    def delete(self, x: int) -> "Matroid":
        return self.minor(0, self._element_mask((x,)))

    def contract(self, x: int) -> "Matroid":
        return self.minor(self._element_mask((x,)), 0)

    def restrict(self, elements) -> "Matroid":
        """Restriction to a subset, i.e. deletion of its complement."""
        return self.minor(0, self.full_mask & ~self._element_mask(elements))

    def contract_set(self, elements) -> "Matroid":
        return self.minor(self._element_mask(elements), 0)

    def dual(self) -> "Matroid":
        full = self.full_mask
        new = sorted(full ^ b for b in self.bases)
        return Matroid(self.n, self.n - self.r, tuple(new))

    def direct_sum(self, other: "Matroid") -> "Matroid":
        shift = self.n
        new = sorted(
            b | (c << shift) for b in self.bases for c in other.bases
        )
        return Matroid(self.n + other.n, self.r + other.r, tuple(new))

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[set[int]]:
        """Finest partition of the ground set into direct summands.

        They are the connected parts of the fundamental graph of the first
        basis B, which joins b in B to each e for which B - b + e is a basis
        (Oxley, Matroid Theory); loops and coloops end up as singletons.
        """
        inside = _bit_positions(self.bases[0])
        roots = _partition_roots(self.n, (
            (inside[k], e) for e, col in enumerate(self._fundamental_columns())
            for k in _bit_positions(col)
        ))
        groups: dict[int, set[int]] = {}
        for i, root in enumerate(roots):
            groups.setdefault(root, set()).add(i + 1)
        return list(groups.values())

    def is_connected(self) -> bool:
        """Per the convention here, the empty matroid is not connected."""
        return self.n >= 1 and len(self.components()) == 1

    # -- minors and representability ---------------------------------------

    def minors(self, n_target: int, r_target: int):
        """Yield all minors with the given size and rank, as Matroid values."""
        k = self.r - r_target
        if k < 0 or n_target < 0 or n_target > self.n - k:
            return
        d = self.n - k - n_target
        for cmask in self.independent_sets(k):
            contracted = self.minor(cmask, 0)
            # highest labels first: has_minor stops at its first match, so
            # this order fixes how many minors it tests
            for dmask in _subset_masks(contracted.full_mask, d, descending=True):
                m = contracted.minor(0, dmask)
                if m.r == r_target:
                    yield m

    def has_minor(self, pattern: "Matroid") -> bool:
        from .canonical import canonical_form

        want = canonical_form(pattern)[0]
        count = len(pattern.bases)
        for m in self.minors(pattern.n, pattern.r):
            # Isomorphism preserves the basis count, so most minors are
            # ruled out without a canonical search; a repeated minor is a
            # cache hit in canonical_form.
            if len(m.bases) == count and canonical_form(m)[0] == want:
                return True
        return False

    def is_binary(self) -> bool:
        """Whether M is representable over GF(2); no key or minor is needed.

        Row operations bring any GF(2) representation of M to the form
        [I | D] on the first basis B, and then an entry of D is nonzero
        exactly when the basis exchange it stands for exists.  So the
        columns of `_fundamental_columns` are M's only candidate
        representation (Brylawski & Lucas 1976), and M is binary
        exactly when its bases are their independent r-sets.
        """
        family = set(self.bases)
        count = 0
        for s in _f2_bases(self._fundamental_columns(), self.r):
            if s not in family:
                return False
            count += 1
        return count == len(family)

    def is_ternary(self) -> bool:
        return _property_cached(self, "ternary")

    # Tutte: regular is binary with no F7 or F7* minor, and graphic
    # (cographic) is regular with no M*(K5) or M*(K3,3) (M(K5) or M(K3,3)).
    def is_regular(self) -> bool:
        return self.is_binary() and _property_cached(self, "regular")

    def is_graphic(self) -> bool:
        return self.is_regular() and _property_cached(self, "graphic")

    def is_cographic(self) -> bool:
        return self.is_regular() and _property_cached(self, "cographic")


def _subset_masks(ground: int, size: int, descending: bool = False):
    """The size-element subsets of the mask `ground`, in the order
    itertools.combinations takes them from its elements listed ascending
    (or descending)."""
    bits = [1 << i for i in _bit_positions(ground)]
    if descending:
        bits.reverse()
    return map(sum, combinations(bits, size))


# -- validated constructors ----------------------------------------------


def from_bases(n: int, r: int, bases) -> Matroid:
    """Build a matroid after checking rank, (B1), bit range, popcounts and (B2)."""
    if n < 0 or n > MAX_ELEMENTS:
        raise BitOutOfRange(f"ground set size {n} outside 0..{MAX_ELEMENTS}")
    if r < 0 or r > n:
        raise InvalidRank(f"rank {r} outside 0..{n}")
    fam = sorted(set(int(b) for b in bases))
    if not fam:
        raise EmptyBases("a matroid needs at least one basis")
    full = (1 << n) - 1
    for b in fam:
        if b & ~full:
            raise BitOutOfRange(f"basis {b:#x} uses bits outside [{n}]")
        if b.bit_count() != r:
            raise BadPopcount(f"basis {b:#x} has size {b.bit_count()}, not {r}")
    fam = tuple(fam)
    check_exchange(fam)
    return Matroid(n, r, fam)


def uniform(r: int, n: int) -> Matroid:
    if not 0 <= r <= n:
        raise InvalidRank(f"uniform({r},{n}) needs 0 <= r <= n")
    if n > MAX_ELEMENTS:
        raise BitOutOfRange(f"ground set size {n} outside 0..{MAX_ELEMENTS}")
    return Matroid(n, r, tuple(sorted(_subset_masks((1 << n) - 1, r))))


EMPTY = Matroid(0, 0, (0,))


class Graph:
    """Undirected multigraph; the edge list order labels the matroid."""

    __slots__ = ("v", "edges")

    def __init__(self, v: int, edges):
        self.v = v
        self.edges = tuple((int(a), int(b)) for a, b in edges)
        for a, b in self.edges:
            if not (1 <= a <= v and 1 <= b <= v):
                raise ElementOutOfRange(f"edge ({a},{b}) outside 1..{v}")

    def __repr__(self):
        return f"Graph(v={self.v}, e={len(self.edges)})"


def wheel(g: int) -> Graph:
    """Wheel of genus g: hub 1, rim 2..g+1; spokes first, then rim edges.

    wheel(1) degenerates to a spoke plus a rim loop and wheel(2) has a
    doubled rim edge; both are constructed as-is.
    """
    if g < 1:
        raise InvalidGenus(f"wheel genus must be >= 1, got {g}")
    spokes = [(1, 1 + i) for i in range(1, g + 1)]
    rim = [(1 + i, 1 + (i % g) + 1) for i in range(1, g + 1)]
    return Graph(g + 1, spokes + rim)


def complete_graph(v: int) -> Graph:
    return Graph(v, list(combinations(range(1, v + 1), 2)))


def graphic(g: Graph) -> Matroid:
    """Column matroid of the graph: bases are maximal spanning forests."""
    ne = len(g.edges)
    if ne > MAX_ELEMENTS:
        raise BitOutOfRange(f"too many edges ({ne}) for the mask width")

    def classes(edges) -> int:
        # vertex 0 is unused, so it is always a class of its own
        return len(set(_partition_roots(g.v + 1, edges)))

    rank = g.v + 1 - classes(g.edges)
    bases = [
        m
        for m in _subset_masks((1 << ne) - 1, rank)
        if classes([g.edges[i] for i in _bit_positions(m)]) == g.v + 1 - rank
    ]
    return Matroid(ne, rank, tuple(sorted(bases)))


def from_f2_matrix(rows) -> Matroid:
    """Column matroid over F2 of a 0/1 matrix given as rows."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise RaggedMatrix("need at least one row and one column")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise RaggedMatrix("rows have differing lengths")
    if width > MAX_ELEMENTS:
        raise BitOutOfRange(f"too many columns ({width}) for the mask width")
    cols = []
    for j in range(width):
        c = 0
        for i, row in enumerate(rows):
            if int(row[j]) & 1:
                c |= 1 << i
        cols.append(c)
    rank = len(_f2_reduce(cols))
    return Matroid(width, rank, tuple(sorted(_f2_bases(cols, rank))))


def _f2_reduce(vecs, pivots=()) -> list[int]:
    """The given pivots, then each vector reduced by the pivots before it,
    when that leaves it nonzero: a basis over GF(2) of their span.

    A pivot never holds the leading bit of an earlier one, so `min(v, v ^ p)`
    taken over the pivots in order leaves v zero exactly when v is in their
    span.
    """
    pivots = list(pivots)
    for v in vecs:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return pivots


def _f2_bases(cols: list[int], r: int):
    """Yield the masks of the r-sets of columns, given as bit vectors, that
    are independent over GF(2).

    A depth-first search adds columns in index order and stops at the first
    dependent one, so each independent set is reduced once.
    """
    stack = [(0, 0, [])]
    while stack:
        start, mask, pivots = stack.pop()
        if len(pivots) == r:
            yield mask
            continue
        for j in range(start, len(cols) - (r - len(pivots)) + 1):
            grown = _f2_reduce((cols[j],), pivots)
            if len(grown) > len(pivots):
                stack.append((j + 1, mask | 1 << j, grown))


def fano() -> Matroid:
    """F7: columns are all nonzero vectors of F2^3."""
    cols = [1, 2, 3, 4, 5, 6, 7]
    rows = [[(c >> i) & 1 for c in cols] for i in range(3)]
    return from_f2_matrix(rows)


@lru_cache(maxsize=None)
def _excluded_minors(which: str) -> tuple[Matroid, ...]:
    """The excluded minors a keyed predicate searches for.

    Ternary takes all four of its own.  The others are searched only in
    matroids that passed the gate of their method: regular only in binary
    ones, so U(2,4) is left out, and graphic and cographic only in regular
    ones, so F7 and F7* are left out too.
    """
    if which == "ternary":
        return (uniform(2, 5), uniform(3, 5), fano(), fano().dual())
    if which == "regular":
        return (fano(), fano().dual())
    if which == "graphic":
        k5 = graphic(complete_graph(5))
        k33 = graphic(Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))
        return (k5.dual(), k33.dual())
    if which == "cographic":
        return tuple(m.dual() for m in _excluded_minors("graphic"))
    raise ValueError(which)


def _property_cached(m: Matroid, which: str) -> bool:
    from .canonical import canonical_form

    return _property_by_key(canonical_form(m)[0], which)


@lru_cache(maxsize=None)
def _property_by_key(key, which: str) -> bool:
    m = key.matroid()
    return not any(m.has_minor(x) for x in _excluded_minors(which))
