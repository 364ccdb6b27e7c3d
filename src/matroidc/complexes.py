"""Chain bases, deletion/contraction differentials, and homology tables.

A chain basis in degree n consists of the canonical keys of all matroids
on [n] that survive orientation (no odd automorphism) and satisfy the
requested property tags.  Tags that need no key are tested before the
canonical search, so a census record they reject is never searched, and
neither is one whose class a clone pair makes zero.
Differential matrices carry the two signs of the basis formula: the
interior-product sign (-1)^(i-1) of the deleted or contracted element, and
the relabeling sign that moves the child back onto its canonical
representative.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .canonical import CanonicalKey
from .classes import ClassVector, normalize
from .errors import InvalidSpec, PropertyNotDualityStable, SourceIncomplete
from .linalg import BettiRow, BettiTable, RankPolicy, SparseIntMatrix, rank_exact
from .matroid import Matroid, _bit_positions


class DifferentialKind(str, Enum):
    """A differential: one operation removing each element of one sort.

    `operation` names the Matroid method that removes an element.  `removes`
    is "all", "special" or "rest", where the special elements are the
    coloops under deletion and the loops under contraction.  Deleting a
    non-coloop or contracting a loop lowers the nullity; deleting a coloop
    or contracting a non-loop lowers the rank.
    """

    #         value      operation   removes
    DEL     = "del",     "delete",   "rest"
    CLP     = "clp",     "delete",   "special"
    CON     = "con",     "contract", "rest"
    LP      = "lp",      "contract", "special"
    DEL_TOT = "del-tot", "delete",   "all"
    CON_TOT = "con-tot", "contract", "all"

    def __new__(cls, value: str, operation: str, removes: str):
        member = str.__new__(cls, value)
        member._value_ = value
        member.operation = operation
        member.removes = removes
        return member

    def elements(self, m: Matroid) -> int:
        """Mask of the elements of m this differential removes."""
        if self.removes == "all":
            return m.full_mask
        special = m.coloops_mask() if self.operation == "delete" else m.loops_mask()
        return special if self.removes == "special" else m.full_mask & ~special

    @property
    def grade_kept(self) -> str | None:
        """The grade every term keeps, "rank" or "nullity"; None for a total."""
        if self.removes == "all":
            return None
        lowers_nullity = (self.operation == "delete") == (self.removes == "rest")
        return "rank" if lowers_nullity else "nullity"


def parse_kind(text: str) -> DifferentialKind:
    try:
        return DifferentialKind(text.strip().lower())
    except ValueError:
        raise InvalidSpec(f"unknown differential kind {text!r}") from None


# The tags of a spec or a census, each with its predicate.
PROPERTY_TAGS = {
    "simple": Matroid.is_simple,
    "loopless": Matroid.is_loopless,
    "binary": Matroid.is_binary,
    "ternary": Matroid.is_ternary,
    "regular": Matroid.is_regular,
    "graphic": Matroid.is_graphic,
    "cographic": Matroid.is_cographic,
    "connected": Matroid.is_connected,
}

_SELF_DUAL_TAGS = {"binary", "ternary", "regular"}

# The tags each tag implies, so that a census declaring a tag serves every
# spec whose classes carry it.  Simple matroids are loopless; graphic and
# cographic ones are regular, and regular is binary and ternary (Tutte).
# The table is closed under implication, so one expansion step is exact.
_TAG_IMPLICATIONS = {
    "simple": {"loopless"},
    "regular": {"binary", "ternary"},
    "graphic": {"regular", "binary", "ternary"},
    "cographic": {"regular", "binary", "ternary"},
}


# The tags whose predicates need no canonical key.  `chain_basis` tests a
# record against them before it searches for the record's key.
_KEY_FREE_TAGS = {"simple", "loopless", "binary", "connected"}


def _implied(tags) -> frozenset[str]:
    """The tags, closed under implication."""
    return frozenset(tags).union(*(_TAG_IMPLICATIONS.get(t, ()) for t in tags))


class ComplexSpec:
    """Which subcomplex: property tags, "connected" among them for the
    connected quotient, and an optional slice.  The tags may come as any
    iterable and are kept as a frozenset, so equal specs hash equal and a
    spec can key the caches of `chain_basis` and `differential_matrix`."""

    __slots__ = ("tags", "slice")

    def __init__(self, tags=(), slice: tuple[str, int] | None = None):
        tags = frozenset(tags)
        unknown = tags - set(PROPERTY_TAGS)
        if unknown:
            raise InvalidSpec(f"unknown property tags: {sorted(unknown)}")
        if "connected" in tags and not tags & {"simple", "loopless"}:
            raise InvalidSpec(
                "the connected quotient needs a loopless property "
                "(add 'simple' or 'loopless')"
            )
        if slice is not None and slice[0] not in ("rank", "nullity"):
            raise InvalidSpec(f"bad slice {slice!r}")
        self.tags = tags
        self.slice = slice

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tags, self.slice) == (other.tags, other.slice)

    def __hash__(self):
        return hash((self.tags, self.slice))

    @classmethod
    def parse(cls, text: str) -> "ComplexSpec":
        tokens = {tok.strip().lower() for tok in text.replace("+", ",").split(",")}
        return cls(frozenset(tokens - {"", "all"}))

    def label(self) -> str:
        # the sorted tags with "connected" last, joined with '+' so the
        # label stays a single CSV field
        parts = sorted(self.tags, key=lambda t: (t == "connected", t))
        return "+".join(parts) if parts else "all"

    def with_slice(self, slc) -> "ComplexSpec":
        return ComplexSpec(self.tags, slc)

    def key_in_slice(self, key: CanonicalKey) -> bool:
        if self.slice is None:
            return True
        what, val = self.slice
        return (key.r == val) if what == "rank" else (key.n - key.r == val)


ALL = ComplexSpec()


class ChainBasis:
    __slots__ = ("n", "keys")

    def __init__(self, n: int, keys: tuple[CanonicalKey, ...]):
        self.n = n
        self.keys = keys

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.keys) == (other.n, other.keys)

    def __hash__(self):
        return hash((self.n, self.keys))

    @property
    def dim(self) -> int:
        return len(self.keys)

    def index(self) -> dict[CanonicalKey, int]:
        return {k: i for i, k in enumerate(self.keys)}


def _check_source_tags(spec: ComplexSpec, source) -> None:
    declared = _implied(source.tags())
    if not declared <= _implied(spec.tags):
        raise SourceIncomplete(
            f"source restricted to {sorted(declared)} cannot serve spec "
            f"{spec.label()!r}"
        )


@lru_cache(maxsize=None)
def chain_basis(n: int, spec: ComplexSpec, source) -> ChainBasis:
    """The keys of the classes on [n] that the spec keeps, from the source's
    records of degree n.

    A record with a clone pair is zero and dropped first, because that test
    drops most records and costs less than the binary one.  The rest are
    tested against the key-free tags the spec implies, so one that fails
    them is never searched, and `normalize` gives the key of a nonzero
    class.  The keyed tags of the spec run last, on the records whose key
    lies in the slice.  Records of one class give one key.  Both stages take
    the tags in table order, so the cheap structural tests run first.
    """
    if n < 0:
        return ChainBasis(n, ())
    _check_source_tags(spec, source)
    implied = _implied(spec.tags)
    key_free = [
        holds for tag, holds in PROPERTY_TAGS.items()
        if tag in implied and tag in _KEY_FREE_TAGS
    ]
    keyed = [
        holds for tag, holds in PROPERTY_TAGS.items()
        if tag in spec.tags and tag not in _KEY_FREE_TAGS
    ]
    keys = set()
    for m in source.require(n):
        if m.has_clone_pair() or not all(holds(m) for holds in key_free):
            continue
        nz = normalize(m)
        if nz is None:
            continue
        key = nz[0]
        if key in keys or not spec.key_in_slice(key):
            continue
        if all(holds(m) for holds in keyed):
            keys.add(key)
    return ChainBasis(n, tuple(sorted(keys, key=lambda k: k.encoding)))


def _boundary_terms(kind: DifferentialKind, key: CanonicalKey):
    """(child key, sign) for each surviving term of the differential of [key].

    The sign is the interior-product sign of the removed element times the
    relabeling sign onto the child's canonical representative.  A child key
    may repeat; callers add the repeats up.
    """
    m = key.matroid()
    remove = getattr(m, kind.operation)
    for i in _bit_positions(kind.elements(m)):
        nz = normalize(remove(i + 1))
        if nz is None:
            continue
        ckey, s = nz
        yield ckey, (s if i % 2 == 0 else -s)


def apply_differential(kind: DifferentialKind, v: ClassVector) -> ClassVector:
    """The differential on the full complex, applied termwise."""
    return v.map(lambda key: _boundary_terms(kind, key))


@lru_cache(maxsize=None)
def differential_matrix(
    kind: DifferentialKind, n: int, spec: ComplexSpec, source
) -> SparseIntMatrix:
    """Matrix of the differential from degree n (columns) to n-1 (rows).

    Children that leave the row basis are dropped: for the connected
    quotient this is the quotient map, and for property-closed specs it
    never happens.
    """
    cols = chain_basis(n, spec, source)
    rows = chain_basis(n - 1, spec, source)
    row_index = rows.index()
    entries: dict = {}
    for ci, key in enumerate(cols.keys):
        for ckey, sign in _boundary_terms(kind, key):
            ri = row_index.get(ckey)
            if ri is None:
                continue
            pos = (ri, ci)
            entries[pos] = entries.get(pos, 0) + sign
    return SparseIntMatrix(rows.dim, cols.dim, entries)


class Report:
    __slots__ = ("lines", "ok")

    def __init__(self, lines: list[str], ok: bool = True):
        self.lines = lines
        self.ok = ok

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lines, self.ok) == (other.lines, other.ok)

    def record(self, ok: bool, what: str, detail: str = "", witness=()) -> None:
        """One PASS/FAIL line; a failure also names the witness keys."""
        words = ["PASS" if ok else "FAIL", what]
        if detail:
            words.append(detail)
        if not ok and witness:
            words.append("witness=" + ",".join(repr(k) for k in witness))
        self.lines.append(" ".join(words))
        self.ok = self.ok and ok

    def extend(self, other: "Report") -> None:
        self.lines.extend(other.lines)
        self.ok = self.ok and other.ok

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def _anticommutator(
    kind_a: DifferentialKind,
    kind_b: DifferentialKind,
    n: int,
    spec: ComplexSpec,
    source,
) -> CanonicalKey | None:
    """Basis key of the first nonzero column of d_a d_b + d_b d_a from degree
    n, or None when it vanishes.  With a = b the sum is 2 d∘d, which vanishes
    exactly when d∘d does and has the same first nonzero column.
    """

    def composite(first, second):
        return differential_matrix(first, n - 1, spec, source).compose(
            differential_matrix(second, n, spec, source)
        )

    total = composite(kind_a, kind_b).add(composite(kind_b, kind_a))
    if total.is_zero():
        return None
    return chain_basis(n, spec, source).keys[min(j for (_, j) in total.entries)]


def verify_square_zero(
    kind: DifferentialKind, max_n: int, spec: ComplexSpec, source
) -> Report:
    rep = Report([])
    for n in range(1, max_n + 1):
        bad = _anticommutator(kind, kind, n, spec, source)
        rep.record(bad is None, f"square-zero {kind.value}", f"n={n}", (bad,))
    return rep


def verify_anticommute(
    kind_a: DifferentialKind,
    kind_b: DifferentialKind,
    max_n: int,
    spec: ComplexSpec,
    source,
) -> Report:
    rep = Report([])
    for n in range(2, max_n + 1):
        bad = _anticommutator(kind_a, kind_b, n, spec, source)
        what = f"anticommute {kind_a.value}/{kind_b.value}"
        rep.record(bad is None, what, f"n={n}", (bad,))
    return rep


def dualize_basis_map(
    n: int, spec: ComplexSpec, source, dual_spec: ComplexSpec | None = None
) -> SparseIntMatrix:
    """Signed permutation matrix of [M, eta] -> [M*, eta] in chain bases.

    Swaps the bidegrees (k, r) <-> (r, k) and intertwines deletion-side
    differentials with contraction-side ones.
    """
    if dual_spec is None:
        if not spec.tags <= _SELF_DUAL_TAGS or spec.slice is not None:
            raise PropertyNotDualityStable(
                f"spec {spec.label()!r} is not duality stable; duality-stable "
                f"specs take only the tags {', '.join(sorted(_SELF_DUAL_TAGS))}"
            )
        dual_spec = spec
    cols = chain_basis(n, spec, source)
    rows = chain_basis(n, dual_spec, source)
    row_index = rows.index()
    entries = {}
    for ci, key in enumerate(cols.keys):
        nz = normalize(key.matroid().dual())
        if nz is None:
            raise PropertyNotDualityStable(
                f"dual of {key!r} has an odd automorphism; bases mismatch"
            )
        ckey, s = nz
        ri = row_index.get(ckey)
        if ri is None:
            raise PropertyNotDualityStable(f"dual of {key!r} leaves the basis")
        entries[(ri, ci)] = s
    return SparseIntMatrix(rows.dim, cols.dim, entries)


def verify_duality(max_n: int, spec: ComplexSpec, source) -> Report:
    """Duality exchanges the deletion differential with contraction and the
    coloop differential with the loop one, transposing the bigrading; D is
    an involution.  (Deleting a non-coloop of M is contracting a non-loop
    of the dual.)
    """
    rep = Report([])
    for n in range(0, max_n + 1):
        d_n = dualize_basis_map(n, spec, source)
        sq = d_n.compose(d_n)
        ident = SparseIntMatrix(
            d_n.rows, d_n.cols, {(i, i): 1 for i in range(d_n.rows)}
        )
        rep.record(sq == ident, "duality involution", f"n={n}")
        if n == 0:
            continue
        d_prev = dualize_basis_map(n - 1, spec, source)
        for kind_a in DifferentialKind:
            if kind_a.operation != "delete" or kind_a.removes == "all":
                continue
            # the dual kind removes the same elements by contraction
            kind_b = next(
                k for k in DifferentialKind
                if k.operation == "contract" and k.removes == kind_a.removes
            )
            lhs = d_prev.compose(differential_matrix(kind_a, n, spec, source))
            rhs = differential_matrix(kind_b, n, spec, source).compose(d_n)
            rep.record(
                lhs == rhs,
                f"duality intertwines {kind_a.value}->{kind_b.value}",
                f"n={n}",
            )
    return rep


# -- homology ------------------------------------------------------------------


def _betti_rows(
    spec: ComplexSpec,
    kind: DifferentialKind,
    lo: int,
    hi: int,
    source,
    policy: RankPolicy | None,
) -> list[BettiRow]:
    """Betti rows for degrees lo..hi, built from the chain groups lo-1..hi+1.

    H_n needs the incoming boundary from degree n+1; when the source stops
    at hi the top row only carries an upper bound and is flagged so.  Every
    consecutive pair of the matrices ranked is checked for d∘d = 0 first; a
    failure raises SourceIncomplete naming a witness column.
    """
    policy = policy or RankPolicy()
    if not source.covers(hi):
        raise SourceIncomplete(f"source does not cover degree {hi}")
    top = hi + 1 if source.covers(hi + 1) else hi

    dims = {n: chain_basis(n, spec, source).dim for n in range(lo, top + 1)}
    mats = {
        n: differential_matrix(kind, n, spec, source) for n in range(lo, top + 1)
    }
    for n in range(lo + 1, top + 1):
        bad = _anticommutator(kind, kind, n, spec, source)
        if bad is not None:
            raise SourceIncomplete(
                f"d∘d != 0 for spec {spec.label()!r}, kind {kind.value}, "
                f"n={n}: witness={bad!r}"
            )
    ranks = {
        n: (0, "exact") if mat.is_zero() else policy.rank(mat)
        for n, mat in mats.items()
    }

    slice_rank = spec.slice[1] if spec.slice and spec.slice[0] == "rank" else None
    rows = []
    for n in range(lo, hi + 1):
        rank_out, lab_out = ranks[n]
        rank_in, lab_in = ranks.get(n + 1, (None, None))
        betti = dims[n] - rank_out - (rank_in or 0)
        if rank_in is None:
            certified = "upper_bound"
        else:
            certified = "exact" if lab_out == lab_in == "exact" else "modular"
            if betti != 0 and certified != "exact":
                # modular ranks only bound the exact ones from below; a
                # nonzero betti is confirmed with exact arithmetic.
                rank_out = rank_exact(mats[n])
                rank_in = rank_exact(mats[n + 1])
                betti = dims[n] - rank_out - rank_in
                certified = "exact"
        r_col = slice_rank
        if spec.slice and spec.slice[0] == "nullity":
            r_col = n - spec.slice[1]
        rows.append(
            BettiRow(
                spec.label(), kind.value, n, r_col, dims[n],
                rank_out, rank_in, betti, certified,
            )
        )
    return rows


def homology_table(
    spec: ComplexSpec,
    kind: DifferentialKind,
    max_n: int,
    source,
    policy: RankPolicy | None = None,
) -> BettiTable:
    """Betti numbers of the spec'd complex through degree max_n; the top row
    is an upper bound unless the source covers degree max_n+1."""
    return BettiTable(_betti_rows(spec, kind, 0, max_n, source, policy))


def betti_at_bidegree(
    spec: ComplexSpec,
    kind: DifferentialKind,
    n: int,
    r: int,
    source,
    policy: RankPolicy | None = None,
) -> BettiTable:
    """Homology of the bigraded slice through (n, r): ground size n, rank r.

    Only the slice's chain groups at n-1, n and n+1 are built, so the source
    need cover only those degrees; without n+1 the row is an upper bound.
    """
    if not 0 <= r <= n:
        raise InvalidSpec(f"bidegree ({n},{r}) needs 0 <= r <= n")
    grade = kind.grade_kept
    if grade is None:
        raise InvalidSpec("bidegree slices need a single-bidegree differential")
    sliced = spec.with_slice((grade, r if grade == "rank" else n - r))
    return BettiTable(_betti_rows(sliced, kind, n, n, source, policy))


def dims_table(spec: ComplexSpec, max_n: int, source) -> list[tuple[int, int, int]]:
    """(n, r, dim) rows for all bidegrees with 0 <= r <= n <= max_n."""
    out = []
    for n in range(0, max_n + 1):
        basis = chain_basis(n, spec, source)
        per_rank = {}
        for key in basis.keys:
            per_rank[key.r] = per_rank.get(key.r, 0) + 1
        for r in range(0, n + 1):
            out.append((n, r, per_rank.get(r, 0)))
    return out
