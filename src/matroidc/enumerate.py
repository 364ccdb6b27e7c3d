"""Isomorph-free generation of small matroids and census-file ingestion.

Production enumeration grows degree n from degree n-1 by single-element
extension.  Every matroid on [n] is an extension of its deletion of element
n, so the children of all classes on [n-1] cover every class on [n].  A
parent's extensions other than the coloop are in bijection with the linear
subclasses of its hyperplanes (Crapo 1965), which a depth-first search over
the hyperplanes lists.  The parent's automorphism generators permute the
hyperplanes and so the subclasses, and only the first child of each orbit
is built; the rest are isomorphic to it.  The orbits are the classes of
`matroid._partition_roots` over the pairs (subclass, its image under a
generator).  Canonical augmentation (McKay 1998) then keeps one child per
class without comparing children: a child is kept only when its new
element is, up to the child's automorphisms, the element that an
isomorphism-invariant rule picks as its last.  The rule ranks elements by
the number of bases through them, so most children are dropped by one pass
over their bases, before any canonical search.

Generation can be restricted to the classes that are simple or loopless.
Both tags are deletion-closed, so the canonical parent of such a class has
the tag too, and extending only the parents that have it still reaches
every class that does.  A child without the tag is dropped before its
search.  The minor-closed tags are deletion-closed as well, but their
excluded-minor predicates cost more than the searches they would save.
`EnumeratorSource` restricts itself to the simple and loopless part of a
spec's tags and declares that part, as a census file declares its own.

The labelled exchange backtracker `_exchange_families` drives the direct
search over basis families that the tests keep as an independent oracle
for n <= 6.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .canonical import (
    apply_perm_mask,
    automorphism_generators,
    canonical_form,
    canonical_key,
)
from .complexes import PROPERTY_TAGS
from .errors import (
    DegreeTooLarge,
    ExchangeViolation,
    InvalidSpec,
    MatroidError,
    ParseError,
    SourceIncomplete,
)
from .matroid import (
    EMPTY,
    MAX_ELEMENTS,
    Matroid,
    _bit_positions,
    _completions,
    _partition_roots,
    from_bases,
    from_f2_matrix,
)

ENUMERATION_LIMIT = 7

# The tags an extension step can restrict its classes to: deletion-closed,
# and cheap enough to test on every child that the basis-count gate keeps.
EXTENSION_TAGS = ("simple", "loopless")


def _exchange_families(fixed: tuple[int, ...], cands: list[int]):
    """Yield every subset A of cands with fixed + A satisfying basis exchange.

    fixed must already satisfy exchange on its own.  Requirements created
    when a candidate joins are tracked as bitmasks over candidate indices;
    a requirement with no satisfier left kills the branch.  Decisions run
    in ascending candidate order, so pending witnesses always sit strictly
    ahead of the cursor.
    """
    fixed_set = set(fixed)
    index_of = {c: i for i, c in enumerate(cands)}
    nc = len(cands)

    def new_requirements(t: int, members, chosen_set):
        """Requirement masks created by adding cands[t]; None means dead."""
        tmask = cands[t]
        reqs = []
        for u in members:
            for pair_from, pair_to in ((u, tmask), (tmask, u)):
                gain = pair_to & ~pair_from
                for i in _bit_positions(pair_from & ~pair_to):
                    stripped = pair_from & ~(1 << i)
                    wit = 0
                    satisfied = False
                    for j in _bit_positions(gain):
                        w = stripped | (1 << j)
                        if w in fixed_set or w in chosen_set or w == tmask:
                            satisfied = True
                            break
                        idx = index_of.get(w)
                        if idx is not None and idx > t:
                            wit |= 1 << idx
                    if satisfied:
                        continue
                    if not wit:
                        return None
                    reqs.append(wit)
        return reqs

    # Iterative DFS: frame = (cursor, chosen indices tuple, pending reqs)
    stack = [(0, (), ())]
    while stack:
        i, chosen, pending = stack.pop()
        if i == nc:
            yield tuple(cands[j] for j in chosen)
            continue
        bit = 1 << i
        # exclude cands[i]
        dead = False
        kept = []
        for w in pending:
            w2 = w & ~bit
            if not w2:
                dead = True
                break
            kept.append(w2)
        if not dead:
            stack.append((i + 1, chosen, tuple(kept)))
        # include cands[i]
        chosen_set = {cands[j] for j in chosen}
        members = list(fixed) + [cands[j] for j in chosen]
        reqs = new_requirements(i, members, chosen_set)
        if reqs is None:
            continue
        nxt = [w for w in pending if not w & bit]
        nxt.extend(reqs)
        stack.append((i + 1, chosen + (i,), tuple(nxt)))


def _classes(keys) -> tuple[Matroid, ...]:
    """One representative per distinct canonical key, in encoding order."""
    return tuple(k.matroid() for k in sorted(set(keys), key=lambda k: k.encoding))


def _hyperplanes(m: Matroid) -> tuple[list[int], list[int], list[int]]:
    """The independent (r-1)-sets of m ascending, the hyperplanes of m, and
    for each set the index of its closure among the hyperplanes.

    The sets are the keys of `matroid._completions`, and the closure of I is
    the complement of its completions.  Hyperplanes are numbered in order of
    their first independent set.
    """
    completions = _completions(m.bases)
    sets = sorted(completions)
    index: dict[int, int] = {}
    owner = [index.setdefault(m.full_mask & ~completions[s], len(index)) for s in sets]
    return sets, list(index), owner


def _linear_subclasses(sets: list[int], owner: list[int], count: int):
    """Yield every linear subclass of the count hyperplanes as a bitmask of
    indices, from `_hyperplanes`' independent (r-1)-sets and their owners.

    The hyperplanes over a coline are the closures of the independent
    (r-1)-sets above any independent (r-2)-set J spanning it, so dropping
    each element from each set collects them.  A linear subclass holds
    either at most one hyperplane over each coline or all of them (Crapo
    1965; Oxley section 7.2).  Hyperplanes are decided in index order, each
    first left out and then put in, and a branch dies as soon as some
    coline has two hyperplanes in and one out.
    """
    over: dict[int, int] = {}
    for s, h in zip(sets, owner):
        for e in _bit_positions(s):
            j = s & ~(1 << e)
            over[j] = over.get(j, 0) | 1 << h
    # a coline under only two hyperplanes constrains nothing
    lines = {line for line in over.values() if line.bit_count() > 2}
    lines_through = [[line for line in lines if line >> k & 1] for k in range(count)]
    stack = [(0, 0, 0)]
    while stack:
        k, inside, out = stack.pop()
        if k == count:
            yield inside
            continue
        through = lines_through[k]
        # pushed first, so popped after the branch that leaves hyperplane k out
        if not any(line & inside and line & out for line in through):
            stack.append((k + 1, inside | 1 << k, out))
        if all((line & inside).bit_count() < 2 for line in through):
            stack.append((k + 1, inside, out | 1 << k))


def extend_by_element(m: Matroid, automorphisms=()) -> list[Matroid]:
    """The matroids on [n+1] whose deletion of element n+1 gives m, one per
    orbit under the given automorphisms of m.

    The coloop comes first.  Every other extension puts the new element on
    the hyperplanes of one linear subclass (Crapo 1965): I + (n+1) is a
    basis exactly when the closure of the independent (r-1)-set I is outside
    the subclass.  All hyperplanes give the loop and none the free
    extension.  Children come in descending order of the vector that marks
    which independent (r-1)-sets, taken ascending, gain the new element.

    An automorphism g of m, extended to fix n+1, fixes the coloop and maps
    the child of subclass L onto the child of g(L).  Only the first child
    of each orbit of subclasses under the given automorphisms is built, so
    with none every extension is.  They need not generate Aut(m) for this
    function, but `_extension_step` relies on generators of the full group:
    it keeps one child per orbit and so one per class.
    """
    n, r = m.n, m.r
    if n + 1 > MAX_ELEMENTS:
        raise DegreeTooLarge(f"cannot extend beyond {MAX_ELEMENTS} elements")
    ebit = 1 << n
    out = [m.direct_sum(Matroid(1, 1, (1,)))]  # coloop extension
    sets, hyperplanes, owner = _hyperplanes(m)
    subclasses = list(_linear_subclasses(sets, owner, len(hyperplanes)))
    position = {inside: i for i, inside in enumerate(subclasses)}
    index = {h: k for k, h in enumerate(hyperplanes)}
    pairs = []
    for g in automorphisms:
        image = [1 << index[apply_perm_mask(h, g)] for h in hyperplanes]
        pairs += [
            (i, position[sum(image[k] for k in _bit_positions(inside))])
            for i, inside in enumerate(subclasses)
        ]
    roots = _partition_roots(len(subclasses), pairs)
    for i, inside in enumerate(subclasses):
        if roots[i] == i:
            # new bases hold bit n, so they sort after every basis of m
            extra = tuple(s | ebit for s, h in zip(sets, owner) if not inside >> h & 1)
            out.append(Matroid(n + 1, r, m.bases + extra))
    return out


def _extension_step(parents, tags=frozenset()) -> tuple[Matroid, ...]:
    """All classes on [n+1] that hold every tag in tags, a subset of
    EXTENSION_TAGS, from parents that hold exactly one matroid of each such
    class on [n]: a complete, pairwise non-isomorphic set.

    A child C adds the element e = n+1 to its parent.  It is kept only when
    e lies in the Aut(C)-orbit of C's canonical last element: of the
    elements in the most bases of C, the one with the largest canonical
    label (McKay 1998).  That orbit is an isomorphism invariant, so each
    class on [n+1] is kept once: from the class of C minus that element,
    through the one child of its orbit under the parent's automorphisms.
    A child with e outside the most bases is dropped unsearched, and one
    with e alone there is kept without deciding; only the rest pay for
    `canonical_form`'s witness and `automorphism_generators`' orbit.

    A child that the count keeps but that lacks one of the tags is dropped
    before `canonical_key`.  The tags are deletion-closed, so a class that
    holds them is still reached from its canonical parent, which holds them
    too.  With no tags every child is a candidate.

    A repeated parent class, or generators that miss part of Aut(parent),
    can keep a class twice.  That raises MatroidError naming the key rather
    than being merged in silence.
    """
    unknown = set(tags) - set(EXTENSION_TAGS)
    if unknown:
        raise InvalidSpec(
            f"extension restricts only to {', '.join(EXTENSION_TAGS)}, "
            f"not {sorted(unknown)}"
        )
    tests = [holds for tag, holds in PROPERTY_TAGS.items() if tag in tags]
    keys: set = set()
    for parent in parents:
        for child in extend_by_element(parent, automorphism_generators(parent)):
            e = child.n - 1
            counts = [0] * child.n
            for b in child.bases:
                for x in _bit_positions(b):
                    counts[x] += 1
            top = counts[e]
            if max(counts) > top:
                continue
            if not all(holds(child) for holds in tests):
                continue
            key = canonical_key(child)
            tied = [x for x, c in enumerate(counts) if c == top]
            if len(tied) > 1:
                witness = canonical_form(child)[1]
                last = max(tied, key=lambda x: witness[x])
                roots = _partition_roots(child.n, (
                    (x, g[x] - 1) for g in automorphism_generators(child) for x in tied
                ))
                if roots[last] != roots[e]:
                    continue
            if key in keys:
                raise MatroidError(
                    f"extension step kept {key!r} twice: its parents repeat a class"
                    " or their automorphism generators miss part of the group"
                )
            keys.add(key)
    return _classes(keys)


def enumerate_by_extension(n: int, tags=frozenset()) -> list[Matroid]:
    """The extension route from the empty matroid, without enumerate_all's
    cache or its n <= 7 limit."""
    reps: tuple[Matroid, ...] = (EMPTY,)
    for _ in range(n):
        reps = _extension_step(reps, tags)
    return list(reps)


def enumerate_all(n: int, tags=frozenset()) -> tuple[Matroid, ...]:
    """One canonical representative per isomorphism class on [n], n <= 7,
    among the classes that hold every tag in tags (see EXTENSION_TAGS)."""
    if n < 0 or n > ENUMERATION_LIMIT:
        raise DegreeTooLarge(
            f"built-in enumeration covers n in 0..{ENUMERATION_LIMIT}, not n={n}"
        )
    return _census(n, frozenset(tags))


@lru_cache(maxsize=None)
def _census(n: int, tags: frozenset[str]) -> tuple[Matroid, ...]:
    """enumerate_all's table, keyed by n and the tags as a frozenset."""
    if n == 0:
        return (EMPTY,)
    return _extension_step(enumerate_all(n - 1, tags), tags)


# -- sources ----------------------------------------------------------------


class MatroidSource:
    """Supplier of all isomorphism-class representatives per degree."""

    def covers(self, n: int) -> bool:
        raise NotImplementedError

    def tags(self) -> frozenset[str]:
        """Property tags the census is restricted to (empty = everything)."""
        return frozenset()

    def representatives(self, n: int) -> tuple[Matroid, ...]:
        raise NotImplementedError

    def require(self, n: int) -> tuple[Matroid, ...]:
        if not self.covers(n):
            raise SourceIncomplete(f"{self!r} does not cover degree {n}")
        return self.representatives(n)


class EnumeratorSource(MatroidSource):
    """The in-process census of n <= 7: a census that declares its tags.

    It keeps the EXTENSION_TAGS among the tags it is given, generates only
    the classes that hold them and declares them through `tags()`, so
    `complexes.chain_basis` refuses any spec whose classes could lack them.
    The other tags cost more to test during generation than they save, so
    `chain_basis` filters by them as it does for any census.
    """

    def __init__(self, max_n: int = ENUMERATION_LIMIT, tags=frozenset()):
        self.max_n = min(max_n, ENUMERATION_LIMIT)
        self._tags = frozenset(tags) & frozenset(EXTENSION_TAGS)

    def covers(self, n: int) -> bool:
        return 0 <= n <= self.max_n

    def tags(self) -> frozenset[str]:
        return self._tags

    def representatives(self, n: int) -> tuple[Matroid, ...]:
        return enumerate_all(n, self._tags)

    def __repr__(self):
        return f"EnumeratorSource(max_n={self.max_n}, tags={sorted(self._tags)})"


class FileSource(MatroidSource):
    """Census file backend; coverage and property tags are declared in-file.

    `duplicates` lists the records dropped because an earlier record has the
    same class, as (line, line of the earlier record, canonical key).
    """

    def __init__(self, by_degree, coverage, tags, path="", duplicates=()):
        self._by_degree = {
            n: tuple(ms) for n, ms in by_degree.items()
        }
        self._coverage = frozenset(coverage)
        self._tags = frozenset(tags)
        self.path = path
        self.duplicates = tuple(duplicates)

    def covers(self, n: int) -> bool:
        return n in self._coverage

    def tags(self) -> frozenset[str]:
        return self._tags

    def representatives(self, n: int) -> tuple[Matroid, ...]:
        return self._by_degree.get(n, ())

    def __repr__(self):
        cov = ",".join(str(n) for n in sorted(self._coverage))
        return f"FileSource({self.path or '<mem>'}, degrees={cov})"


def _dedup_canonical(records):
    """Classes per degree from (line, matroid) records, and the repeats.

    A repeat is (line, first line, key): the record at `line` has the class
    of the earlier record at `first line`.
    """
    first_line: dict = {}
    duplicates = []
    keys_by_degree: dict[int, list] = {}
    for ln, m in records:
        key = canonical_key(m)
        if key in first_line:
            duplicates.append((ln, first_line[key], key))
            continue
        first_line[key] = ln
        keys_by_degree.setdefault(m.n, []).append(key)
    by_degree = {n: _classes(keys) for n, keys in keys_by_degree.items()}
    return by_degree, duplicates


def _coverage_degrees(tok: str, ln: int) -> range:
    """Degrees named by one coverage token: 'n' or an inclusive range 'a-b'."""
    lo, dash, hi = tok.partition("-")
    if not dash:
        hi = lo
    elif not lo or not hi:
        raise ParseError(f"half-open coverage range {tok!r}", line=ln)
    if not (lo.isascii() and lo.isdigit() and hi.isascii() and hi.isdigit()):
        raise ParseError(f"non-integer coverage token {tok!r}", line=ln)
    if int(lo) > int(hi):
        raise ParseError(f"reversed coverage range {tok!r}", line=ln)
    if int(hi) > MAX_ELEMENTS:
        raise ParseError(
            f"coverage token {tok!r} exceeds the {MAX_ELEMENTS}-element limit", line=ln
        )
    return range(int(lo), int(hi) + 1)


def _parse_directives(lines):
    coverage = None
    tags = set()
    for ln, raw in lines:
        body = raw[1:].strip()
        if body.startswith("coverage:"):
            if coverage is None:
                coverage = set()
            for tok in body[len("coverage:"):].replace(",", " ").split():
                coverage.update(_coverage_degrees(tok, ln))
        elif body.startswith("property:"):
            for tag in body[len("property:"):].replace(",", " ").split():
                if tag not in PROPERTY_TAGS:
                    raise ParseError(f"unknown property tag {tag!r}", line=ln)
                tags.add(tag)
    return coverage, frozenset(tags)


def _file_source(path: str, comments, records) -> FileSource:
    """The census of (line, directive) comments and (line, matroid) records.

    Without a coverage directive, exactly the degrees present are claimed;
    with one, a record on any other degree is a ParseError.  So is a record
    that fails a declared tag of `complexes.PROPERTY_TAGS`.
    """
    coverage, tags = _parse_directives(comments)
    if coverage is None:
        coverage = {m.n for _, m in records}
    checks = [(t, PROPERTY_TAGS[t]) for t in sorted(tags)]
    for ln, m in records:
        if m.n not in coverage:
            raise ParseError(
                f"record on degree {m.n} outside the declared coverage", line=ln
            )
        for tag, holds in checks:
            if not holds(m):
                raise ParseError(
                    f"record fails the declared property {tag!r}", line=ln
                )
    by_degree, duplicates = _dedup_canonical(records)
    return FileSource(by_degree, coverage, tags, path=path, duplicates=duplicates)


def _read_lines(path: str) -> list[str]:
    """A census file's lines; an unreadable or non-UTF-8 file is a ParseError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read source file {path}: {exc.strerror}") from None
    # A leading byte-order mark is dropped from the bytes, not by the
    # utf-8-sig codec, whose error offsets would not count its 3 bytes.
    data = data.removeprefix(b"\xef\xbb\xbf")
    # Lines end at \n, \r\n or \r only: str.splitlines would also break at
    # U+2028, form feeds and the like.  No UTF-8 sequence holds these bytes.
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not UTF-8 text", line=line) from None


def parse_mtrd(path: str) -> FileSource:
    """MTRD v1: header 'MTRD 1', one record per line: n r k mask_1 .. mask_k."""
    raw_lines = _read_lines(path)
    if not raw_lines or raw_lines[0].split() != ["MTRD", "1"]:
        raise ParseError("missing MTRD 1 header", line=1)
    comments = []
    records = []
    for ln, raw in enumerate(raw_lines[1:], start=2):
        s = raw.strip()
        if not s:
            continue
        if s.startswith("#"):
            comments.append((ln, s))
            continue
        toks = s.split()
        try:
            nums = [int(t) for t in toks]
        except ValueError:
            raise ParseError(f"non-integer token in record: {s!r}", line=ln)
        if len(nums) < 3:
            raise ParseError("record needs at least n, r and a count", line=ln)
        n, r, k = nums[:3]
        masks = nums[3:]
        if len(masks) != k:
            raise ParseError(f"expected {k} masks, found {len(masks)}", line=ln)
        if any(b >= a for a, b in zip(masks[1:], masks)):
            raise ParseError("masks must be strictly increasing", line=ln)
        try:
            records.append((ln, from_bases(n, r, masks)))
        except ExchangeViolation as exc:
            raise ExchangeViolation(exc.s_mask, exc.t_mask, exc.x, line=ln) from None
        except MatroidError as exc:
            raise ParseError(f"invalid record: {exc}", line=ln) from None
    return _file_source(path, comments, records)


def write_mtrd(path: str, matroids, coverage=None, tags=()) -> None:
    with open(path, "w") as fh:
        fh.write("MTRD 1\n")
        if coverage:
            fh.write("# coverage: " + " ".join(str(n) for n in sorted(coverage)) + "\n")
        if tags:
            fh.write("# property: " + " ".join(sorted(tags)) + "\n")
        for m in matroids:
            masks = " ".join(str(b) for b in m.bases)
            fh.write(f"{m.n} {m.r} {len(m.bases)} {masks}\n")


def parse_f2db(path: str) -> FileSource:
    """F2DB v1: blank-line-separated blocks of equal-length 0/1 rows."""
    raw_lines = _read_lines(path)
    comments = []
    blocks: list[list[str]] = []
    current: list[str] = []
    current_start = None
    for ln, raw in enumerate(raw_lines, start=1):
        s = raw.strip()
        if s.startswith("#"):
            comments.append((ln, s))
            continue
        if not s:
            if current:
                blocks.append((current_start, current))
                current = []
            continue
        if not set(s) <= {"0", "1"}:
            raise ParseError(f"row must be 0/1 characters: {s!r}", line=ln)
        if not current:
            current_start = ln
        current.append(s)
    if current:
        blocks.append((current_start, current))
    records = []
    for start, rows in blocks:
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged block", line=start)
        matrix = [[int(ch) for ch in row] for row in rows]
        try:
            records.append((start, from_f2_matrix(matrix)))
        except MatroidError as exc:
            raise ParseError(f"invalid record: {exc}", line=start) from None
    return _file_source(path, comments, records)


def load_source(path: str) -> FileSource:
    """Dispatch on contents: MTRD header or F2DB block file."""
    resolved = path
    if not os.path.exists(resolved):
        dbdir = os.environ.get("MATROIDC_DB_DIR")
        if dbdir and os.path.exists(os.path.join(dbdir, path)):
            resolved = os.path.join(dbdir, path)
        else:
            raise ParseError(f"no such source file: {path}")
    head = _read_lines(resolved)[:1]
    if head and head[0].split() == ["MTRD", "1"]:
        return parse_mtrd(resolved)
    return parse_f2db(resolved)
