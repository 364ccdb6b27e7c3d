"""Generation routes, dedup, and census-file parsing."""

import random
from itertools import combinations

import pytest

from matroidc.canonical import (
    apply_perm_mask,
    automorphism_generators,
    canonical_key,
    relabel,
)
import matroidc.enumerate as enum_module
from matroidc.complexes import PROPERTY_TAGS
from matroidc.enumerate import (
    EXTENSION_TAGS,
    EnumeratorSource,
    _exchange_families,
    _extension_step,
    _hyperplanes,
    _linear_subclasses,
    enumerate_all,
    enumerate_by_extension,
    extend_by_element,
    load_source,
    parse_f2db,
    parse_mtrd,
    write_mtrd,
)
from matroidc.errors import (
    DegreeTooLarge,
    ExchangeViolation,
    InvalidSpec,
    MatroidError,
    ParseError,
    SourceIncomplete,
)
from matroidc.matroid import (
    EMPTY,
    Matroid,
    check_exchange,
    complete_graph,
    fano,
    graphic,
    uniform,
)
from oracles import enumerate_direct


def test_direct_counts_small():
    assert [len(enumerate_direct(n)) for n in range(0, 6)] == [1, 2, 4, 8, 17, 38]


def test_extension_agrees_with_direct():
    for n in range(0, 6):
        d = {canonical_key(m) for m in enumerate_direct(n)}
        e = {canonical_key(m) for m in enumerate_by_extension(n)}
        assert d == e


def test_enumerate_all_two_elements():
    keys = {canonical_key(m) for m in enumerate_all(2)}
    expected = {
        canonical_key(uniform(0, 2)),
        canonical_key(uniform(1, 2)),
        canonical_key(uniform(2, 2)),
        canonical_key(uniform(1, 1).direct_sum(uniform(0, 1))),
    }
    assert keys == expected


def test_enumerated_matroids_are_valid_and_distinct():
    for n in range(0, 6):
        reps = enumerate_all(n)
        keys = {canonical_key(m) for m in reps}
        assert len(keys) == len(reps)
        for m in reps:
            check_exchange(m.bases)


def test_extend_empty():
    children = {canonical_key(m) for m in extend_by_element(EMPTY)}
    assert children == {canonical_key(uniform(0, 1)), canonical_key(uniform(1, 1))}


def test_extend_coloop_parent():
    children = {canonical_key(m) for m in extend_by_element(uniform(1, 1))}
    must_have = {
        canonical_key(uniform(1, 2)),
        canonical_key(uniform(2, 2)),
        canonical_key(uniform(1, 1).direct_sum(uniform(0, 1))),
    }
    assert must_have <= children


def test_extension_from_three_gives_all_four_element_classes():
    seen = set()
    for parent in enumerate_all(3):
        for child in extend_by_element(parent):
            seen.add(canonical_key(child))
    assert len(seen) == 17


def test_counts_through_seven():
    counts = [1, 2, 4, 8, 17, 38, 98, 306]
    assert [len(enumerate_all(n)) for n in range(0, 8)] == counts


RESTRICTIONS = [frozenset(), frozenset({"loopless"}), frozenset({"simple"}),
                frozenset({"simple", "loopless"})]


@pytest.mark.parametrize("tags", RESTRICTIONS, ids=lambda t: "+".join(sorted(t)) or "none")
def test_restricted_enumeration_is_the_filtered_census(tags):
    for n in range(0, 8):
        kept = tuple(m for m in enumerate_all(n) if all(PROPERTY_TAGS[t](m) for t in tags))
        assert enumerate_all(n, tags) == kept


def test_restricted_counts_through_seven():
    simple = [1, 1, 1, 2, 4, 9, 26, 101]  # OEIS A002773
    loopless = [1, 1, 2, 4, 9, 21, 60, 208]
    assert [len(enumerate_all(n, {"simple"})) for n in range(0, 8)] == simple
    assert [len(enumerate_all(n, {"loopless"})) for n in range(0, 8)] == loopless


def test_restricted_step_searches_only_children_with_the_tags(monkeypatch):
    # the tags are tested before the search, not used to filter its results
    searched = []

    def recording(m):
        searched.append(m)
        return canonical_key(m)

    monkeypatch.setattr(enum_module, "canonical_key", recording)
    for n in range(0, 7):
        _extension_step(enumerate_all(n, {"simple"}), frozenset({"simple"}))
    assert searched and all(m.is_simple() for m in searched)


def test_extension_refuses_tags_it_cannot_restrict_to():
    # connected is not deletion-closed; the minor-closed tags cost more than
    # they save, so chain_basis filters by them instead
    for tag in set(PROPERTY_TAGS) - set(EXTENSION_TAGS):
        with pytest.raises(InvalidSpec, match=tag):
            _extension_step(enumerate_all(3), frozenset({tag}))
        with pytest.raises(InvalidSpec, match=tag):
            enumerate_all(4, {tag})


def test_automorphism_generators_preserve_bases():
    # orbit pruning is sound as long as every generator is an automorphism
    for n in range(0, 8):
        for m in enumerate_all(n):
            bases = set(m.bases)
            for g in automorphism_generators(m):
                assert {apply_perm_mask(b, g) for b in m.bases} == bases, (m, g)


def backtracker_extensions(m):
    """The extensions of m as the labelled exchange backtracker lists them:
    the coloop, then every family of independent (r-1)-sets plus the new
    element that keeps basis exchange, in the backtracker's include-first
    order."""
    ebit = 1 << m.n
    out = [m.direct_sum(uniform(1, 1))]
    cands = sorted(s | ebit for s in m.independent_sets(m.r - 1)) if m.r else []
    for extra in _exchange_families(m.bases, cands):
        out.append(Matroid(m.n + 1, m.r, tuple(sorted(m.bases + extra))))
    return out


def test_extensions_match_the_exchange_backtracker_in_order():
    for n in range(0, 7):
        for parent in enumerate_all(n):
            got = [(c.n, c.r, c.bases) for c in extend_by_element(parent)]
            assert got == [(c.n, c.r, c.bases) for c in backtracker_extensions(parent)], parent


def test_linear_subclasses_match_bruteforce():
    # hyperplanes are the maximal sets of rank r-1; a set of them is a linear
    # subclass when it holds every hyperplane over the meet of any modular
    # pair it holds
    for n in range(0, 6):
        for m in enumerate_all(n):
            sets, hyperplanes, owner = _hyperplanes(m)
            assert set(hyperplanes) == {
                x for x in range(1 << n)
                if m.r and m.rank_of(x) == m.r - 1
                and all(m.rank_of(x | 1 << e) == m.r for e in range(n) if not x >> e & 1)
            }
            assert all(s & ~hyperplanes[h] == 0 for s, h in zip(sets, owner))
            pairs = [
                (a, b, [k for k, h in enumerate(hyperplanes) if h & ha & hb == ha & hb])
                for (a, ha), (b, hb) in combinations(enumerate(hyperplanes), 2)
                if m.rank_of(ha & hb) == m.r - 2
            ]
            brute = [
                inside for inside in range(1 << len(hyperplanes))
                if all(inside >> k & 1 for a, b, over in pairs
                       if inside >> a & 1 and inside >> b & 1 for k in over)
            ]
            assert sorted(_linear_subclasses(sets, owner, len(hyperplanes))) == brute, m


def test_extensions_are_matroids_that_delete_to_the_parent():
    for n in range(0, 7):
        for parent in enumerate_all(n):
            children = extend_by_element(parent)
            assert len(set(children)) == len(children)
            for child in children:
                check_exchange(child.bases)
                assert child.delete(n + 1) == parent


def test_pruned_step_keeps_every_child_class():
    # the ungated child set is the oracle for the canonical-augmentation gate
    for n in range(0, 7):
        parents = enumerate_all(n)
        every_child = {
            canonical_key(child)
            for parent in parents
            for child in extend_by_element(parent)
        }
        assert {canonical_key(m) for m in _extension_step(parents)} == every_child


def test_step_is_independent_of_the_parents_labelling():
    # census parents are arbitrary labellings, not canonical representatives
    rng = random.Random(17)
    for n in range(0, 6):
        parents = enumerate_all(n)
        relabelled = [relabel(m, tuple(rng.sample(range(1, n + 1), n))) for m in parents]
        step = _extension_step(relabelled)
        assert step == _extension_step(parents)


def test_step_raises_on_a_repeated_parent_class():
    parents = enumerate_all(5)
    with pytest.raises(MatroidError, match="twice"):
        _extension_step(parents + parents[:1])


def test_step_raises_when_parent_pruning_sees_too_small_a_group(monkeypatch):
    # with no generators every child of a parent is built, so a parent with
    # two isomorphic children yields its class twice
    parents = enumerate_all(5)
    monkeypatch.setattr(enum_module, "automorphism_generators", lambda m: [])
    with pytest.raises(MatroidError, match="twice"):
        _extension_step(parents)


def test_pruning_skips_isomorphic_children():
    parent = uniform(2, 4)
    children = extend_by_element(parent)
    kept = extend_by_element(parent, automorphism_generators(parent))
    assert len(kept) < len(children)
    assert {canonical_key(m) for m in kept} == {canonical_key(m) for m in children}


def bfs_orbit_representatives(parent):
    """The first child of each orbit, found by a breadth-first search over the
    images of each child's added bases under the parent's generators."""
    n = parent.n
    ebit = 1 << n
    children = extend_by_element(parent)
    generators = [g + (n + 1,) for g in automorphism_generators(parent)]
    covered = set()
    kept = []
    for child in children:
        fam = frozenset(b for b in child.bases if b & ebit)
        if fam in covered:
            continue
        covered.add(fam)
        frontier = [fam]
        while frontier:
            member = frontier.pop()
            for g in generators:
                image = frozenset(apply_perm_mask(b, g) for b in member)
                if image not in covered:
                    covered.add(image)
                    frontier.append(image)
        kept.append(child)
    return kept


def test_orbit_representatives_match_bfs():
    for n in range(0, 6):
        for parent in enumerate_all(n):
            kept = extend_by_element(parent, automorphism_generators(parent))
            assert kept == bfs_orbit_representatives(parent)


LABELLED_PARENTS = [
    ("F7", fano()),  # |Aut| = 168
    ("F7*", fano().dual()),
    ("M(K4)", graphic(complete_graph(4))),
    ("U(3,6)", uniform(3, 6)),
    ("U(2,5)", uniform(2, 5)),
] + [(f"n6-{i}", m) for i, m in enumerate(enumerate_all(6))]


@pytest.mark.parametrize("name,m", LABELLED_PARENTS, ids=[x for x, _ in LABELLED_PARENTS])
def test_orbit_step_on_labelled_parents(name, m):
    # a relabelled parent is not a canonical representative, so its
    # generators come from its own search rather than from the class's
    parent = relabel(m, tuple(random.Random(name).sample(range(1, m.n + 1), m.n)))
    kept = extend_by_element(parent, automorphism_generators(parent))
    assert kept == bfs_orbit_representatives(parent)
    every_child = {canonical_key(child) for child in extend_by_element(parent)}
    assert {canonical_key(child) for child in kept} == every_child


def test_degree_limit():
    with pytest.raises(DegreeTooLarge):
        enumerate_all(8)
    with pytest.raises(DegreeTooLarge):
        extend_by_element(uniform(16, 16))


# -- MTRD ---------------------------------------------------------------------


def test_mtrd_example_record(tmp_path):
    p = tmp_path / "u24.mtrd"
    p.write_text("MTRD 1\n4 2 6 3 5 6 9 10 12\n")
    src = parse_mtrd(str(p))
    (m,) = src.representatives(4)
    assert canonical_key(m) == canonical_key(uniform(2, 4))
    assert src.covers(4) and not src.covers(3)


def test_mtrd_empty_body(tmp_path):
    p = tmp_path / "empty.mtrd"
    p.write_text("MTRD 1\n")
    src = parse_mtrd(str(p))
    assert not src.covers(0)


def test_mtrd_roundtrip(tmp_path):
    reps = enumerate_all(4)
    p = tmp_path / "m4.mtrd"
    write_mtrd(str(p), reps, coverage=[4], tags=())
    src = parse_mtrd(str(p))
    assert src.covers(4)
    assert tuple(src.representatives(4)) == tuple(reps)


def test_mtrd_bad_popcount(tmp_path):
    p = tmp_path / "bad.mtrd"
    p.write_text("MTRD 1\n3 2 2 1 6\n")  # mask 1 has popcount 1, not 2
    with pytest.raises(ParseError) as exc_info:
        parse_mtrd(str(p))
    assert exc_info.value.line == 2


def test_mtrd_exchange_violation_carries_line(tmp_path):
    p = tmp_path / "bad2.mtrd"
    p.write_text("MTRD 1\n# comment\n4 2 2 3 12\n")
    with pytest.raises(ExchangeViolation) as exc_info:
        parse_mtrd(str(p))
    assert exc_info.value.line == 3


def test_mtrd_header_and_token_errors(tmp_path):
    p = tmp_path / "x.mtrd"
    p.write_text("MTRDv2\n")
    with pytest.raises(ParseError):
        parse_mtrd(str(p))
    p.write_text("MTRD 1\n4 2 six 3 5\n")
    with pytest.raises(ParseError):
        parse_mtrd(str(p))
    p.write_text("MTRD 1\n4 2 3 3 5\n")
    with pytest.raises(ParseError):
        parse_mtrd(str(p))
    p.write_text("MTRD 1\n4 2 2 5 3\n")  # not increasing
    with pytest.raises(ParseError):
        parse_mtrd(str(p))
    p.write_text("MTRD 1\n2 1\n")  # no count
    with pytest.raises(ParseError, match="at least n, r and a count") as exc_info:
        parse_mtrd(str(p))
    assert exc_info.value.line == 2


def test_mtrd_directives(tmp_path):
    p = tmp_path / "d.mtrd"
    p.write_text(
        "MTRD 1\n# coverage: 1 2\n# property: simple regular\n1 1 1 1\n"
    )
    src = parse_mtrd(str(p))
    assert src.covers(1) and src.covers(2) and not src.covers(3)
    assert src.tags() == {"simple", "regular"}
    assert src.representatives(2) == ()


def test_mtrd_coverage_ranges(tmp_path):
    p = tmp_path / "r.mtrd"
    p.write_text("MTRD 1\n# coverage: 0-2, 4\n1 1 1 1\n")
    src = parse_mtrd(str(p))
    assert [n for n in range(6) if src.covers(n)] == [0, 1, 2, 4]


@pytest.mark.parametrize(
    "directive, message",
    [
        ("# coverage: x", "non-integer coverage token 'x'"),
        ("# coverage: 1 2.5", "non-integer coverage token '2.5'"),
        ("# coverage: 3-", "half-open coverage range '3-'"),
        ("# coverage: -3", "half-open coverage range '-3'"),
        ("# coverage: 9-8", "reversed coverage range '9-8'"),
        ("# coverage: 0-17", "coverage token '0-17' exceeds the 16-element limit"),
        ("# coverage: 3 40", "coverage token '40' exceeds the 16-element limit"),
        ("# property: simple regualr", "unknown property tag 'regualr'"),
    ],
)
def test_malformed_directives_name_their_line(tmp_path, directive, message):
    p = tmp_path / "bad.mtrd"
    p.write_text(f"MTRD 1\n1 1 1 1\n{directive}\n")
    with pytest.raises(ParseError, match=f"{message} \\(line 3\\)") as exc:
        parse_mtrd(str(p))
    assert exc.value.line == 3
    f = tmp_path / "bad.f2db"
    f.write_text(f"{directive}\n10\n01\n")
    with pytest.raises(ParseError) as exc:
        parse_f2db(str(f))
    assert exc.value.line == 1


def test_census_records_duplicate_lines(tmp_path):
    p = tmp_path / "dup.mtrd"
    p.write_text("MTRD 1\n2 1 1 1\n1 1 1 1\n2 1 1 2\n2 1 1 1\n")
    src = parse_mtrd(str(p))
    assert [(ln, first) for ln, first, _ in src.duplicates] == [(4, 2), (5, 2)]
    assert src.duplicates[0][2] == canonical_key(uniform(1, 1).direct_sum(uniform(0, 1)))
    f = tmp_path / "dup.f2db"
    f.write_text("10\n01\n\n01\n10\n")
    assert [(ln, first) for ln, first, _ in parse_f2db(str(f)).duplicates] == [(4, 1)]


# Characters str.splitlines breaks at that a census line keeps.
_NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", _NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_census_lines_break_only_at_newlines(tmp_path, sep):
    # the comment on line 2 stays one line, so the record after it parses
    # and a bad record on line 4 is named as line 4
    p = tmp_path / "c.mtrd"
    p.write_bytes(f"MTRD 1\n# note {sep} continued\n2 1 2 1 2\n".encode())
    (m,) = parse_mtrd(str(p)).representatives(2)
    assert canonical_key(m) == canonical_key(uniform(1, 2))
    p.write_bytes(f"MTRD 1\n# note {sep} continued\n2 1 2 1 2\n2 1 x\n".encode())
    with pytest.raises(ParseError) as exc:
        parse_mtrd(str(p))
    assert exc.value.line == 4
    f = tmp_path / "c.f2db"
    f.write_bytes(f"# note {sep} continued\n11\n".encode())
    (m,) = parse_f2db(str(f)).representatives(2)
    assert canonical_key(m) == canonical_key(uniform(1, 2))
    f.write_bytes(f"# note {sep} continued\n11\n\n12\n".encode())
    with pytest.raises(ParseError) as exc:
        parse_f2db(str(f))
    assert exc.value.line == 4


def test_census_lines_break_at_crlf_and_cr(tmp_path):
    p = tmp_path / "c.mtrd"
    p.write_bytes(b"MTRD 1\r\n# coverage: 1 2\r1 1 1 1\r\n2 1 2 1 2\r")
    src = parse_mtrd(str(p))
    assert [len(src.representatives(n)) for n in (1, 2)] == [1, 1]
    f = tmp_path / "c.f2db"
    f.write_bytes(b"# coverage: 2\r\n10\r01\r\n\r\n11\r2\n")
    with pytest.raises(ParseError) as exc:
        parse_f2db(str(f))
    assert exc.value.line == 6
    p.write_bytes(b"MTRD 1\r# c\r\n\xff\r")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        parse_mtrd(str(p))
    assert exc.value.line == 3


def test_census_may_start_with_a_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"
    p = tmp_path / "c.mtrd"
    p.write_bytes(bom + b"MTRD 1\n2 1 2 1 2\n")
    (m,) = load_source(str(p)).representatives(2)
    assert canonical_key(m) == canonical_key(uniform(1, 2))
    f = tmp_path / "c.f2db"
    f.write_bytes(bom + b"11\n")
    (m,) = load_source(str(f)).representatives(2)
    assert canonical_key(m) == canonical_key(uniform(1, 2))
    # the mark's 3 bytes do not shift the line a bad byte is named at
    p.write_bytes(bom + b"MTRD 1\n# c\n\xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        load_source(str(p))
    assert exc.value.line == 3


# -- F2DB ----------------------------------------------------------------------


def test_f2db_single_block(tmp_path):
    p = tmp_path / "a.f2db"
    p.write_text("10\n01\n")
    src = parse_f2db(str(p))
    (m,) = src.representatives(2)
    assert canonical_key(m) == canonical_key(uniform(2, 2))


def test_f2db_fano_and_two_blocks(tmp_path):
    from matroidc.matroid import fano

    rows = ["".join(str((c >> i) & 1) for c in range(1, 8)) for i in range(3)]
    p = tmp_path / "b.f2db"
    p.write_text("\n".join(rows) + "\n\n10\n01\n")
    src = parse_f2db(str(p))
    assert canonical_key(src.representatives(7)[0]) == canonical_key(fano())
    assert len(src.representatives(2)) == 1


def test_f2db_last_block_needs_no_trailing_newline(tmp_path):
    p = tmp_path / "c.f2db"
    p.write_text("10\n01\n\n11")
    src = parse_f2db(str(p))
    assert len(src.representatives(2)) == 2
    p.write_text("10\n01\n\n11\n1")
    with pytest.raises(ParseError, match="ragged block") as exc_info:
        parse_f2db(str(p))
    assert exc_info.value.line == 4


def test_f2db_errors(tmp_path):
    p = tmp_path / "bad.f2db"
    p.write_text("10\n0\n")
    with pytest.raises(Exception):
        parse_f2db(str(p))
    p.write_text("12\n")
    with pytest.raises(ParseError):
        parse_f2db(str(p))


def test_load_source_dispatch(tmp_path):
    p1 = tmp_path / "a.mtrd"
    p1.write_text("MTRD 1\n1 0 1 0\n")
    p2 = tmp_path / "b.f2db"
    p2.write_text("10\n01\n")
    assert load_source(str(p1)).covers(1)
    assert load_source(str(p2)).covers(2)
    with pytest.raises(ParseError):
        load_source(str(tmp_path / "missing.xyz"))


def test_load_source_env_dir(tmp_path, monkeypatch):
    p = tmp_path / "db.mtrd"
    p.write_text("MTRD 1\n1 0 1 0\n")
    monkeypatch.setenv("MATROIDC_DB_DIR", str(tmp_path))
    assert load_source("db.mtrd").covers(1)


def test_source_coverage_errors():
    src = EnumeratorSource(5)
    with pytest.raises(SourceIncomplete):
        src.require(6)
    assert len(src.require(5)) == 38


def test_enumerator_source_declares_its_simple_and_loopless_tags():
    src = EnumeratorSource(tags={"simple", "binary", "connected"})
    assert src.tags() == {"simple"}
    assert src.require(7) == enumerate_all(7, {"simple"})
    assert EnumeratorSource().tags() == frozenset()
    # a coverage error says which enumerator it came from
    with pytest.raises(SourceIncomplete, match=r"max_n=7, tags=\['simple'\]\) does not cover"):
        src.require(8)
    assert repr(EnumeratorSource(6)) == "EnumeratorSource(max_n=6, tags=[])"


def test_exchange_backtracker_matches_bruteforce():
    # every subset of candidate extension bases accepted by the backtracker,
    # and only those, passes the definition-level exchange check
    def brute(fixed, cands):
        out = set()
        for k in range(len(cands) + 1):
            for combo in combinations(range(len(cands)), k):
                fam = tuple(sorted(fixed + tuple(cands[i] for i in combo)))
                try:
                    check_exchange(fam)
                except ExchangeViolation:
                    continue
                out.add(tuple(cands[i] for i in combo))
        return out

    for parent in enumerate_all(3) + enumerate_all(4):
        r = parent.r
        if r < 1:
            continue
        ebit = 1 << parent.n
        cands = sorted(s | ebit for s in parent.independent_sets(r - 1))
        got = set(_exchange_families(parent.bases, cands))
        assert got == brute(parent.bases, cands)


def test_census_dedups_isomorphic_records(tmp_path):
    # two labelings of the same matroid collapse to one representative
    p = tmp_path / "dup.mtrd"
    p.write_text("MTRD 1\n2 1 1 1\n2 1 1 2\n")
    src = parse_mtrd(str(p))
    assert len(src.representatives(2)) == 1
