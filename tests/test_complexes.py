"""Chain bases, differential matrices, verifiers, duality, homology."""

from itertools import combinations

import pytest

from matroidc import complexes
from matroidc.canonical import canonical_key, has_odd_automorphism
from matroidc.classes import ClassVector
from matroidc.cli import main
from matroidc.complexes import (
    ALL,
    ComplexSpec,
    DifferentialKind as K,
    apply_differential,
    betti_at_bidegree,
    chain_basis,
    differential_matrix,
    dims_table,
    dualize_basis_map,
    homology_table,
    parse_kind,
    verify_anticommute,
    verify_duality,
    verify_square_zero,
)
from matroidc.enumerate import EnumeratorSource, parse_mtrd, write_mtrd
from matroidc.errors import InvalidSpec, PropertyNotDualityStable, SourceIncomplete
from matroidc.linalg import RankPolicy, SparseIntMatrix, rank_exact
from matroidc.matroid import EMPTY, complete_graph, graphic, uniform, wheel
from oracles import mu_sign, verify_bidegrees


def test_spec_parsing():
    s = ComplexSpec.parse("regular, simple, connected")
    assert s.tags == {"regular", "simple", "connected"}
    assert s.label() == "regular+simple+connected"
    assert ComplexSpec.parse("all").label() == "all"
    with pytest.raises(InvalidSpec):
        ComplexSpec.parse("regulr")
    with pytest.raises(InvalidSpec):
        ComplexSpec.parse("regular,connected")  # not loopless
    with pytest.raises(InvalidSpec):
        ComplexSpec(frozenset({"connected"}))
    with pytest.raises(InvalidSpec):
        ComplexSpec.parse("simple").with_slice(("corank", 1))
    with pytest.raises(InvalidSpec):
        parse_kind("dle")
    # specs key the chain-basis and matrix caches: equal specs hash equal
    a, b = ComplexSpec.parse("simple,binary"), ComplexSpec.parse("binary+simple")
    assert a == b and hash(a) == hash(b)
    assert a != ComplexSpec.parse("simple") and a != a.with_slice(("rank", 2))
    assert a.with_slice(("rank", 2)) == b.with_slice(("rank", 2))
    assert ComplexSpec() == ALL == ComplexSpec.parse("all")


def test_spec_takes_any_iterable_of_tags(source):
    # the tags are frozen, so a set or a list gives the spec that parse does
    # and can key the chain-basis cache
    want = ComplexSpec.parse("simple")
    for tags in ({"simple"}, ["simple"]):
        spec = ComplexSpec(tags)
        assert spec == want and hash(spec) == hash(want), tags
        for n in range(7):
            assert chain_basis(n, spec, source).keys == chain_basis(n, want, source).keys


def test_chain_basis_small(source):
    assert chain_basis(0, ALL, source).dim == 1
    assert chain_basis(1, ALL, source).dim == 2
    assert chain_basis(2, ALL, source).dim == 1
    for n in (3, 4, 5):
        assert chain_basis(n, ALL, source).dim == 0
    b6 = chain_basis(6, ALL, source)
    assert b6.dim == 2 and all(k.r == 3 for k in b6.keys)


def test_chain_basis_deterministic_order(source):
    keys = chain_basis(6, ALL, source).keys
    assert list(keys) == sorted(keys, key=lambda k: k.encoding)


def test_chain_basis_slices(source):
    s = ALL.with_slice(("rank", 3))
    assert chain_basis(6, s, source).dim == 2
    assert chain_basis(2, s, source).dim == 0
    s = ALL.with_slice(("nullity", 1))
    assert chain_basis(2, s, source).dim == 1


def test_restricted_enumerator_serves_only_specs_with_its_tags(source):
    simple = EnumeratorSource(tags={"simple"})
    for text in ("simple", "simple,connected", "regular,simple,connected"):
        spec = ComplexSpec.parse(text)
        for n in range(0, 8):
            assert chain_basis(n, spec, simple) == chain_basis(n, spec, source)
    for text in ("loopless", "all", "binary"):
        with pytest.raises(SourceIncomplete, match="cannot serve spec"):
            chain_basis(3, ComplexSpec.parse(text), simple)


def test_chain_basis_tests_tags_in_table_order(monkeypatch):
    # two stages, each in table order whatever the hash seed: the key-free
    # tags the spec implies (binary, from regular) before the canonical
    # search, then the spec's keyed tags
    calls = []
    exact = complexes.PROPERTY_TAGS

    def recording(tag, holds):
        def test(m):
            calls.append((tag, m))
            return holds(m)

        return test

    table = {tag: recording(tag, holds) for tag, holds in exact.items()}
    monkeypatch.setattr(complexes, "PROPERTY_TAGS", table)
    spec = ComplexSpec.parse("connected,regular,loopless,simple")
    assert chain_basis(6, spec, EnumeratorSource()).dim == 1  # M(K4)
    order = ["simple", "loopless", "binary", "connected", "regular"]
    assert list(dict.fromkeys(tag for tag, _ in calls)) == order
    # all() stops at the first failing tag, so a tag is tested only on a
    # record that has passed every tag before it
    for tag, m in calls:
        assert all(exact[t](m) for t in order[:order.index(tag)]), (tag, m)


def test_connected_regular_basis(source):
    spec = ComplexSpec.parse("regular,simple,connected")
    b = chain_basis(6, spec, source)
    assert b.dim == 1
    assert b.keys[0] == canonical_key(graphic(complete_graph(4)))


def test_mu_sign(source):
    k4 = graphic(complete_graph(4))
    # deleting the adjoined loop lands exactly on the K4 class
    m7 = k4.direct_sum(uniform(0, 1))
    target = canonical_key(k4)
    s = mu_sign(m7, 7, target)
    assert s in (1, -1)
    assert mu_sign(m7, 7, target) == s  # deterministic
    # K4 minus an edge has an odd automorphism: every target gets 0
    assert all(
        mu_sign(k4, 1, key) == 0 for key in chain_basis(5, ALL, source).keys
    )
    assert mu_sign(k4, 1, canonical_key(EMPTY)) == 0
    # deletion already canonical: identity witness
    m = uniform(1, 1).direct_sum(uniform(0, 1))
    assert mu_sign(m, 2, canonical_key(uniform(1, 1))) == 1


def test_apply_differential_examples():
    k4 = ClassVector.of(graphic(complete_graph(4)))
    assert apply_differential(K.DEL, k4).is_zero()
    assert apply_differential(K.CON, k4).is_zero()
    unit = ClassVector.of(EMPTY)
    assert apply_differential(K.DEL, ClassVector.of(uniform(0, 1))) == unit
    assert apply_differential(K.CLP, ClassVector.of(uniform(1, 1))) == unit
    assert apply_differential(K.LP, ClassVector.of(uniform(0, 1))) == unit
    assert apply_differential(K.CON, ClassVector.of(uniform(1, 1))) == unit
    assert apply_differential(K.DEL_TOT, ClassVector.of(uniform(0, 1))) == unit


def test_odd_wheel_classes_are_cycles():
    # the cycle half of the odd-wheel conjecture: for odd g the class of
    # M(W_g) is nonzero and both differentials kill it; for even g an odd
    # automorphism makes the class itself zero.  Every child of M(W7) has a
    # clone pair, so only M(W7) itself is searched.
    for g in (3, 4, 5, 6, 7):
        m = graphic(wheel(g))
        assert has_odd_automorphism(m) == (g % 2 == 0), g
        v = ClassVector.of(m)
        assert v.is_zero() == (g % 2 == 0), g
        if g % 2:
            assert apply_differential(K.DEL, v).is_zero()
            assert apply_differential(K.CON, v).is_zero()


def test_differential_matrix_degree_one(source):
    m = differential_matrix(K.DEL, 1, ALL, source)
    assert (m.rows, m.cols) == (1, 2)
    # the loop class maps to the unit, the coloop class dies
    cols = chain_basis(1, ALL, source).keys
    loop_col = next(i for i, k in enumerate(cols) if k.r == 0)
    coloop_col = 1 - loop_col
    assert m.entries == {(0, loop_col): 1}
    assert all((0, coloop_col) != pos for pos in m.entries)


def test_differential_matrix_vanishing_range(source):
    # chain groups vanish for 3 <= n <= 5, so those matrices have a zero side
    for n in range(3, 7):
        m = differential_matrix(K.DEL, n, ALL, source)
        assert m.rows == 0 or m.cols == 0
    # degree 2: deleting the loop of the coloop+loop class leaves the coloop
    m2 = differential_matrix(K.DEL, 2, ALL, source)
    assert (m2.rows, m2.cols) == (2, 1)
    keys = chain_basis(1, ALL, source).keys
    coloop_row = next(i for i, k in enumerate(keys) if k.r == 1)
    assert m2.entries == {(coloop_row, 0): -1}


def test_differential_matrix_top(source):
    m = differential_matrix(K.DEL, 7, ALL, source)
    assert (m.rows, m.cols) == (2, 18)
    assert rank_exact(m) == 2
    assert m.max_abs() >= 1


def test_square_zero_and_anticommute(source):
    for kind in K:
        assert verify_square_zero(kind, 6, ALL, source).ok
    for a, b in ((K.DEL, K.CLP), (K.LP, K.CON), (K.DEL, K.CON), (K.LP, K.CLP)):
        assert verify_anticommute(a, b, 6, ALL, source).ok


def test_bidegree_shifts(source):
    assert verify_bidegrees(6, source).ok


def test_duality_map(source):
    d1 = dualize_basis_map(1, ALL, source)
    keys = chain_basis(1, ALL, source).keys
    loop_i = next(i for i, k in enumerate(keys) if k.r == 0)
    coloop_i = 1 - loop_i
    assert d1.entries == {(coloop_i, loop_i): 1, (loop_i, coloop_i): 1}
    assert verify_duality(6, ALL, source).ok
    # the n=6 slice is self-dual: both keys have self-dual matroids
    d6 = dualize_basis_map(6, ALL, source)
    assert set(d6.entries) <= {(0, 0), (1, 1), (0, 1), (1, 0)}


def test_duality_requires_stable_spec(source):
    with pytest.raises(PropertyNotDualityStable):
        dualize_basis_map(2, ComplexSpec.parse("simple"), source)
    dualize_basis_map(2, ComplexSpec.parse("regular"), source)


def test_duality_with_explicit_dual_spec(source):
    # graphic classes dualize onto cographic ones, bijectively
    g = ComplexSpec.parse("graphic")
    cg = ComplexSpec.parse("cographic")
    for n in range(0, 7):
        d = dualize_basis_map(n, g, source, dual_spec=cg)
        dim = chain_basis(n, g, source).dim
        assert d.nnz == dim == chain_basis(n, cg, source).dim
    with pytest.raises(PropertyNotDualityStable):
        # the non-graphic degree-6 class is not hit: bases mismatch
        dualize_basis_map(6, ALL, source, dual_spec=cg)


def test_nonzero_del_cycles_are_simple(source):
    unit_key = canonical_key(EMPTY)
    for n in range(1, 7):
        for key in chain_basis(n, ALL, source).keys:
            if key == unit_key:
                continue
            if apply_differential(K.DEL, ClassVector({key: 1})).is_zero():
                assert key.matroid().is_simple()


def test_connected_quotient_well_defined(source):
    # deletion children of disconnected loopless classes stay disconnected
    for n in range(1, 7):
        for key in chain_basis(n, ComplexSpec.parse("loopless"), source).keys:
            m = key.matroid()
            if m.is_connected():
                continue
            coloops = m.coloops()
            for x in range(1, n + 1):
                if x in coloops:
                    continue
                child = m.delete(x)
                if child.n:
                    assert not child.is_connected()


@pytest.mark.parametrize("spec", ["loopless,connected", "simple,connected"])
@pytest.mark.parametrize("kind", [K.CLP, K.CON, K.DEL_TOT, K.CON_TOT])
def test_connected_quotient_drops_the_empty_child(source, spec, kind):
    # removing the coloop leaves the empty matroid, which is not connected,
    # so the quotient map sends the one boundary term to zero
    coloop, empty = canonical_key(uniform(1, 1)), canonical_key(EMPTY)
    spec = ComplexSpec.parse(spec)
    assert chain_basis(1, spec, source).keys == (coloop,)
    assert chain_basis(0, spec, source).dim == 0
    assert list(complexes._boundary_terms(kind, coloop)) == [(empty, 1)]
    m = differential_matrix(kind, 1, spec, source)
    assert (m.rows, m.cols) == (0, 1) and m.entries == {}
    # without the quotient the same term is an entry
    full = differential_matrix(kind, 1, ALL, source)
    col = chain_basis(1, ALL, source).keys.index(coloop)
    assert full.entries.get((0, col)) == 1


def test_homology_tables(source):
    t = homology_table(ALL, K.DEL, 6, source)
    assert [row.betti for row in t] == [0] * 7
    t = homology_table(ComplexSpec.parse("simple"), K.DEL, 6, source)
    assert [row.betti for row in t] == [1, 1, 0, 0, 0, 0, 0]
    t_loopless = homology_table(ComplexSpec.parse("loopless"), K.DEL, 6, source)
    assert [row.betti for row in t_loopless] == [1, 1, 0, 0, 0, 0, 0]


def test_homology_exact_policy_matches_default(source):
    exact = homology_table(ALL, K.DEL, 6, source, RankPolicy(exact=True))
    default = homology_table(ALL, K.DEL, 6, source)
    assert [r.betti for r in exact] == [r.betti for r in default]
    assert all(r.certified == "exact" for r in exact)


class UndercountingPolicy(RankPolicy):
    """Modular ranks one short of the exact ones: a lower bound, as the
    policy's contract allows, so the Betti numbers it gives are too large."""

    def rank(self, mat):
        return max(rank_exact(mat) - 1, 0), "modular"


def test_nonzero_modular_betti_is_confirmed_exactly(source):
    confirmed = 0
    for kind in (K.DEL, K.CON):
        exact = homology_table(ALL, kind, 6, source, RankPolicy(exact=True))
        under = homology_table(ALL, kind, 6, source, UndercountingPolicy())
        for e, u in zip(exact, under, strict=True):
            assert (u.dim, u.rank_out, u.rank_in, u.betti) == (
                e.dim, e.rank_out, e.rank_in, e.betti,
            ), (kind, e.n)
            if e.dim - max(e.rank_out - 1, 0) - max(e.rank_in - 1, 0):
                assert u.certified == "exact", (kind, e.n)
                confirmed += 1
    assert confirmed == 8  # degrees 0, 1, 2 and 6 under each kind


def test_homology_top_degree_upper_bound(source):
    t = homology_table(ALL, K.DEL, 7, source)
    top = t.rows[-1]
    assert top.certified == "upper_bound" and top.rank_in is None
    assert top.betti == 16  # 18 - rank(del_7) = upper bound only


def test_homology_coverage_error():
    src = EnumeratorSource(4)
    with pytest.raises(SourceIncomplete):
        homology_table(ALL, K.DEL, 6, src)


def test_betti_at_bidegree(source):
    spec = ComplexSpec.parse("regular,simple,connected")
    t = betti_at_bidegree(spec, K.DEL, 6, 3, source)
    assert t.rows[0].betti == 1 and t.rows[0].dim == 1
    with pytest.raises(InvalidSpec):
        betti_at_bidegree(spec, K.DEL_TOT, 6, 3, source)


def test_dims_table(source):
    rows = dims_table(ALL, 6, source)
    nonzero = {(n, r): d for n, r, d in rows if d}
    assert nonzero == {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (6, 3): 2}


def test_rank2_slice_is_empty(source):
    for n in range(2, 7):
        assert chain_basis(n, ALL.with_slice(("rank", 2)), source).dim == 0


def test_source_tag_compatibility(tmp_path, source):
    from matroidc.enumerate import parse_mtrd, write_mtrd

    reps = [m for m in source.representatives(3) if m.is_simple()]
    p = tmp_path / "s.mtrd"
    write_mtrd(str(p), reps, coverage=[3], tags=["simple"])
    src = parse_mtrd(str(p))
    # a simple-only census cannot serve the full complex
    with pytest.raises(SourceIncomplete):
        chain_basis(3, ALL, src)
    assert chain_basis(3, ComplexSpec.parse("simple"), src).dim >= 0


@pytest.mark.parametrize("declared,spec,served", [
    ("binary", "binary", True),
    ("binary", "binary,regular", True),
    ("binary", "regular", True),
    ("binary", "graphic", True),
    ("binary", "cographic,simple", True),
    ("ternary", "regular", True),
    ("binary,ternary", "graphic", True),
    ("regular", "cographic", True),
    ("loopless", "simple", True),
    ("connected", "regular,simple,connected", True),
    ("binary", "ternary", False),
    ("binary", "all", False),
    ("regular", "binary", False),
    ("graphic", "regular", False),
    ("simple", "loopless", False),
    ("connected", "simple", False),
])
def test_declared_tags_serve_the_specs_they_contain(declared, spec, served):
    from matroidc.enumerate import FileSource

    src = FileSource({}, range(8), declared.split(","))
    spec = ComplexSpec.parse(spec)
    if served:
        complexes._check_source_tags(spec, src)
    else:
        with pytest.raises(SourceIncomplete, match="cannot serve spec"):
            complexes._check_source_tags(spec, src)


@pytest.mark.parametrize("declared", [
    {"simple"}, {"binary"}, {"regular"}, {"graphic"}, {"simple", "connected"},
], ids=["simple", "binary", "regular", "graphic", "simple+connected"])
def test_census_serves_the_enumerators_chain_bases(declared, tmp_path):
    # an MTRD census of every class with n <= 6 that carries the declared
    # tags; MTRD only, as there is no F2DB writer
    enumerated = EnumeratorSource(6)
    classes = {
        n: tuple(m for m in enumerated.representatives(n)
                 if all(complexes.PROPERTY_TAGS[t](m) for t in declared))
        for n in range(7)
    }
    path = str(tmp_path / "c.mtrd")
    write_mtrd(path, [m for n in range(7) for m in classes[n]], range(7), declared)
    census = parse_mtrd(path)
    assert census.tags() == declared
    assert {n: census.representatives(n) for n in range(7)} == classes
    served = 0
    for size in range(len(complexes.PROPERTY_TAGS) + 1):
        for tags in combinations(complexes.PROPERTY_TAGS, size):
            try:
                spec = ComplexSpec(frozenset(tags))
                complexes._check_source_tags(spec, census)
            except (InvalidSpec, SourceIncomplete):
                continue
            served += 1
            for n in range(7):
                assert chain_basis(n, spec, census) == chain_basis(n, spec, enumerated)
    assert served


def test_betti_at_bidegree_contraction_side(source):
    # con fixes nullity: the (2,1) slice is spanned by the coloop+loop class,
    # whose contraction boundary hits the loop class
    t = betti_at_bidegree(ALL, K.CON, 2, 1, source)
    assert t.rows[0].dim == 1 and t.rows[0].betti == 0


def test_homology_checks_square_zero_in_band(source, monkeypatch):
    # Dropping the signs of the total deletion differential d_2 breaks
    # d_1 d_2 = 0: the loop+coloop class then reaches the empty class twice.
    # No rank or nullity slice through n <= 7 has three nonzero groups in a
    # row, so a slice is broken by giving del's d_6 a row: on the (6,3)
    # slice d_6 d_7 is then nonzero.
    exact = complexes.differential_matrix

    def broken(kind, n, spec, src):
        mat = exact(kind, n, spec, src)
        if kind is K.DEL and n == 6:
            return SparseIntMatrix(1, mat.cols, {(0, 0): 1})
        if n != 2:
            return mat
        return SparseIntMatrix(mat.rows, mat.cols, {p: abs(v) for p, v in mat.entries.items()})

    monkeypatch.setattr(complexes, "differential_matrix", broken)
    with pytest.raises(SourceIncomplete, match=r"kind del-tot, n=2: witness=Key\(n=2,"):
        homology_table(ALL, K.DEL_TOT, 3, source)
    assert verify_square_zero(K.DEL_TOT, 3, ALL, source).lines[1] == (
        "FAIL square-zero del-tot n=2 witness=Key(n=2,r=1,+,[1])"
    )
    assert main(["homology", "--kind", "del-tot", "--max-n", "3"]) == 2
    with pytest.raises(SourceIncomplete, match=r"kind del, n=7: witness=Key\(n=7,r=3,"):
        betti_at_bidegree(ALL, K.DEL, 6, 3, source)
    assert main(["homology", "--kind", "del", "--bidegree", "6,3"]) == 2


class RecordingSource(EnumeratorSource):
    """The enumerator's classes, noting every degree it is asked about."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def covers(self, n):
        self.asked.add(n)
        return super().covers(n)

    def representatives(self, n):
        self.asked.add(n)
        return super().representatives(n)


@pytest.mark.parametrize("kind, n, r", [(K.DEL, 6, 3), (K.CON, 2, 1), (K.LP, 6, 3)])
def test_betti_at_bidegree_reads_only_three_degrees(source, kind, n, r):
    src = RecordingSource()
    rows = betti_at_bidegree(ALL, kind, n, r, src).rows
    assert src.asked == {n - 1, n, n + 1}
    assert rows == betti_at_bidegree(ALL, kind, n, r, source).rows
