"""Product, coproduct, graded identities and contracting homotopies."""

from fractions import Fraction

import pytest

from matroidc.canonical import canonical_key
from matroidc.classes import ClassVector
from matroidc.complexes import ALL, DifferentialKind as K, apply_differential, chain_basis
from matroidc.errors import InvalidSpec, MixedDegree
from matroidc.hopf import (
    _shuffle_sign,
    connected_dim_check,
    contracting_homotopy,
    coproduct,
    counit,
    star,
    unit,
    verify_associativity,
    verify_bialgebra,
    verify_coassociativity,
    verify_coderivation,
    verify_graded_commutativity,
    verify_homotopy,
    verify_leibniz,
    verify_unit_counit,
)
from matroidc.enumerate import EnumeratorSource
from matroidc.matroid import EMPTY, complete_graph, graphic, uniform
from oracles import coproduct_direct


def cls(m):
    return ClassVector.of(m)


def test_star_unit_and_vanishing():
    v = cls(graphic(complete_graph(4)))
    assert star(unit(), v) == v and star(v, unit()) == v
    # two coloops kill the class
    assert star(cls(uniform(1, 1)), cls(uniform(1, 1))).is_zero()
    # loop + coloop survives
    s = star(cls(uniform(1, 1)), cls(uniform(0, 1)))
    assert not s.is_zero()
    assert s.coefficient(canonical_key(uniform(1, 1).direct_sum(uniform(0, 1)))) != 0


def test_star_degree_additivity():
    s = star(cls(uniform(0, 1)), cls(graphic(complete_graph(4))))
    assert s.degrees() == {7}


def test_shuffle_sign():
    # S = {2} in [6]: one inversion moving 2 to the front
    assert _shuffle_sign(0b000010, 6) == -1
    assert _shuffle_sign(0b000001, 6) == 1
    assert _shuffle_sign(0, 6) == 1
    assert _shuffle_sign(0b111111, 6) == 1
    # S = {2,4} in [4]: (2,4,1,3) has 1+2 inversions... sign -1
    assert _shuffle_sign(0b1010, 4) == -1


def test_coproduct_coloop():
    t = coproduct(cls(uniform(1, 1)))
    e = canonical_key(EMPTY)
    c = canonical_key(uniform(1, 1))
    assert t.terms == {(e, c): Fraction(1), (c, e): Fraction(1)}


def test_coproduct_unit():
    t = coproduct(unit())
    e = canonical_key(EMPTY)
    assert t.terms == {(e, e): Fraction(1)}


def test_coproduct_k4_boundary_terms():
    k4 = graphic(complete_graph(4))
    t = coproduct(cls(k4))
    e = canonical_key(EMPTY)
    k = canonical_key(k4)
    assert t.terms.get((e, k)) == 1 and t.terms.get((k, e)) == 1
    # all 62 middle terms die: restrictions/contractions of K4 at
    # intermediate sizes carry odd automorphisms
    assert len(t.terms) == 2


def test_operator_tables_give_the_same_terms_on_every_read():
    # the per-key tables must hold values: a cached generator would come back
    # exhausted on the second read and zero the result
    k4 = cls(graphic(complete_graph(4)))
    loop, coloop = cls(uniform(0, 1)), cls(uniform(1, 1))
    for v in (k4, coloop, loop):
        first, second = coproduct(v), coproduct(v)
        assert first == second and not first.is_zero()
    for a, b in ((k4, loop), (coloop, loop)):
        first, second = star(a, b), star(a, b)
        assert first == second and not first.is_zero()
    # removing either summand of the coloop plus the loop leaves a class
    # of its own, so that boundary has two terms
    both = star(coloop, loop)
    for kind, v in ((K.DEL, loop), (K.CON, coloop), (K.DEL_TOT, both)):
        first, second = apply_differential(kind, v), apply_differential(kind, v)
        assert first == second and not first.is_zero()
    assert len(apply_differential(K.DEL_TOT, both).terms) == 2


def test_coproduct_matches_the_direct_subset_sum():
    # runs after other tests have filled the coproduct table
    source = EnumeratorSource()
    for n in range(0, 7):
        for key in chain_basis(n, ALL, source).keys:
            assert coproduct(ClassVector({key: 1})) == coproduct_direct(key), key


def test_coproduct_bidegree_additive(source):
    for n in range(0, 7):
        for key in chain_basis(n, ALL, source).keys:
            k0, r0 = key.bidegree
            for (ka, kb) in coproduct(ClassVector({key: 1})).terms:
                assert (ka.n - ka.r + kb.n - kb.r, ka.r + kb.r) == (k0, r0)


def test_counit():
    assert counit(unit()) == 1
    assert counit(cls(graphic(complete_graph(4)))) == 0
    v = unit().scale(3).add(cls(uniform(1, 1)).scale(-1))
    assert counit(v) == 3


def test_operators_on_basis_classes_keep_int_coefficients(source):
    # every structure constant is +-1, so nothing built from basis keys
    # leaves the integers
    keys = [key for n in range(0, 5) for key in chain_basis(n, ALL, source).keys]
    outputs = {"coproduct": [], "differential": [], "homotopy": [], "star": []}
    for key in keys:
        v = ClassVector({key: 1})
        outputs["coproduct"].append(coproduct(v))
        for kind in K:
            outputs["differential"].append(apply_differential(kind, v))
            outputs["homotopy"].append(contracting_homotopy(kind, v))
        outputs["star"].extend(star(v, ClassVector({k2: 1})) for k2 in keys)
    for name, vectors in outputs.items():
        coeffs = [c for v in vectors for c in v.terms.values()]
        assert coeffs and all(type(c) is int for c in coeffs), name
    assert type(counit(unit())) is int and counit(unit()) == 1


def test_fraction_coefficients_stay_exact():
    half = Fraction(1, 2)
    k4 = cls(graphic(complete_graph(4)))
    loop = cls(uniform(0, 1))
    v = k4.scale(half)
    assert v.add(v) == k4
    assert v.add(loop).terms == {**v.terms, **loop.terms}
    s = star(v, loop)
    assert {abs(c) for c in s.terms.values()} == {half}
    assert all(type(c) is Fraction for c in s.terms.values())
    assert s.scale(2) == star(k4, loop)


def test_coassociativity(source):
    assert verify_coassociativity(5, source).ok


def test_coassociativity_k4(source):
    # degree six: ordered partitions of [6] into three blocks must agree
    from matroidc.hopf import verify_coassociativity as vc

    rep = vc(6, source)
    assert rep.ok


def test_bialgebra(source):
    assert verify_bialgebra(5, source).ok


def test_bialgebra_coloop_loop_pair():
    a = cls(uniform(0, 1))
    b = cls(uniform(1, 1))
    # hand expansion: Delta(a*b) has the four subset terms of the two-element
    # loop+coloop matroid; compare against the graded tensor product
    from matroidc.hopf import _tensor_star

    lhs = coproduct(star(a, b))
    rhs = _tensor_star(coproduct(a), coproduct(b))
    assert lhs == rhs and len(lhs.terms) == 4


def test_associativity_and_commutativity(source):
    assert verify_associativity(5, source).ok
    assert verify_graded_commutativity(5, source).ok
    assert verify_unit_counit(5, source).ok


def test_identity_failures_name_witnesses(source, monkeypatch):
    # a + 2b is neither unital, associative nor graded commutative
    import matroidc.hopf as hopf

    monkeypatch.setattr(hopf, "star", lambda a, b: a.add(b.scale(2)))
    unit_rep = verify_unit_counit(1, source)
    assert unit_rep.lines[0] == "FAIL unit n=0 witness=Key(n=0,r=0,+,[0])"
    for rep in (
        unit_rep,
        verify_associativity(1, source),
        verify_graded_commutativity(1, source),
    ):
        fails = [line for line in rep.lines if line.startswith("FAIL")]
        assert fails and all(" witness=Key(" in line for line in fails)
        assert all("witness" not in line for line in rep.lines if line.startswith("PASS"))


def test_leibniz_all_kinds(source):
    for kind in K:
        assert verify_leibniz(kind, 5, source).ok


def test_leibniz_two_loops_vanish():
    a = cls(uniform(0, 1))
    lhs = apply_differential(K.DEL, star(a, a))
    rhs = star(apply_differential(K.DEL, a), a).add(
        star(a, apply_differential(K.DEL, a)).scale(-1)
    )
    assert star(a, a).is_zero() and lhs == rhs == ClassVector()


def test_coderivations(source):
    for kinds, side in (((K.DEL, K.CLP, K.DEL_TOT), "right"), ((K.CON, K.LP, K.CON_TOT), "left")):
        for kind in kinds:
            rep = verify_coderivation(kind, 5, source)
            assert rep.ok
            assert rep.lines[0].startswith(f"PASS coderivation-{side} {kind.value} ")


def test_coderivation_on_k4(source):
    # both sides vanish for K4 but only after the subset sums cancel
    assert verify_coderivation(K.DEL, 6, source).ok
    assert verify_coderivation(K.CON, 6, source).ok


def test_homotopy_examples():
    h_unit = contracting_homotopy(K.DEL, unit())
    assert h_unit == cls(uniform(0, 1))
    assert apply_differential(K.DEL, h_unit) == unit()
    k4 = cls(graphic(complete_graph(4)))
    dh = apply_differential(K.DEL_TOT, contracting_homotopy(K.DEL_TOT, k4))
    hd = contracting_homotopy(K.DEL_TOT, apply_differential(K.DEL_TOT, k4))
    assert dh.add(hd) == k4


def test_homotopy_generator_validation():
    with pytest.raises(InvalidSpec):
        contracting_homotopy(K.DEL, unit(), generator="coloop")
    with pytest.raises(InvalidSpec):
        contracting_homotopy(K.CON, unit(), generator="loop")
    with pytest.raises(InvalidSpec):
        contracting_homotopy(K.DEL, unit(), generator="whirl")
    with pytest.raises(MixedDegree):
        contracting_homotopy(K.DEL, unit().add(cls(uniform(1, 1))))


def test_homotopy_sweep(source):
    for kind, gen in (
        (K.DEL, "loop"),
        (K.DEL_TOT, "loop"),
        (K.DEL_TOT, "coloop"),
        (K.CON, "coloop"),
        (K.CON_TOT, "coloop"),
        (K.CON_TOT, "loop"),
        (K.LP, "loop"),
        (K.CLP, "coloop"),
    ):
        assert verify_homotopy(kind, 4, source, gen).ok


def test_free_supercommutative_dims(source):
    rep = connected_dim_check(6, source)
    assert rep.ok
    # degree 2: the two odd degree-1 generators contribute their wedge
    assert any("n=2 expected=1 got=1" in line for line in rep.lines)
