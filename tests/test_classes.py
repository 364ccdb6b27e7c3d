"""Class vectors, normalization signs, and chain-group dimensions."""

import random
from fractions import Fraction

import pytest

from matroidc.canonical import canonical_key, perm_sign, relabel
from matroidc.classes import ClassVector, normalize
from matroidc.complexes import DifferentialKind as K, apply_differential
from matroidc.enumerate import enumerate_all
from matroidc.matroid import EMPTY, complete_graph, graphic, uniform, wheel


def test_normalize_zero_class():
    assert normalize(uniform(2, 4)) is None
    assert normalize(uniform(1, 2)) is None  # parallel pair


def test_normalize_nonzero():
    key, sign = normalize(graphic(complete_graph(4)))
    assert sign in (1, -1)
    assert not key.odd_auto
    assert normalize(EMPTY) == (canonical_key(EMPTY), 1)


def test_normalize_sign_composes_with_relabelings():
    rng = random.Random(99)
    for n in range(1, 6):
        for m in enumerate_all(n):
            nz = normalize(m)
            if nz is None:
                continue
            key, sign = nz
            for _ in range(20):
                p = list(range(1, n + 1))
                rng.shuffle(p)
                p = tuple(p)
                nz2 = normalize(relabel(m, p))
                assert nz2 is not None
                key2, sign2 = nz2
                assert key2 == key
                assert sign2 == sign * perm_sign(p)


def test_vector_arithmetic():
    v = ClassVector.of(uniform(1, 1))
    assert v.add(v.scale(-1)).is_zero()
    assert v.scale(0).is_zero()
    w = ClassVector.of(uniform(0, 1))
    s = v.add(w)
    assert len(s.terms) == 2
    assert s.coefficient(canonical_key(uniform(1, 1))) == Fraction(1)


def test_map_is_the_linear_extension():
    loop, coloop = canonical_key(uniform(0, 1)), canonical_key(uniform(1, 1))
    images = {loop: [(coloop, 3)], coloop: [(loop, 1), (coloop, 1)]}
    v = ClassVector({loop: 2, coloop: -1})
    assert v.map(images.__getitem__) == ClassVector({coloop: 5, loop: -1})
    # images that cancel leave no zero coefficient behind
    assert v.map(lambda k: [(loop, 1)]) == ClassVector({loop: 1})
    assert ClassVector({loop: 1, coloop: -1}).map(lambda k: [(loop, 1)]).is_zero()


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_odd_wheels_are_cycles_and_even_wheels_vanish(g):
    v = ClassVector.of(graphic(wheel(g)))
    if g % 2 == 0:
        # M(W_g) has an odd automorphism, so its class is zero
        assert v.is_zero()
        return
    assert not v.is_zero()
    for kind in (K.DEL, K.CON):
        assert apply_differential(kind, v).is_zero()


def test_bidegrees():
    # (nullity, rank)
    assert canonical_key(graphic(complete_graph(4))).bidegree == (3, 3)
    assert canonical_key(uniform(0, 1)).bidegree == (1, 0)
    assert canonical_key(uniform(1, 1)).bidegree == (0, 1)


def test_chain_dimensions_match_reported_table():
    # row sums per degree: 1, 2, 1, 0, 0, 0, 2 for n = 0..6
    dims = []
    for n in range(0, 7):
        dims.append(
            sum(1 for m in enumerate_all(n) if normalize(m) is not None)
        )
    assert dims == [1, 2, 1, 0, 0, 0, 2]
