"""Class vectors, normalization signs, and chain-group dimensions."""

import random
from fractions import Fraction

from matroidc.canonical import canonical_key, perm_sign, relabel
from matroidc.classes import ClassVector, normalize
from matroidc.complexes import ALL, ComplexSpec, chain_basis
from matroidc.enumerate import EnumeratorSource, MatroidSource, enumerate_all
from matroidc.matroid import EMPTY, Graph, complete_graph, graphic, uniform


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


def _clear_caches():
    from matroidc import canonical

    normalize.cache_clear()
    canonical._canon.cache_clear()
    canonical._representatives.clear()


def _searches(monkeypatch) -> list:
    """Record the (n, r, bases) of every canonical search from here on."""
    from matroidc import canonical

    searched = []
    search = canonical._search

    def logging(n, r, bases):
        searched.append((n, r, bases))
        return search(n, r, bases)

    monkeypatch.setattr(canonical, "_search", logging)
    return searched


def test_classes_with_clones_are_never_searched(monkeypatch):
    parallel = graphic(Graph(3, [(1, 2), (1, 2), (2, 3), (1, 3)]))
    gated = (uniform(0, 2), uniform(2, 2), uniform(2, 4), parallel, parallel.dual())
    _clear_caches()
    searched = _searches(monkeypatch)
    for m in gated:
        assert normalize(m) is None
        assert ClassVector.of(m).is_zero()
    assert searched == []


class _Records(MatroidSource):
    def __init__(self, records: dict):
        self._records = records

    def covers(self, n: int) -> bool:
        return n in self._records

    def representatives(self, n: int):
        return self._records[n]


def test_chain_basis_searches_only_records_without_clones(monkeypatch):
    rng = random.Random(26)
    records = {}
    for n in range(7):
        shuffled = []
        for m in enumerate_all(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            shuffled.append(relabel(m, tuple(p)))
        records[n] = tuple(shuffled)
    src = _Records(records)
    _clear_caches()
    searched = _searches(monkeypatch)
    dims = [chain_basis(n, ALL, src).dim for n in range(7)]
    assert dims == [1, 2, 1, 0, 0, 0, 2]
    # each record without a clone pair is searched once, and no other
    ungated = [(m.n, m.r, m.bases) for n in range(7) for m in records[n] if not m.has_clone_pair()]
    assert sorted(searched) == sorted(ungated) != []


def test_enumerator_chain_basis_searches_only_clone_free_candidates(monkeypatch):
    # the enumerator's records at the top degree are its key-free extension
    # candidates, so only those without a clone pair are searched
    simple = ComplexSpec({"simple"})
    src = EnumeratorSource(7, {"simple"})
    records = src.records(7)
    _clear_caches()
    searched = _searches(monkeypatch)
    basis = chain_basis(7, simple, src)
    clone_free = [(m.n, m.r, m.bases) for m in records if not m.has_clone_pair()]
    assert sorted(searched) == sorted(clone_free)
    assert (len(clone_free), len(records)) == (21, 104)
    reps = _Records({7: enumerate_all(7, {"simple"})})
    assert basis.keys == chain_basis(7, simple, reps).keys != ()


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
