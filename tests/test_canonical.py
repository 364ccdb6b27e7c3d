"""Canonical labeling, witnesses and automorphism parity."""

import gc
import random
from itertools import combinations, permutations

from matroidc.canonical import (
    CanonicalKey,
    apply_perm_mask,
    automorphism_generators,
    _search,
    canonical_form,
    canonical_key,
    has_odd_automorphism,
    iso_witness,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_sign,
    relabel,
)
from matroidc.enumerate import enumerate_all
from matroidc.matroid import EMPTY, Graph, complete_graph, from_bases, graphic, uniform, wheel
from oracles import (
    automorphism_group,
    automorphisms_bruteforce,
    has_odd_automorphism_bruteforce,
    has_series_pair,
    search_blockwise,
)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3, 4)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign(()) == 1


def test_perm_algebra():
    p = (3, 1, 2)
    assert perm_compose(p, perm_inverse(p)) == perm_identity(3)
    assert apply_perm_mask(0b011, p) == 0b101  # {1,2} -> {3,1}


def test_canonical_is_iso_invariant():
    rng = random.Random(20240809)
    for n in range(1, 6):
        for m in enumerate_all(n):
            key = canonical_key(m)
            for _ in range(50):
                p = list(range(1, n + 1))
                rng.shuffle(p)
                assert canonical_key(relabel(m, tuple(p))) == key


def test_canonical_witness_lands_on_representative():
    rng = random.Random(7)
    for n in range(1, 6):
        for m in enumerate_all(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            q = relabel(m, tuple(p))
            key, w = canonical_form(q)
            assert relabel(q, w).bases == key.masks


def test_canonical_distinguishes():
    assert canonical_key(graphic(complete_graph(4))) != canonical_key(uniform(3, 6))


def test_canonical_empty():
    key, w = canonical_form(EMPTY)
    assert key.masks == (0,) and not key.odd_auto and w == ()


def test_search_matches_blockwise_reference():
    # the column scan explores the same tree as the per-candidate block
    # search: same witness, odd flag, and generators in the same order
    from matroidc import canonical

    cases = []
    for n in range(0, 8):
        for m in enumerate_all(n):
            for seed in range(3):
                p = list(range(1, n + 1))
                random.Random(seed * 1000 + n).shuffle(p)
                cases.append(relabel(m, tuple(p)))
    cases += [graphic(wheel(5)), graphic(wheel(6)), graphic(complete_graph(5)), uniform(4, 9)]
    # n = 9 with small groups, the shapes that dominate a census run:
    # M(K3,3), M(W5)\e and a rank-4 sparse paving matroid, two labellings each
    hyperplanes = [(1, 2, 3, 4), (1, 2, 5, 6), (3, 5, 7, 8), (2, 4, 7, 9), (1, 6, 8, 9)]
    circuits = {sum(1 << (e - 1) for e in h) for h in hyperplanes}
    paving = from_bases(9, 4, [
        b for b in (sum(1 << e for e in c) for c in combinations(range(9), 4)) if b not in circuits
    ])
    k33 = Graph(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
    for m in (graphic(k33), graphic(wheel(5)).delete(1), paving):
        for seed in range(2):
            p = list(range(1, m.n + 1))
            random.Random(seed * 1000 + m.n).shuffle(p)
            cases.append(relabel(m, tuple(p)))
    for m in cases:
        bases = frozenset(m.bases)
        assert canonical._search(m.n, m.r, bases) == search_blockwise(m.n, m.r, bases), m


def test_search_generators_hold_no_identity_and_no_repeat():
    # the first leaf is the incumbent, so no later leaf retraces its path;
    # and a node skips every sibling in the orbit of one already tried under
    # the automorphisms found so far, so no generator is found twice
    assert _search(0, 0, (0,)) == ((), False, [])
    for n in range(8):
        for m in enumerate_all(n):
            for seed in range(3):
                p = list(range(1, n + 1))
                random.Random(seed * 1000 + n).shuffle(p)
                q = relabel(m, tuple(p))
                _, _, gens = _search(q.n, q.r, q.bases)
                assert tuple(range(n)) not in gens, q
                assert len(set(gens)) == len(gens), q


def test_fresh_subsets_follow_the_parents_in_colex_order():
    # a node at depth d scans its parent's (r-1)-subsets, then its fresh
    # ones; together they must be every (r-1)-subset of range(d), in colex
    from matroidc.canonical import _colex_combos, _fresh_rests

    for n in range(13):
        for r in range(n + 1):
            for d in range(n):
                inherited = _colex_combos(d - 1, r - 1) if d else ()
                fresh = tuple(rest + (d - 1,) if d else rest for rest in _fresh_rests(d, r))
                assert inherited + fresh == _colex_combos(d, r - 1), (n, r, d)


def test_odd_automorphism_examples():
    assert has_odd_automorphism(uniform(2, 4))
    assert not has_odd_automorphism(graphic(complete_graph(4)))
    assert has_odd_automorphism(uniform(0, 1).direct_sum(uniform(0, 1)))
    assert not has_odd_automorphism(uniform(1, 1).direct_sum(uniform(0, 1)))


def test_odd_automorphism_matches_bruteforce():
    for n in range(0, 6):
        for m in enumerate_all(n):
            assert has_odd_automorphism(m) == has_odd_automorphism_bruteforce(m)


def test_automorphism_groups():
    assert len(automorphism_group(uniform(2, 4))) == 24
    assert automorphism_group(uniform(1, 1)) == [(1,)]
    k4 = graphic(complete_graph(4))
    group = automorphism_group(k4)
    assert len(group) == 24
    assert all(perm_sign(p) == 1 for p in group)  # Aut(M(K4)) inside A6
    assert len(group) == len(automorphisms_bruteforce(k4))


def test_generators_are_automorphisms():
    for n in range(1, 6):
        for m in enumerate_all(n):
            base_set = set(m.bases)
            for p in automorphism_generators(m):
                assert all(apply_perm_mask(b, p) in base_set for b in m.bases)


def test_generated_group_is_complete():
    for n in range(1, 6):
        for m in enumerate_all(n):
            assert len(automorphism_group(m)) == len(automorphisms_bruteforce(m))


def test_single_basis_classes_go_through_the_search(monkeypatch):
    from math import factorial

    from matroidc import canonical

    _clear_canonical_caches()
    calls = []
    search = canonical._search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(canonical, "_search", counting)
    for n in range(0, 9):
        for m in (uniform(0, n), uniform(n, n)):
            key, witness = canonical_form(m)
            assert key.masks == m.bases and witness == perm_identity(n)
            assert key.odd_auto == (n >= 2)
            for g in automorphism_generators(m):
                assert {apply_perm_mask(b, g) for b in m.bases} == set(m.bases)
            if n <= 5:
                assert len(automorphism_group(m)) == factorial(n)
    assert len(calls) == 17  # U(0,0) == U(0,0); every other class searched once
    monkeypatch.setattr(canonical, "_search", search)
    _clear_canonical_caches()


def test_iso_witness():
    u = uniform(2, 3)
    w = iso_witness(u, u)
    assert w is not None and relabel(u, w) == u
    assert iso_witness(uniform(2, 4), graphic(complete_graph(4))) is None
    rng = random.Random(5)
    for n in range(1, 6):
        for m in enumerate_all(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            q = relabel(m, tuple(p))
            w = iso_witness(q, m)
            assert w is not None and relabel(q, w) == m


def test_witness_sign_well_defined_without_odd_autos():
    # all basis-preserving bijections onto the canonical rep share one sign
    for n in range(1, 6):
        for m in enumerate_all(n):
            key = canonical_key(m)
            if key.odd_auto:
                continue
            rep_bases = set(key.masks)
            signs = {
                perm_sign(p)
                for p in permutations(range(1, n + 1))
                if all(apply_perm_mask(b, p) in rep_bases for b in m.bases)
            }
            assert len(signs) == 1


def test_vanishing_patterns_force_odd_autos():
    # parallel pairs, series pairs, two loops or two coloops all yield an
    # orientation-reversing transposition
    for n in range(2, 7):
        for m in enumerate_all(n):
            if (
                m.has_parallel_pair()
                or has_series_pair(m)
                or len(m.loops()) >= 2
                or len(m.coloops()) >= 2
            ):
                assert has_odd_automorphism(m)


def test_key_encoding_sorts_deterministically():
    keys = [canonical_key(m) for m in enumerate_all(4)]
    enc = [k.encoding for k in keys]
    assert sorted(enc) == sorted(set(enc))
    assert all(isinstance(e, bytes) for e in enc)


def test_key_equality_and_hash_follow_the_fields():
    # class vectors and sets of keys iterate in hash order, so the hash is
    # pinned to the field tuple
    for m in (EMPTY, uniform(1, 1), uniform(2, 4), graphic(complete_graph(4))):
        key = canonical_key(m)
        assert hash(key) == hash((key.n, key.r, key.masks, key.odd_auto))
        twin = CanonicalKey(key.n, key.r, key.masks, key.odd_auto)
        assert twin == key and twin is not key
        assert CanonicalKey(key.n, key.r, key.masks, not key.odd_auto) != key
        assert key != (key.n, key.r, key.masks, key.odd_auto)


def test_canonical_is_lexmin_sorted_mask_sequence():
    # the definition, checked literally: minimal sorted mask tuple over all
    # relabelings
    from itertools import permutations as perms

    for n in range(1, 6):
        for m in enumerate_all(n):
            best = min(
                tuple(sorted(apply_perm_mask(b, p) for b in m.bases))
                for p in perms(range(1, n + 1))
            )
            assert canonical_key(m).masks == best


def test_canonical_is_idempotent():
    for n in range(0, 7):
        for m in enumerate_all(n):
            key = canonical_key(m)
            assert canonical_key(key.matroid()) == key
            assert key.masks == key.matroid().bases


def test_normalize_sign_agrees_with_bruteforce_witness():
    # any basis-preserving bijection onto the representative gives the same
    # sign; the search witness must match it
    import random

    from matroidc.classes import normalize

    rng = random.Random(2)
    for n in range(1, 6):
        for m in enumerate_all(n):
            nz = normalize(m)
            if nz is None:
                continue
            key, sign = nz
            rep_bases = set(key.masks)
            brute = next(
                p
                for p in permutations(range(1, n + 1))
                if all(apply_perm_mask(b, p) in rep_bases for b in m.bases)
            )
            assert sign == perm_sign(brute)


def _clear_canonical_caches():
    from matroidc import canonical

    canonical._canon.cache_clear()
    canonical._representatives.clear()


def _stored_result_cases():
    for n in range(0, 7):
        yield from enumerate_all(n)
    yield graphic(wheel(5))


def test_representative_is_answered_by_the_search_that_found_it(monkeypatch):
    from matroidc import canonical
    from matroidc.classes import normalize

    rng = random.Random(41)
    for m in _stored_result_cases():
        p = list(range(1, m.n + 1))
        rng.shuffle(p)
        q = relabel(m, tuple(p))
        _clear_canonical_caches()
        key = canonical_key(q)
        rep = key.matroid()
        calls = []
        search = canonical._search

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(canonical, "_search", counting)
        got_key, witness = canonical_form(rep)
        gens = automorphism_generators(rep)
        group = automorphism_group(rep)
        nz = normalize(rep)
        monkeypatch.setattr(canonical, "_search", search)
        assert got_key == key
        if q != rep:
            # the stored result: no second search, the identity witness
            assert calls == []
            assert witness == perm_identity(m.n)
        rep_bases = set(rep.bases)
        for g in gens:
            assert all(apply_perm_mask(b, g) in rep_bases for b in rep.bases)
        _clear_canonical_caches()
        assert len(group) == len(automorphism_group(rep))
        assert nz == normalize(rep)


def test_search_leaves_no_reference_cycle():
    # the recursive search must free its tables on return, not leave them
    # for the cyclic collector
    m = graphic(wheel(5))
    gc.collect()
    gc.disable()
    try:
        _search(m.n, m.r, frozenset(m.bases))
        assert gc.collect() == 0
    finally:
        gc.enable()
