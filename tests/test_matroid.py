"""Basis-family matroid operations against small independent oracles."""

import random
from itertools import combinations

import pytest

from matroidc.canonical import canonical_key, relabel
from matroidc.enumerate import enumerate_all
from matroidc.errors import (
    BadPopcount,
    BitOutOfRange,
    ElementOutOfRange,
    EmptyBases,
    ExchangeViolation,
    InvalidGenus,
    InvalidRank,
    RaggedMatrix,
)
from matroidc.matroid import (
    EMPTY,
    _completions,
    _partition_roots,
    Graph,
    Matroid,
    check_exchange,
    complete_graph,
    fano,
    from_bases,
    from_f2_matrix,
    graphic,
    uniform,
    wheel,
)
from oracles import (
    check_exchange_pairwise,
    excluded_minors,
    has_clone_pair_bruteforce,
    holds_by_excluded_minors,
)


def mask(*elements):
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


# -- oracles -----------------------------------------------------------------


def spanning_forests(graph, size):
    """Masks of the size-edge sets without a cycle, each grown edge by edge in
    a union-find that stops at the first cycle; independent of graphic()."""
    out = []
    for combo in combinations(range(len(graph.edges)), size):
        parent = list(range(graph.v + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in combo:
            a, b = graph.edges[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            parent[rb] = ra
        else:
            out.append(sum(1 << i for i in combo))
    return sorted(out)


def partition_classes(n, pairs):
    """Connected components of the graph on range(n) with the pairs as edges,
    by breadth-first search."""
    adjacent = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    seen = set()
    classes = set()
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        component, frontier = [start], [start]
        while frontier:
            for y in adjacent[frontier.pop(0)]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
                    frontier.append(y)
        classes.add(frozenset(component))
    return classes


def f2_independent(cols):
    """Gaussian elimination over F2 on column tuples of 0/1."""
    rows = len(cols[0])
    mat = [list(c) for c in cols]
    rank = 0
    for r in range(rows):
        piv = next((i for i in range(rank, len(mat)) if mat[i][r]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][r]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank == len(cols)


def _compress_bit(mask, i):
    """Drop bit position i from mask, shifting higher bits down."""
    return mask & ((1 << i) - 1) | (mask >> (i + 1)) << i


def delete_one(m, x):
    """M \\ x by the single-element rule, independent of Matroid.minor."""
    i = x - 1
    bit = 1 << i
    if m.coloops_mask() & bit:
        bases = {_compress_bit(b & ~bit, i) for b in m.bases}
        return Matroid(m.n - 1, m.r - 1, tuple(sorted(bases)))
    bases = {_compress_bit(b, i) for b in m.bases if not b & bit}
    return Matroid(m.n - 1, m.r, tuple(sorted(bases)))


def contract_one(m, x):
    """M / x by the single-element rule, independent of Matroid.minor."""
    i = x - 1
    bit = 1 << i
    if m.loops_mask() & bit:
        bases = {_compress_bit(b, i) for b in m.bases}
        return Matroid(m.n - 1, m.r, tuple(sorted(bases)))
    bases = {_compress_bit(b & ~bit, i) for b in m.bases if b & bit}
    return Matroid(m.n - 1, m.r - 1, tuple(sorted(bases)))


def minor_one_at_a_time(m, contract, delete):
    """M / C \\ D one element at a time, highest label first, so the labels
    still to be removed do not move."""
    for x in range(m.n, 0, -1):
        if contract >> (x - 1) & 1:
            m = contract_one(m, x)
        elif delete >> (x - 1) & 1:
            m = delete_one(m, x)
    return m


def slow_exchange_ok(bases):
    """Definition-level (B2) check on frozensets."""
    fam = [frozenset(i for i in range(16) if b >> i & 1) for b in bases]
    fam_set = set(fam)
    for s in fam:
        for t in fam:
            if s == t:
                continue
            for x in s - t:
                if not any((s - {x}) | {y} in fam_set for y in t - s):
                    return False
    return True


def same(a, b):
    return (a.n, a.r, a.bases) == (b.n, b.r, b.bases)


# -- constructors --------------------------------------------------------------


def test_from_bases_loop_matroid():
    m = from_bases(1, 0, [0])
    assert (m.n, m.r, m.bases) == (1, 0, (0,))
    assert m.loops() == {1}


def test_from_bases_uniform24():
    m = from_bases(4, 2, [mask(a, b) for a, b in combinations((1, 2, 3, 4), 2)])
    assert m == uniform(2, 4)
    assert len(m.bases) == 6


def test_from_bases_single_basis_has_vacuous_exchange():
    m = from_bases(2, 1, [mask(1)])
    assert m.loops() == {2}
    assert m.coloops() == {1}


def test_from_bases_dedups_and_sorts():
    m = from_bases(2, 1, [mask(2), mask(1), mask(2)])
    assert m.bases == (1, 2)


def test_from_bases_errors():
    with pytest.raises(EmptyBases):
        from_bases(2, 1, [])
    with pytest.raises(BadPopcount):
        from_bases(3, 2, [mask(1)])
    with pytest.raises(BitOutOfRange):
        from_bases(2, 1, [mask(3)])
    # {1,2} and {3,4} cannot exchange x=1
    with pytest.raises(ExchangeViolation):
        from_bases(4, 2, [mask(1, 2), mask(3, 4)])


def exchange_outcome(check, bases):
    try:
        check(bases)
    except ExchangeViolation as exc:
        return exc.args, exc.s_mask, exc.t_mask, exc.x
    return None


def test_check_exchange_matches_the_pairwise_reference():
    # matroids, matroids with one basis dropped, and random families; the
    # first violation must be the one the pairwise loop finds
    rng = random.Random(2)
    families = []
    for n in range(6):
        for m in enumerate_all(n):
            families.append(m.bases)
            families += [m.bases[:k] + m.bases[k + 1:] for k in range(1, len(m.bases))]
    for _ in range(3000):
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        subsets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
        families.append(tuple(sorted(rng.sample(subsets, rng.randint(1, len(subsets))))))
    got = [exchange_outcome(check_exchange, f) for f in families]
    assert got == [exchange_outcome(check_exchange_pairwise, f) for f in families]
    assert got.count(None) > 500 and len(got) - got.count(None) > 500


def test_completions_match_the_table_from_every_basis_subset():
    # the keys are the (r-1)-subsets of bases and each value holds every x
    # completing its key to a basis; each class is checked whole and with
    # each basis dropped, since check_exchange reads the table for
    # families that are not matroids too
    def brute(n, bases):
        family = set(bases)
        keys = {
            sum(1 << i for i in c)
            for b in bases if b
            for c in combinations([i for i in range(n) if b >> i & 1], b.bit_count() - 1)
        }
        return {
            k: sum(1 << x for x in range(n) if not k >> x & 1 and k | 1 << x in family)
            for k in keys
        }

    for n in range(7):
        for m in enumerate_all(n):
            for k in range(len(m.bases) + 1):
                fam = m.bases[:k] + m.bases[k + 1:]
                assert _completions(fam) == brute(n, fam), (m, k)


def test_uniform():
    assert len(uniform(2, 4).bases) == 6
    u01 = uniform(0, 1)
    assert u01.loops() == {1} and u01.coloops() == set()
    u11 = uniform(1, 1)
    assert u11.coloops() == {1}
    with pytest.raises(InvalidRank):
        uniform(3, 2)
    with pytest.raises(InvalidRank):
        uniform(-1, 2)


def test_graphic_k4():
    k4 = graphic(complete_graph(4))
    assert (k4.n, k4.r) == (6, 3)
    assert len(k4.bases) == len(spanning_forests(complete_graph(4), 3)) == 16
    assert k4.loops() == set() and k4.coloops() == set()


def test_graphic_matches_forest_oracle():
    k33 = Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    for g in (wheel(3), wheel(4), wheel(5), wheel(6), complete_graph(4), complete_graph(5), k33):
        m = graphic(g)
        assert m.r == g.v - 1  # every one of these graphs is connected
        assert list(m.bases) == spanning_forests(g, m.r), g


def test_graphic_loop_edge():
    m = graphic(Graph(1, [(1, 1)]))
    assert canonical_key(m) == canonical_key(uniform(0, 1))


def test_wheel_shapes():
    w3 = wheel(3)
    assert (w3.v, len(w3.edges)) == (4, 6)
    assert (wheel(5).v, len(wheel(5).edges)) == (6, 10)
    w1 = wheel(1)
    assert (w1.v, len(w1.edges)) == (2, 2)
    assert w1.edges[1] == (2, 2)  # degenerate rim loop
    with pytest.raises(InvalidGenus):
        wheel(0)


def test_wheel3_is_k4():
    assert canonical_key(graphic(wheel(3))) == canonical_key(graphic(complete_graph(4)))


def test_from_f2_fano():
    f7 = fano()
    assert (f7.n, f7.r) == (7, 3)
    cols = [[(c >> i) & 1 for i in range(3)] for c in range(1, 8)]
    expected = [
        combo
        for combo in combinations(range(7), 3)
        if f2_independent([cols[j] for j in combo])
    ]
    assert len(f7.bases) == len(expected) == 28


def test_from_f2_small():
    assert from_f2_matrix([[1, 0], [0, 1]]) == uniform(2, 2)
    m = from_f2_matrix([[1, 0, 0], [0, 1, 0]])
    assert m.loops() == {3}
    with pytest.raises(RaggedMatrix):
        from_f2_matrix([[1, 0], [1]])
    with pytest.raises(RaggedMatrix):
        from_f2_matrix([])


# -- element predicates ---------------------------------------------------------


def test_loops_coloops_examples():
    assert uniform(0, 1).loops() == {1}
    assert uniform(1, 1).coloops() == {1}
    k4 = graphic(complete_graph(4))
    assert k4.loops() == set() == k4.coloops()


def test_clone_gate_cases():
    # two loops, two coloops, U(2,4), a parallel pair (a triangle with a
    # doubled edge) and a series pair (its dual) have clones; M(K4) = M(W3),
    # M(W5) and M(W7) have none
    parallel = graphic(Graph(3, [(1, 2), (1, 2), (2, 3), (1, 3)]))
    for m in (uniform(0, 2), uniform(2, 2), uniform(2, 4), parallel, parallel.dual()):
        assert m.has_clone_pair(), m
    for g in (3, 5, 7):
        assert not graphic(wheel(g)).has_clone_pair(), g
    assert not graphic(complete_graph(4)).has_clone_pair()
    assert not EMPTY.has_clone_pair() and not uniform(0, 1).has_clone_pair()


def test_clone_gate_is_exact_and_sound():
    # the gate fires exactly when some transposition fixes the bases, in the
    # enumerated labelling and in a random one, and a transposition is odd
    rng = random.Random(26)
    fired = 0
    for n in range(8):
        for m in enumerate_all(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            for q in (m, relabel(m, tuple(p))):
                gated = q.has_clone_pair()
                assert gated == has_clone_pair_bruteforce(q), q
                assert not gated or canonical_key(q).odd_auto, q
                fired += gated
    assert fired == 2 * 446


def test_simple_loopless():
    assert not uniform(1, 2).is_simple()  # parallel pair
    assert graphic(complete_graph(4)).is_simple()
    assert not uniform(0, 1).is_loopless()
    assert EMPTY.is_simple()


# -- deletion / contraction / duality ---------------------------------------------


def test_delete_contract_examples():
    assert uniform(2, 4).delete(4) == uniform(2, 3)
    assert uniform(2, 4).contract(4) == uniform(1, 3)
    assert uniform(0, 1).contract(1) == EMPTY
    assert uniform(0, 1).delete(1) == EMPTY
    with pytest.raises(ElementOutOfRange):
        uniform(2, 4).delete(5)


def test_restrict_is_delete_complement():
    m = graphic(complete_graph(4))
    assert m.restrict([1, 2, 3, 4, 5, 6]) == m
    assert m.restrict([]) == EMPTY
    sub = m.restrict([1, 2, 4])
    assert sub.n == 3


def test_contract_set_order_independent():
    rng = random.Random(3)
    for m in enumerate_all(5):
        elements = [x for x in range(1, 6) if rng.random() < 0.5]
        asc = m.contract_set(elements)
        desc = m
        for x in sorted(elements, reverse=True):
            desc = desc.contract(x)
        assert asc == desc


def test_restrict_and_contract_set_match_single_element_route():
    # the one-pass kernel against deleting or contracting one element at a
    # time by the single-element rule, for every class with n <= 6 and every
    # subset
    for n in range(0, 7):
        for m in enumerate_all(n):
            full = (1 << n) - 1
            for x in range(1, n + 1):
                assert same(m.delete(x), delete_one(m, x))
                assert same(m.contract(x), contract_one(m, x))
            for smask in range(1 << n):
                elements = [x for x in range(1, n + 1) if smask >> (x - 1) & 1]
                assert same(m.restrict(elements), minor_one_at_a_time(m, 0, full & ~smask))
                assert same(m.contract_set(elements), minor_one_at_a_time(m, smask, 0))


def test_minor_matches_single_element_route():
    # every pair of disjoint contraction and deletion sets, n <= 5
    for n in range(0, 6):
        for m in enumerate_all(n):
            for cmask in range(1 << n):
                rest = ((1 << n) - 1) & ~cmask
                dmask = rest
                while True:
                    got = m.minor(cmask, dmask)
                    assert same(got, minor_one_at_a_time(m, cmask, dmask))
                    if not dmask:
                        break
                    dmask = (dmask - 1) & rest


def test_minor_checks_its_masks():
    m = uniform(2, 4)
    for contract, delete in ((1 << 4, 0), (0, 1 << 4), (-1, 0), (0, -2),
                             (mask(1, 2), mask(2, 3)), (mask(4), mask(4))):
        with pytest.raises(ElementOutOfRange):
            m.minor(contract, delete)
    assert m.minor(0, 0) == m
    assert m.minor(mask(1), mask(2)) == uniform(1, 2)


def test_restrict_and_contract_set_check_elements():
    m = uniform(2, 4)
    for bad in ([5], [0], [1, 5], [-1]):
        with pytest.raises(ElementOutOfRange):
            m.restrict(bad)
        with pytest.raises(ElementOutOfRange):
            m.contract_set(bad)
    assert m.contract_set([]) == m
    assert m.contract_set([2, 2]) == m.contract(2)


def test_dual_examples():
    assert uniform(2, 4).dual() == uniform(2, 4)
    assert uniform(0, 1).dual() == uniform(1, 1)
    d = graphic(complete_graph(4)).dual()
    assert (d.n, d.r) == (6, 3)
    assert slow_exchange_ok(d.bases)


def test_dual_involution_exhaustive():
    for n in range(0, 7):
        for m in enumerate_all(n):
            assert m.dual().dual() == m


def test_loops_dualize_to_coloops():
    for n in range(0, 7):
        for m in enumerate_all(n):
            assert m.loops() == m.dual().coloops()


def test_direct_sum():
    s = uniform(1, 1).direct_sum(uniform(0, 1))
    assert (s.n, s.r, s.bases) == (2, 1, (1,))
    assert EMPTY.direct_sum(s) == s
    assert uniform(2, 3).direct_sum(uniform(1, 2)).r == 3


def test_rank_lemma_exhaustive():
    # deletion keeps rank unless x is a coloop; contraction drops it
    # unless x is a loop
    for n in range(1, 6):
        for m in enumerate_all(n):
            coloops = m.coloops()
            loops = m.loops()
            for x in range(1, n + 1):
                assert m.delete(x).r == m.r - (x in coloops)
                assert m.contract(x).r == m.r - (x not in loops)


def test_rank_additivity_restriction_contraction():
    for n in range(0, 6):
        for m in enumerate_all(n):
            for smask in range(1 << n):
                s = [i + 1 for i in range(n) if smask >> i & 1]
                assert m.r == m.restrict(s).r + m.contract_set(s).r


def test_delete_commutes():
    for n in range(2, 6):
        for m in enumerate_all(n):
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    if x == y:
                        continue
                    # relabel-consistent: delete larger index first on one side
                    a, b = max(x, y), min(x, y)
                    left = m.delete(a).delete(b)
                    right = m.delete(b).delete(a - 1)
                    assert left == right
                    assert m.contract(a).contract(b) == m.contract(b).contract(a - 1)


# -- circuits and connectivity -----------------------------------------------------


def test_circuits_and_independent_sets_match_rank_oracle():
    # circuits are the minimal sets S with rank_of(S) < |S|, and the
    # components are the classes of the partition joining the elements of
    # each, ordered by smallest element; the independent k-sets are the
    # k-subsets of bases, in combinations order.  A relabelling moves the
    # first basis, which the components are read from.
    rng = random.Random(27)
    for n in range(0, 7):
        for m in enumerate_all(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            for q in (m, relabel(m, tuple(p))):

                def dependent(s):
                    return q.rank_of(s) < s.bit_count()

                circuits = [
                    [i for i in range(n) if s >> i & 1] for s in range(1 << n)
                    if dependent(s)
                    and not any(dependent(s & ~(1 << i)) for i in range(n) if s >> i & 1)
                ]
                pairs = [(min(c), x) for c in circuits for x in c]
                classes = sorted(partition_classes(n, pairs), key=min)
                assert q.components() == [{x + 1 for x in c} for c in classes], q.bases
                for k in range(n + 2):
                    subsets = [mask(*c) for c in combinations(range(1, n + 1), k)]
                    want = [s for s in subsets if any(s & b == s for b in q.bases)]
                    assert q.independent_sets(k) == want, (q.bases, k)


def test_partition_roots_match_bfs_components():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(13)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        roots = _partition_roots(n, pairs)
        classes = partition_classes(n, pairs)
        assert {frozenset(x for x in range(n) if roots[x] == root) for root in roots} == classes
        for cls in classes:
            assert {roots[x] for x in cls} == {min(cls)}, (n, pairs)


def test_partition_roots_continue_from_an_earlier_result():
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randrange(13)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        cut = rng.randrange(len(pairs) + 1)
        first = _partition_roots(n, pairs[:cut])
        assert _partition_roots(n, pairs[cut:], first) == _partition_roots(n, pairs), (n, pairs, cut)


def test_components_examples():
    two = uniform(1, 1).direct_sum(uniform(1, 1))
    assert two.components() == [{1}, {2}]
    assert graphic(complete_graph(4)).is_connected()
    assert not EMPTY.is_connected()
    assert uniform(0, 1).is_connected() and uniform(1, 1).is_connected()


def test_components_reassemble():
    for n in range(1, 7):
        for m in enumerate_all(n):
            parts = m.components()
            rebuilt = EMPTY
            for part in parts:
                rebuilt = rebuilt.direct_sum(m.restrict(sorted(part)))
            assert canonical_key(rebuilt) == canonical_key(m)


# -- minors and representability -----------------------------------------------------


def test_minors_in_chained_deletion_order():
    # has_minor stops at the first match, so the order of minors is part of
    # its cost: contracted independent sets in combinations order, then
    # deletions of the highest labels first, one element at a time
    def chained(m, n_target, r_target):
        k = m.r - r_target
        if k < 0 or n_target < 0 or n_target > m.n - k:
            return []
        out = []
        for c in combinations(range(1, m.n + 1), k):
            if m.rank_of(mask(*c)) < k:
                continue
            contracted = minor_one_at_a_time(m, mask(*c), 0)
            for dele in combinations(range(contracted.n, 0, -1), contracted.n - n_target):
                x = contracted
                for e in dele:
                    x = delete_one(x, e)
                if x.r == r_target:
                    out.append(x)
        return out

    for n in range(0, 6):
        for m in enumerate_all(n):
            for n_target in range(-1, n + 1):
                for r_target in range(-1, n + 1):
                    got = list(m.minors(n_target, r_target))
                    want = chained(m, n_target, r_target)
                    assert [x.bases for x in got] == [x.bases for x in want]
                    assert got == want


def test_has_minor_examples():
    u24 = uniform(2, 4)
    k4 = graphic(complete_graph(4))
    assert u24.has_minor(u24)
    assert not k4.has_minor(u24)
    assert not fano().has_minor(u24)
    assert k4.has_minor(uniform(1, 2))


def _has_minor_unfiltered(m, pattern):
    # has_minor without the basis-count filter: every distinct minor of the
    # pattern's size and rank is canonically labelled
    want = canonical_key(pattern)
    return any(canonical_key(x) == want for x in set(m.minors(pattern.n, pattern.r)))


def test_has_minor_agrees_with_unfiltered_route():
    patterns = set()
    for which in ("binary", "ternary", "regular", "graphic", "cographic"):
        patterns.update(excluded_minors(which))
    for n in range(0, 8):
        for m in enumerate_all(n):
            for x in patterns:
                assert m.has_minor(x) == _has_minor_unfiltered(m, x), (m.bases, x)


def test_has_minor_skips_search_on_basis_count(monkeypatch):
    from matroidc import canonical

    # U(3,7) has 35 bases and its only rank-3 minor on 7 elements is itself,
    # while F7 and F7* have 28: no minor can match, so nothing is searched.
    canonical._canon.cache_clear()
    canonical._representatives.clear()
    patterns = (fano(), fano().dual())
    for x in patterns:
        canonical_key(x)
    calls = []
    search = canonical._search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(canonical, "_search", counting)
    for x in patterns:
        assert not uniform(3, 7).has_minor(x)
    assert calls == []
    # a minor with the pattern's basis count is still searched
    assert relabel(fano(), (2, 1, 3, 4, 5, 6, 7)).has_minor(fano())
    assert len(calls) == 1


def test_representability_flags():
    k4 = graphic(complete_graph(4))
    assert k4.is_regular() and k4.is_binary() and k4.is_ternary()
    assert k4.is_graphic() and k4.is_cographic()
    assert not uniform(2, 4).is_binary()
    assert uniform(2, 4).is_ternary()
    f7 = fano()
    assert f7.is_binary() and not f7.is_regular() and not f7.is_ternary()
    # graphic matroids are regular
    for g in (complete_graph(3), wheel(3), Graph(2, [(1, 2), (1, 2)])):
        assert graphic(g).is_regular()


def test_binary_by_representation_matches_u24_route():
    # every class with n <= 7, each in three seeded relabellings
    rng = random.Random(7)
    seen = 0
    for n in range(8):
        for m in enumerate_all(n):
            want = holds_by_excluded_minors(m, "binary")
            seen += want
            for _ in range(3):
                p = list(range(1, n + 1))
                rng.shuffle(p)
                assert relabel(m, tuple(p)).is_binary() == want, (m.bases, p)
    assert seen == 279  # 1, 2, 4, 8, 16, 32, 68, 148 binary classes (OEIS A076766)


@pytest.mark.parametrize("which", ["regular", "graphic", "cographic"])
def test_binary_gated_predicates_match_full_excluded_minor_lists(which):
    holds = getattr(Matroid, f"is_{which}")
    for n in range(8):
        for m in enumerate_all(n):
            assert holds(m) == holds_by_excluded_minors(m, which), m.bases
    k5 = graphic(complete_graph(5))
    k33 = graphic(Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))
    for m in (k5, k33, k5.dual(), k33.dual()):
        assert holds(m) == holds_by_excluded_minors(m, which), m


def test_random_relabelings_stay_valid():
    rng = random.Random(11)
    for m in enumerate_all(5):
        p = list(range(1, 6))
        rng.shuffle(p)
        q = relabel(m, tuple(p))
        assert slow_exchange_ok(q.bases)


def test_nonplanar_graphic_not_cographic():
    k5 = graphic(complete_graph(5))
    k33 = graphic(Graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))
    for m in (k5, k33):
        assert m.is_graphic() and m.is_regular()
        assert not m.is_cographic()
        assert m.dual().is_cographic() and not m.dual().is_graphic()
