"""Acceptance suite: each test prints one PASS/FAIL line (run with -s).

Frozen expected values come from the reported dimension and homology
tables for the full deletion/contraction complexes and their regular,
binary, ternary, simple and loopless subcomplexes through ground-set
size 7, plus structural identities checked exhaustively at small degree.
"""

import glob
import os

import pytest

from matroidc.canonical import canonical_key, has_odd_automorphism
from matroidc.classes import ClassVector, normalize
from matroidc.complexes import (
    ALL,
    ComplexSpec,
    DifferentialKind as K,
    apply_differential,
    betti_at_bidegree,
    chain_basis,
    differential_matrix,
    dims_table,
    homology_table,
    verify_anticommute,
    verify_duality,
    verify_square_zero,
)
from matroidc.enumerate import (
    enumerate_all,
    enumerate_by_extension,
    load_source,
)
from matroidc.hopf import (
    connected_dim_check,
    verify_associativity,
    verify_bialgebra,
    verify_coassociativity,
    verify_coderivation,
    verify_graded_commutativity,
    verify_homotopy,
    verify_leibniz,
    verify_unit_counit,
)
from matroidc.linalg import PRIMES, rank_exact, rank_modular
from matroidc.matroid import complete_graph, graphic, wheel
from oracles import enumerate_direct, has_odd_automorphism_bruteforce


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def nonzero_dims(spec, source, max_n=7):
    return {(n, r): d for n, r, d in dims_table(spec, max_n, source) if d}


FULL_DIMS = {
    (0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1,
    (6, 3): 2, (7, 3): 9, (7, 4): 9,
}
LOW_DIMS = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1}
REGULAR_DIMS = LOW_DIMS | {(6, 3): 1, (7, 3): 1, (7, 4): 1}
BINARY_DIMS = LOW_DIMS | {(6, 3): 1, (7, 3): 2, (7, 4): 2}
TERNARY_DIMS = LOW_DIMS | {(6, 3): 2, (7, 3): 4, (7, 4): 4}
SIMPLE_DIMS = {(0, 0): 1, (1, 1): 1, (6, 3): 2, (7, 3): 7, (7, 4): 9}


def test_criterion_1_full_chain_dimensions(source):
    ok = nonzero_dims(ALL, source) == FULL_DIMS
    report("criterion-1 full chain dimensions n<=7", ok)


def test_criterion_2_subcomplex_dimensions(source):
    ok = nonzero_dims(ComplexSpec.parse("regular"), source) == REGULAR_DIMS
    ok &= nonzero_dims(ComplexSpec.parse("binary"), source) == BINARY_DIMS
    ok &= nonzero_dims(ComplexSpec.parse("ternary"), source) == TERNARY_DIMS
    simple = dims_table(ComplexSpec.parse("simple"), 7, source)
    loopless = dims_table(ComplexSpec.parse("loopless"), 7, source)
    ok &= {(n, r): d for n, r, d in simple if d} == SIMPLE_DIMS
    ok &= simple == loopless
    report("criterion-2 subcomplex dimensions and simple=loopless", ok)


def test_criterion_3_acyclicity(source):
    ok = True
    for spec, kind in (
        (ALL, K.DEL),
        (ALL, K.DEL_TOT),
        (ALL, K.CON),
        (ALL, K.CON_TOT),
        (ComplexSpec.parse("binary"), K.DEL),
        (ComplexSpec.parse("ternary"), K.DEL),
        (ComplexSpec.parse("regular"), K.DEL),
    ):
        table = homology_table(spec, kind, 6, source)
        ok &= [row.betti for row in table] == [0] * 7
    report("criterion-3 acyclicity of full and P-subcomplexes", ok)


def test_criterion_4_simple_loopless_homology(source):
    ok = True
    for name in ("simple", "loopless"):
        table = homology_table(ComplexSpec.parse(name), K.DEL, 6, source)
        ok &= [row.betti for row in table] == [1, 1, 0, 0, 0, 0, 0]
    report("criterion-4 simple/loopless homology Q,Q,0..", ok)


def test_criterion_5_rank_two_vanishing(source):
    ok = all(
        chain_basis(n, ALL.with_slice(("rank", 2)), source).dim == 0
        for n in range(2, 8)
    )
    report("criterion-5 rank-2 chain groups vanish", ok)


def test_criterion_6_k4_cycle():
    k4 = graphic(complete_graph(4))
    v = ClassVector.of(k4)
    ok = normalize(k4) is not None and not v.is_zero()
    ok &= apply_differential(K.DEL, v).is_zero()
    ok &= apply_differential(K.CON, v).is_zero()
    report("criterion-6 K4 class nonzero with vanishing boundaries", ok)


def test_criterion_7_odd_wheel_seed(source):
    spec = ComplexSpec.parse("regular,simple,loopless,connected")
    b6 = chain_basis(6, spec.with_slice(("rank", 3)), source)
    b7 = chain_basis(7, spec.with_slice(("rank", 3)), source)
    ok = b6.dim == 1 and b7.dim == 0
    ok &= b6.keys[0] == canonical_key(graphic(wheel(3)))
    table = betti_at_bidegree(spec, K.DEL, 6, 3, source)
    ok &= table.rows[0].betti == 1
    report("criterion-7 odd-wheel class generates H at (6,3)", ok)


def _find_census():
    dbdir = os.environ.get("MATROIDC_DB_DIR")
    if not dbdir:
        return None
    for path in sorted(glob.glob(os.path.join(dbdir, "*"))):
        if not path.endswith((".mtrd", ".f2db")):
            continue
        try:
            src = load_source(path)
        except Exception:
            continue
        tags = src.tags()
        if {"regular", "simple", "connected"} <= tags and all(
            src.covers(n) for n in range(1, 12)
        ):
            return src
    return None


def test_criterion_7_db_gated_w5():
    src = _find_census()
    if src is None:
        pytest.skip("no connected simple regular census through n=11 supplied")
    spec = ComplexSpec.parse("regular,simple,loopless,connected")
    dims = nonzero_dims(spec, src, max_n=11)
    ok = dims.get((10, 5)) == 2 and dims.get((11, 5)) == 1 and dims.get((11, 6)) == 1
    table = betti_at_bidegree(spec, K.DEL, 10, 5, src)
    ok &= table.rows[0].betti == 1
    w5 = canonical_key(graphic(wheel(5)))
    ok &= w5 in chain_basis(10, spec.with_slice(("rank", 5)), src).keys
    report("criterion-7b census-backed W5 homology at (10,5)", ok)


def test_criterion_8_structural_suites(source):
    ok = True
    for kind in K:
        ok &= verify_square_zero(kind, 7, ALL, source).ok
    for spec_name in ("simple", "binary", "ternary", "regular"):
        ok &= verify_square_zero(K.DEL, 7, ComplexSpec.parse(spec_name), source).ok
    for a, b in ((K.DEL, K.CLP), (K.LP, K.CON), (K.DEL, K.CON), (K.LP, K.CLP)):
        ok &= verify_anticommute(a, b, 7, ALL, source).ok
    ok &= verify_unit_counit(5, source).ok
    ok &= verify_associativity(5, source).ok
    ok &= verify_graded_commutativity(5, source).ok
    ok &= verify_coassociativity(5, source).ok
    ok &= verify_bialgebra(5, source).ok
    for kind in K:
        ok &= verify_leibniz(kind, 5, source).ok
    for kind in (K.DEL, K.CLP, K.CON, K.LP):
        ok &= verify_coderivation(kind, 5, source).ok
    for kind, gen in (
        (K.DEL, "loop"),
        (K.DEL_TOT, "loop"),
        (K.CON, "coloop"),
        (K.CON_TOT, "coloop"),
    ):
        ok &= verify_homotopy(kind, 6, source, gen).ok
    ok &= verify_duality(6, ALL, source).ok
    ok &= connected_dim_check(7, source).ok
    report("criterion-8 structural identity suites", ok)


def test_criterion_9_cross_oracles(source):
    ok = True
    for n in range(0, 7):
        for m in enumerate_all(n):
            if has_odd_automorphism(m) != has_odd_automorphism_bruteforce(m):
                ok = False
    for kind in K:
        for n in range(1, 8):
            mat = differential_matrix(kind, n, ALL, source)
            mr = rank_modular(mat, PRIMES)
            ok &= mr.agree and mr.value == rank_exact(mat)
    for spec_name in ("simple", "loopless", "binary", "ternary", "regular"):
        for n in range(1, 8):
            mat = differential_matrix(K.DEL, n, ComplexSpec.parse(spec_name), source)
            mr = rank_modular(mat, PRIMES)
            ok &= mr.agree and mr.value == rank_exact(mat)
    counts = [1, 2, 4, 8, 17, 38, 98, 306]
    ok &= [len(enumerate_all(n)) for n in range(0, 8)] == counts
    for n in range(0, 7):
        direct = {canonical_key(m) for m in enumerate_direct(n)}
        extended = {canonical_key(m) for m in enumerate_by_extension(n)}
        ok &= direct == extended and len(direct) == counts[n]
    report("criterion-9 odd-auto, rank and enumeration cross-oracles", ok)
