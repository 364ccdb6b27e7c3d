"""Direct-sum product, restriction-contraction coproduct, and their verifiers.

The product of two classes is the class of the direct sum; concatenating
the standard orientations gives the standard orientation again, so no sign
appears beyond the normalization signs of the factors.  The coproduct sums
over all ground-set subsets S, realized in the shuffle model: list S first,
then its complement, and charge the sign of that shuffle to the term.  The
grading is ground-set size; graded signs follow the Koszul rule, with each
differential sitting in degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .canonical import canonical_key
from .classes import ClassVector, normalize
from .complexes import (
    ALL,
    DifferentialKind,
    Report,
    apply_differential,
    chain_basis,
)
from .errors import InvalidSpec, MixedDegree
from .matroid import EMPTY, uniform

unit = ClassVector.unit


def star(a: ClassVector, b: ClassVector) -> ClassVector:
    """Bilinear extension of direct sum to classes."""

    def terms():
        for ka, ca in a.terms.items():
            ma = ka.matroid()
            for kb, cb in b.terms.items():
                nz = normalize(ma.direct_sum(kb.matroid()))
                if nz is not None:
                    key, s = nz
                    yield key, ca * cb * s

    return ClassVector.accumulate(terms())


def counit(v: ClassVector) -> Fraction:
    return v.coefficient(canonical_key(EMPTY))


def _shuffle_sign(smask: int, n: int) -> int:
    """Sign of the shuffle moving the elements of S in front of the rest."""
    total = 0
    pos = 0
    for i in range(n):
        if smask >> i & 1:
            total += i - pos
            pos += 1
    return -1 if total % 2 else 1


def coproduct(v: ClassVector) -> ClassVector:
    """Sum over subsets S of [restriction to S] tensor [contraction by S].

    The result is keyed by (left key, right key) pairs.
    """

    def terms():
        for key, coeff in v.terms.items():
            m = key.matroid()
            n = m.n
            for smask in range(1 << n):
                left = normalize(m.minor(0, m.full_mask & ~smask))
                if left is None:
                    continue
                right = normalize(m.minor(smask, 0))
                if right is None:
                    continue
                sign = _shuffle_sign(smask, n) * left[1] * right[1]
                yield (left[0], right[0]), coeff * sign

    return ClassVector.accumulate(terms())


def _basis_classes(max_n: int, source):
    for n in range(0, max_n + 1):
        for key in chain_basis(n, ALL, source).keys:
            yield key


def _key_tuples(arity: int, max_n: int, source):
    """Tuples of `arity` basis keys of total degree <= max_n, in the order
    of nested loops over the basis."""
    keys = list(_basis_classes(max_n, source))

    def grow(prefix, budget):
        if len(prefix) == arity:
            yield prefix
            return
        for key in keys:
            if key.n > budget:
                break  # keys come in degree order
            yield from grow((*prefix, key), budget - key.n)

    return grow((), max_n)


def _tensor_apply_left(f, t: ClassVector) -> ClassVector:
    """(f tensor id) with f of even structure cost: no Koszul sign."""
    return ClassVector.accumulate(
        ((k2, kb), c * c2)
        for (ka, kb), c in t.terms.items()
        for k2, c2 in f(ClassVector({ka: 1})).terms.items()
    )


def _tensor_apply_right(f, t: ClassVector, degree: int) -> ClassVector:
    """(id tensor f) with Koszul sign (-1)^(degree * |left factor|)."""
    return ClassVector.accumulate(
        ((ka, k2), c * c2 * (-1 if (degree * ka.n) % 2 else 1))
        for (ka, kb), c in t.terms.items()
        for k2, c2 in f(ClassVector({kb: 1})).terms.items()
    )


def verify_coassociativity(max_n: int, source) -> Report:
    """(Delta tensor id) Delta = (id tensor Delta) Delta plus counit laws."""
    rep = Report([])
    for key in _basis_classes(max_n, source):
        v = ClassVector({key: 1})
        dv = coproduct(v)
        left = ClassVector.accumulate(
            ((k1, k2, kb), c * c2)
            for (ka, kb), c in dv.terms.items()
            for (k1, k2), c2 in coproduct(ClassVector({ka: 1})).terms.items()
        )
        right = ClassVector.accumulate(
            ((ka, k1, k2), c * c2)
            for (ka, kb), c in dv.terms.items()
            for (k1, k2), c2 in coproduct(ClassVector({kb: 1})).terms.items()
        )
        rep.record(left == right, "coassociativity", f"n={key.n}", (key,))
        # counit: collapse either factor.
        lsum = ClassVector.accumulate(
            (kb, c * counit(ClassVector({ka: 1}))) for (ka, kb), c in dv.terms.items()
        )
        rsum = ClassVector.accumulate(
            (ka, c * counit(ClassVector({kb: 1}))) for (ka, kb), c in dv.terms.items()
        )
        rep.record(lsum == v and rsum == v, "counit", f"n={key.n}", (key,))
    return rep


def _tensor_star(t1: ClassVector, t2: ClassVector) -> ClassVector:
    """(a tensor b) star (c tensor d) = (-1)^(|b||c|) (a star c) tensor (b star d)."""

    def terms():
        for (ka, kb), c in t1.terms.items():
            for (kc, kd), c2 in t2.terms.items():
                sign = -1 if (kb.n * kc.n) % 2 else 1
                ac = star(ClassVector({ka: 1}), ClassVector({kc: 1}))
                bd = star(ClassVector({kb: 1}), ClassVector({kd: 1}))
                for k1, u in ac.terms.items():
                    for k2, w in bd.terms.items():
                        yield (k1, k2), c * c2 * sign * u * w

    return ClassVector.accumulate(terms())


def verify_bialgebra(max_n: int, source) -> Report:
    """Delta is an algebra map for the graded product on the tensor square."""
    rep = Report([])
    for ka, kb in _key_tuples(2, max_n, source):
        a = ClassVector({ka: 1})
        b = ClassVector({kb: 1})
        lhs = coproduct(star(a, b))
        rhs = _tensor_star(coproduct(a), coproduct(b))
        rep.record(lhs == rhs, "bialgebra", f"|a|={ka.n} |b|={kb.n}", (ka, kb))
    return rep


def verify_associativity(max_n: int, source) -> Report:
    rep = Report([])
    for ka, kb, kc in _key_tuples(3, max_n, source):
        a, b, c = (ClassVector({k: 1}) for k in (ka, kb, kc))
        ok = star(star(a, b), c) == star(a, star(b, c))
        rep.record(ok, "associativity", f"{ka.n}+{kb.n}+{kc.n}", (ka, kb, kc))
    return rep


def verify_graded_commutativity(max_n: int, source) -> Report:
    rep = Report([])
    for ka, kb in _key_tuples(2, max_n, source):
        a = ClassVector({ka: 1})
        b = ClassVector({kb: 1})
        sign = -1 if (ka.n * kb.n) % 2 else 1
        ok = star(a, b) == star(b, a).scale(sign)
        rep.record(ok, "graded-commutativity", f"|a|={ka.n} |b|={kb.n}", (ka, kb))
    return rep


def verify_unit_counit(max_n: int, source) -> Report:
    rep = Report([])
    one = unit()
    for key in _basis_classes(max_n, source):
        v = ClassVector({key: 1})
        ok = star(one, v) == v and star(v, one) == v
        rep.record(ok, "unit", f"n={key.n}", (key,))
    rep.record(counit(one) == 1, "counit-unit", "")
    return rep


def verify_leibniz(kind: DifferentialKind, max_n: int, source) -> Report:
    """d(a*b) = d(a)*b + (-1)^|a| a*d(b) for homogeneous a, b."""
    rep = Report([])
    for ka, kb in _key_tuples(2, max_n, source):
        a = ClassVector({ka: 1})
        b = ClassVector({kb: 1})
        lhs = apply_differential(kind, star(a, b))
        rhs = star(apply_differential(kind, a), b).add(
            star(a, apply_differential(kind, b)).scale(-1 if ka.n % 2 else 1)
        )
        detail = f"|a|={ka.n} |b|={kb.n}"
        rep.record(lhs == rhs, f"leibniz {kind.value}", detail, (ka, kb))
    return rep


def coderivation_side(kind: DifferentialKind) -> str:
    """The coproduct factor a differential acts on: deletion acts on the
    contraction factor (right), contraction on the restriction factor (left).
    """
    return "right" if kind.operation == "delete" else "left"


def verify_coderivation(kind: DifferentialKind, max_n: int, source) -> Report:
    """One-sided co-Leibniz law on the side `coderivation_side` names; the
    right action carries the Koszul sign (-1)^|left factor|.
    """
    side = coderivation_side(kind)
    rep = Report([])
    dk = lambda v: apply_differential(kind, v)
    for key in _basis_classes(max_n, source):
        v = ClassVector({key: 1})
        lhs = coproduct(dk(v))
        dv = coproduct(v)
        if side == "right":
            rhs = _tensor_apply_right(dk, dv, degree=-1)
        else:
            rhs = _tensor_apply_left(dk, dv)
        what = f"coderivation-{side} {kind.value}"
        rep.record(lhs == rhs, what, f"n={key.n}", (key,))
    return rep


# -- contracting homotopies -----------------------------------------------------

# The degree-1 classes that may generate a contracting homotopy.
_GENERATORS = {"loop": uniform(0, 1), "coloop": uniform(1, 1)}


def _default_generator(kind: DifferentialKind) -> str:
    return "loop" if kind.elements(_GENERATORS["loop"]) else "coloop"


def homotopy_generator(kind: DifferentialKind, generator: str | None = None) -> ClassVector:
    """The degree-1 class whose boundary is the unit for this differential:
    one whose element the differential removes.
    """
    if generator is None:
        generator = _default_generator(kind)
    if generator not in _GENERATORS:
        raise InvalidSpec(f"generator must be loop or coloop, got {generator!r}")
    m = _GENERATORS[generator]
    if not kind.elements(m):
        raise InvalidSpec(f"{kind.value} does not send the {generator} class to the unit")
    return ClassVector.of(m)


def contracting_homotopy(
    kind: DifferentialKind, v: ClassVector, generator: str | None = None
) -> ClassVector:
    """h(v) = (-1)^n v * ell on homogeneous v; satisfies dh + hd = id."""
    degrees = v.degrees()
    if len(degrees) > 1:
        raise MixedDegree(f"homotopy needs homogeneous input, got degrees {degrees}")
    ell = homotopy_generator(kind, generator)
    if not degrees:
        return ClassVector()
    n = degrees.pop()
    return star(v, ell).scale(-1 if n % 2 else 1)


def verify_homotopy(
    kind: DifferentialKind, max_n: int, source, generator: str | None = None
) -> Report:
    rep = Report([])
    gen_name = generator or _default_generator(kind)
    for key in _basis_classes(max_n, source):
        v = ClassVector({key: 1})
        dh = apply_differential(kind, contracting_homotopy(kind, v, generator))
        hd = contracting_homotopy(kind, apply_differential(kind, v), generator)
        what = f"homotopy {kind.value}({gen_name})"
        rep.record(dh.add(hd) == v, what, f"n={key.n}", (key,))
    return rep


# -- free super-commutative dimension identity ----------------------------------


def connected_dim_check(max_n: int, source) -> Report:
    """dim M_n must match the free super-commutative algebra on connected
    classes: odd-degree generators contribute exterior factors, even-degree
    ones polynomial factors.
    """
    rep = Report([])
    dims = []
    conn = []
    for n in range(0, max_n + 1):
        basis = chain_basis(n, ALL, source)
        dims.append(basis.dim)
        conn.append(
            sum(1 for key in basis.keys if key.matroid().is_connected())
        )
    # Power series product up to degree max_n: (1 + t^m)^c for odd m, and
    # (1 - t^m)^(-c), with coefficient C(c - 1 + j, j) at t^(j m), for even m.
    series = [1] + [0] * max_n
    for m in range(1, max_n + 1):
        c = conn[m]
        if not c:
            continue
        factor = [0] * (max_n + 1)
        for j in range(0, max_n // m + 1):
            factor[j * m] = comb(c, j) if m % 2 == 1 else comb(c - 1 + j, j)
        series = _poly_mul(series, factor, max_n)
    for n in range(0, max_n + 1):
        rep.record(
            series[n] == dims[n],
            "free-supercommutative dim",
            f"n={n} expected={series[n]} got={dims[n]}",
        )
    return rep


def _poly_mul(a, b, cap):
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj or i + j > cap:
                continue
            out[i + j] += ai * bj
    return out
