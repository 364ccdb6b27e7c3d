"""Direct-sum product, restriction-contraction coproduct, and their verifiers.

The product of two classes is the class of the direct sum; concatenating
the standard orientations gives the standard orientation again, so no sign
appears beyond the normalization signs of the factors.  The coproduct sums
over all ground-set subsets S, realized in the shuffle model: list S first,
then its complement, and charge the sign of that shuffle to the term.  The
grading is ground-set size; graded signs follow the Koszul rule, with each
differential sitting in degree -1.

Every operator here extends linearly through `ClassVector.map`.  The one
product of two keys is `_key_product`; `star` and the product on the tensor
square, `_tensor_star`, both go through it.  A map f of degree k acts on
factor i of a tensor term through `_on_factor`, which charges the Koszul
sign (-1)^(k * |factors before i|).

Each key's coproduct terms and each pair of keys' product are computed once
and read from a table afterwards: `_coproduct_terms` and `_key_product` are
cached on their keys and return tuples, so a repeated read sees the same
terms.  The identity checks apply the coproduct to the same few keys many
times over.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _key_product(ka, kb):
    """Signed class of the direct sum of two keys: zero or one (key, sign)."""
    nz = normalize(ka.matroid().direct_sum(kb.matroid()))
    return () if nz is None else (nz,)


def star(a: ClassVector, b: ClassVector) -> ClassVector:
    """Bilinear extension of direct sum to classes."""

    def times_b(ka):
        for kb, cb in b.terms.items():
            for key, s in _key_product(ka, kb):
                yield key, cb * s

    return a.map(times_b)


def counit(v: ClassVector):
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


@lru_cache(maxsize=None)
def _coproduct_terms(key):
    """((left key, right key), sign) for each surviving subset S of [key]."""
    m = key.matroid()
    n = m.n
    terms = []
    for smask in range(1 << n):
        left = normalize(m.minor(0, m.full_mask & ~smask))
        if left is None:
            continue
        right = normalize(m.minor(smask, 0))
        if right is None:
            continue
        sign = _shuffle_sign(smask, n) * left[1] * right[1]
        terms.append(((left[0], right[0]), sign))
    return tuple(terms)


def coproduct(v: ClassVector) -> ClassVector:
    """Sum over subsets S of [restriction to S] tensor [contraction by S].

    The result is keyed by (left key, right key) pairs.
    """
    return v.map(_coproduct_terms)


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


def _on_factor(t: ClassVector, i: int, f, degree: int) -> ClassVector:
    """Apply the linear map f of the given degree to factor i of every tensor
    term, with Koszul sign (-1)^(degree * |factors before i|).  A tuple key
    of f's result is spliced in flat, so f may itself land in a tensor power.
    """

    def terms(key):
        sign = -1 if degree * sum(k.n for k in key[:i]) % 2 else 1
        for k2, c2 in f(ClassVector({key[i]: 1})).terms.items():
            mid = k2 if isinstance(k2, tuple) else (k2,)
            yield (*key[:i], *mid, *key[i + 1:]), c2 * sign

    return t.map(terms)


def verify_coassociativity(max_n: int, source) -> Report:
    """(Delta tensor id) Delta = (id tensor Delta) Delta plus counit laws."""
    rep = Report([])
    for key in _basis_classes(max_n, source):
        v = ClassVector({key: 1})
        dv = coproduct(v)
        left = _on_factor(dv, 0, coproduct, degree=0)
        right = _on_factor(dv, 1, coproduct, degree=0)
        rep.record(left == right, "coassociativity", f"n={key.n}", (key,))
        # counit: collapse either factor.
        lsum = dv.map(lambda k: [(k[1], counit(ClassVector({k[0]: 1})))])
        rsum = dv.map(lambda k: [(k[0], counit(ClassVector({k[1]: 1})))])
        rep.record(lsum == v and rsum == v, "counit", f"n={key.n}", (key,))
    return rep


def _tensor_star(t1: ClassVector, t2: ClassVector) -> ClassVector:
    """(a tensor b) star (c tensor d) = (-1)^(|b||c|) (a star c) tensor (b star d)."""

    def times_t2(key):
        ka, kb = key
        for (kc, kd), c2 in t2.terms.items():
            sign = -1 if (kb.n * kc.n) % 2 else 1
            for k1, u in _key_product(ka, kc):
                for k2, w in _key_product(kb, kd):
                    yield (k1, k2), c2 * sign * u * w

    return t1.map(times_t2)


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
        rhs = _on_factor(coproduct(v), 1 if side == "right" else 0, dk, degree=-1)
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
    # Multiply the series up to degree max_n by c factors (1 + t^m) for odd
    # m, in place from the top, and by c factors 1/(1 - t^m) for even m, in
    # place from the bottom.
    series = [1] + [0] * max_n
    for m in range(1, max_n + 1):
        degrees = range(m, max_n + 1)
        for _ in range(conn[m]):
            for k in reversed(degrees) if m % 2 else degrees:
                series[k] += series[k - m]
    for n in range(0, max_n + 1):
        rep.record(
            series[n] == dims[n],
            "free-supercommutative dim",
            f"n={n} expected={series[n]} got={dims[n]}",
        )
    return rep

