"""Oriented matroid classes as sparse integer vectors over canonical keys.

Orientations are never stored: a matroid on [n] implicitly carries the
standard orientation 1^2^...^n, and every orientation comparison reduces
to a permutation sign.  A class whose matroid admits an odd automorphism
is zero, so such keys never appear in a vector.  Every operator on classes
(differentials, product, coproduct, maps on tensor factors) is the linear
extension `ClassVector.map` of what it does to one key.
"""

from __future__ import annotations

from itertools import chain

from .canonical import CanonicalKey, canonical_form, perm_sign
from .matroid import EMPTY, Matroid


def normalize(m: Matroid) -> tuple[CanonicalKey, int] | None:
    """Rewrite [m, 1^...^n] as sign * [canonical rep, 1^...^n].

    Returns None when the class is zero, i.e. the representative admits an
    orientation-reversing (odd) automorphism.
    """
    key, witness = canonical_form(m)
    if key.odd_auto:
        return None
    return key, perm_sign(witness)


class ClassVector:
    """Immutable sparse linear combination of canonical keys.

    A key is a `CanonicalKey`, or a tuple of them for a term of a tensor
    power (the coproduct lands in the tensor square).  Each nonzero
    coefficient is kept as given: every operator has structure constants
    +-1, so classes built from keys hold ints, and an exact rational
    coefficient that a caller passes in stays exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def accumulate(cls, pairs) -> "ClassVector":
        """Sum of coeff * key over (key, coeff) pairs; repeated keys add up."""
        out: dict = {}
        for k, c in pairs:
            out[k] = out.get(k, 0) + c
        return cls(out)

    @classmethod
    def of(cls, m: Matroid) -> "ClassVector":
        nz = normalize(m)
        if nz is None:
            return cls()
        key, sign = nz
        return cls({key: sign})

    @classmethod
    def unit(cls) -> "ClassVector":
        return cls.of(EMPTY)

    def map(self, f) -> "ClassVector":
        """Linear extension of f, which sends one key to (key, coeff) pairs."""
        return ClassVector.accumulate(
            (k2, c * c2) for k, c in self.terms.items() for k2, c2 in f(k)
        )

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ClassVector") -> "ClassVector":
        return ClassVector.accumulate(chain(self.terms.items(), other.terms.items()))

    def scale(self, c) -> "ClassVector":
        return ClassVector({k: v * c for k, v in self.terms.items()})

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def degrees(self) -> set[int]:
        return {k.n for k in self.terms}

    def __eq__(self, other):
        return isinstance(other, ClassVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "ClassVector(0)"
        parts = [f"{c}*{k!r}" for k, c in sorted(self.terms.items(), key=_term_order)]
        return "ClassVector(" + " + ".join(parts) + ")"


def _term_order(term) -> tuple[bytes, ...]:
    key = term[0]
    if isinstance(key, CanonicalKey):
        return (key.encoding,)
    return tuple(k.encoding for k in key)
