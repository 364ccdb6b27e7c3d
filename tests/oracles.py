"""Reference implementations and test-only helpers.

The brute-force oracles scan every permutation, so they are for small n
only.  The rest are used by tests alone and are kept here, out of the
package.
"""

from itertools import permutations

from matroidc.canonical import (
    CanonicalKey,
    Permutation,
    apply_perm_mask,
    automorphism_generators,
    perm_compose,
    perm_identity,
    perm_sign,
)
from matroidc.classes import normalize
from matroidc.errors import ExchangeViolation
from matroidc.linalg import SparseIntMatrix
from matroidc.matroid import Matroid, _bit_positions


def automorphisms_bruteforce(m: Matroid) -> list[Permutation]:
    """All automorphisms by scanning every permutation; small n only."""
    base_set = set(m.bases)
    out = []
    for p in permutations(range(1, m.n + 1)):
        if all(apply_perm_mask(b, p) in base_set for b in m.bases):
            out.append(p)
    return out


def has_odd_automorphism_bruteforce(m: Matroid) -> bool:
    base_set = set(m.bases)
    for p in permutations(range(1, m.n + 1)):
        if perm_sign(p) == 1:
            continue
        if all(apply_perm_mask(b, p) in base_set for b in m.bases):
            return True
    return False


def automorphism_group(m: Matroid) -> list[Permutation]:
    """The full automorphism group, closed over the generating set."""
    gens = automorphism_generators(m)
    ident = perm_identity(m.n)
    group = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = perm_compose(h, g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return sorted(group)


def mu_sign(m: Matroid, x: int, target: CanonicalKey) -> int:
    """Relabeling sign identifying m\\x with the chosen representative.

    Zero when the deletion is not isomorphic to the target.  Well-defined
    whenever the target has no odd automorphism.
    """
    nz = normalize(m.delete(x))
    if nz is None or nz[0] != target:
        return 0
    return nz[1]


def has_series_pair(m: Matroid) -> bool:
    return m.dual().has_parallel_pair()


def transpose(mat: SparseIntMatrix) -> SparseIntMatrix:
    return SparseIntMatrix(
        mat.cols, mat.rows, {(j, i): v for (i, j), v in mat.entries.items()}
    )


def check_exchange_pairwise(bases: tuple[int, ...]) -> None:
    """Axiom (B2) tried pair by pair; the reference for check_exchange."""
    family = set(bases)
    for s in bases:
        for t in bases:
            if s == t:
                continue
            rest = t & ~s
            for i in _bit_positions(s & ~t):
                base = s & ~(1 << i)
                for j in _bit_positions(rest):
                    if (base | (1 << j)) in family:
                        break
                else:
                    raise ExchangeViolation(s, t, i + 1)
