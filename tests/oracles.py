"""Independent oracles that scan every permutation; small n only."""

from itertools import permutations

from matroidc.canonical import Permutation, apply_perm_mask, perm_sign
from matroidc.matroid import Matroid


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
