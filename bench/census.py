"""Seeded census files for the `census` and `algebra7` workloads.

The benchmark never asks the program under test to build its own inputs:
everything here is independent of `src/`, so two commits always receive
byte-identical files for the same seed.

A matroid is a tuple ``(n, r, bases)`` with ``bases`` a sorted tuple of
bitmasks, element ``i`` (0-based) being bit ``i``.

Census rules (checked by `rule_failures` and by `test_census.py`):

* every isomorphism class on at most 7 elements, read from
  ``data/classes_le7.mtrd`` (1, 2, 4, 8, 17, 38, 98, 306 classes);
* a sample at degrees 8..TOP that is closed under single-element deletion,
  so the `del` complex of the census is a genuine subcomplex;
* one record per isomorphism class;
* every record written in a seeded random labelling;
* at each sampled degree most classes survive orientation (no odd
  automorphism), and the survivors include a regular class (a graphic
  matroid, by construction) and a non-regular one (non-binary, by the
  circuit/cocircuit parity test).
"""

from __future__ import annotations

import hashlib
import os
import random
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
CLASSES_LE7 = os.path.join(HERE, "data", "classes_le7.mtrd")
CLASS_COUNTS = (1, 2, 4, 8, 17, 38, 98, 306)  # n = 0..7, OEIS A055545

TOP = 10  # highest census degree
# Seeded non-regular roots: rank-4 sparse paving matroids on 9 points with
# 14 circuit-hyperplanes.  Their deletions keep most classes at n = 8 free
# of odd automorphisms, which deletions of the rank-3 top root are not.
RANK4_ROOTS = 4
MAX_LEAVES = 4000  # a root whose closure needs more is too symmetric


class TooSymmetric(Exception):
    """The brute-force labelling below would need too many leaves."""


# -- matroid helpers -------------------------------------------------------


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subset_masks(n: int, size: int) -> list[int]:
    return [sum(1 << i for i in c) for c in combinations(range(n), size)]


def delete(m, e: int):
    """Single-element deletion; a coloop is deleted by dropping it."""
    n, r, bases = m
    bit = 1 << e
    low = bit - 1

    def squeeze(b):
        return (b & low) | ((b >> 1) & ~low)

    keep = [b for b in bases if not b & bit]
    if keep:
        return (n - 1, r, tuple(sorted(squeeze(b) for b in keep)))
    return (n - 1, r - 1, tuple(sorted({squeeze(b & ~bit) for b in bases})))


def relabel(m, labels):
    """Relabel element i as labels[i]."""
    n, r, bases = m
    return (n, r, tuple(sorted(_relabel_mask(b, labels) for b in bases)))


def _relabel_mask(mask: int, labels) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def satisfies_exchange(m) -> bool:
    """Basis exchange axiom (B2), checked directly."""
    family = set(m[2])
    for s in family:
        for t in family:
            for i in bits(s & ~t):
                if not any(
                    (s & ~(1 << i)) | (1 << j) in family for j in bits(t & ~s)
                ):
                    return False
    return True


def _circuits(n: int, bases) -> list[int]:
    indep = bytearray(1 << n)
    stack = list(bases)
    for b in stack:
        indep[b] = 1
    while stack:
        m = stack.pop()
        for i in bits(m):
            sub = m & ~(1 << i)
            if not indep[sub]:
                indep[sub] = 1
                stack.append(sub)
    return [
        m for m in range(1 << n)
        if not indep[m] and all(indep[m & ~(1 << i)] for i in bits(m))
    ]


def is_binary(m) -> bool:
    """Binary iff every circuit meets every cocircuit evenly (Oxley 9.1.2)."""
    n, _, bases = m
    full = (1 << n) - 1
    circuits = _circuits(n, bases)
    cocircuits = _circuits(n, [full ^ b for b in bases])
    return all((c & d).bit_count() % 2 == 0 for c in circuits for d in cocircuits)


# -- canonical form by individualisation and refinement ----------------------


def _ranked(values) -> list[int]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return [order[v] for v in values]


def _refine(colors, pairs, n):
    """Split colour classes by (colour, pair-count) profiles until stable."""
    while True:
        sigs = [
            (colors[e], tuple(sorted((colors[f], pairs[e][f]) for f in range(n) if f != e)))
            for e in range(n)
        ]
        new = _ranked(sigs)
        if max(new) == max(colors):
            return new
        colors = new


def _parity(labels) -> int:
    seen = [False] * len(labels)
    odd = 0
    for i in range(len(labels)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = labels[j]
            length += 1
        odd ^= (length - 1) & 1
    return odd


def canonical(m, max_leaves: int = MAX_LEAVES):
    """(canonical form, has an odd automorphism) for a matroid tuple.

    The search tree is explored in full, so the leaves reaching the minimal
    form are exactly one labelling composed with every automorphism: an odd
    automorphism exists iff both parities reach the minimum.
    """
    n, r, bases = m
    if n == 0:
        return m, False
    pairs = [[0] * n for _ in range(n)]
    for b in bases:
        els = bits(b)
        for i in els:
            row = pairs[i]
            for j in els:
                row[j] += 1
    best = None
    parities = set()
    leaves = 0
    stack = [_refine(_ranked([pairs[e][e] for e in range(n)]), pairs, n)]
    while stack:
        colors = stack.pop()
        if max(colors) == n - 1:
            leaves += 1
            if leaves > max_leaves:
                raise TooSymmetric(m)
            form = tuple(sorted(_relabel_mask(b, colors) for b in bases))
            if best is None or form < best:
                best, parities = form, {_parity(colors)}
            elif form == best:
                parities.add(_parity(colors))
            continue
        cell = min(c for c in colors if colors.count(c) > 1)
        for x in range(n):
            if colors[x] == cell:
                split = [2 * c + (c == cell and e != x) for e, c in enumerate(colors)]
                stack.append(_refine(_ranked(split), pairs, n))
    return (n, r, best), len(parities) == 2


# -- inputs ------------------------------------------------------------------


def read_mtrd(path: str) -> list:
    out = []
    with open(path) as fh:
        if fh.readline().split() != ["MTRD", "1"]:
            raise ValueError(f"{path}: missing MTRD 1 header")
        for line in fh:
            toks = line.split()
            if not toks or toks[0].startswith("#"):
                continue
            n, r, k, *masks = (int(t) for t in toks)
            if len(masks) != k:
                raise ValueError(f"{path}: bad record {line!r}")
            out.append((n, r, tuple(masks)))
    return out


def classes_le7() -> list:
    return read_mtrd(CLASSES_LE7)


def sparse_paving(rng: random.Random, n: int, r: int, k: int):
    """Rank-r sparse paving matroid whose circuit-hyperplanes are k random
    r-sets pairwise meeting in at most r-2 elements."""
    for _ in range(100):
        chs: list[int] = []
        misses = 0
        while len(chs) < k and misses < 1000:
            s = sum(1 << i for i in rng.sample(range(n), r))
            if all((s & t).bit_count() <= r - 2 for t in chs):
                chs.append(s)
            else:
                misses += 1
        if len(chs) == k:
            dead = set(chs)
            bases = tuple(m for m in sorted(subset_masks(n, r)) if m not in dead)
            return (n, r, bases)
    raise RuntimeError(f"no {k} circuit-hyperplanes of rank {r} on {n} points")


def graph_matroid(v: int, edges):
    """Cycle matroid of a connected graph; bases are spanning trees."""
    bases = []
    for combo in combinations(range(len(edges)), v - 1):
        parent = list(range(v))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for i in combo:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                break
            parent[a] = b
        else:
            bases.append(sum(1 << i for i in combo))
    return (len(edges), v - 1, tuple(sorted(bases)))


def wheel(spokes: int):
    """Cycle matroid of the wheel: hub 0, rim 1..spokes."""
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return graph_matroid(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


def k4_loop_coloop():
    """M(K4) plus a loop and a coloop: K4, a pendant edge and a loop edge."""
    return graph_matroid(5, list(combinations(range(4), 2)) + [(0, 4), (1, 1)])


def _close(root, floor: int, known: dict) -> dict:
    """Classes of root and its iterated deletions down to degree `floor`
    that are not in `known`: canonical form -> odd flag."""
    added: dict = {}
    frontier = [root]
    while frontier:
        nxt = []
        for m in frontier:
            form, odd = canonical(m)
            if form in known or form in added:
                continue
            added[form] = odd
            if m[0] > floor:
                nxt.extend(delete(form, e) for e in range(m[0]))
        frontier = nxt
    return added


def _rotate(triple, k):
    return tuple(sorted((x + k) % 5 if x < 5 else 5 + (x - 5 + k) % 5 for x in triple))


def top_root():
    """The non-regular root at degree TOP = 10.

    A rank-3 sparse paving matroid whose ten 3-point lines are the orbits of
    {0,1,5} and {0,2,8} under the rotation (0 1 2 3 4)(5 6 7 8 9).  The
    rotation is even and the matroid has no odd automorphism, so it survives
    while its deletions fall into only two classes at n = 9 and four at 8.
    """
    lines = {_rotate(t, k) for t in ((0, 1, 5), (0, 2, 8)) for k in range(5)}
    dead = {sum(1 << i for i in line) for line in lines}
    return (TOP, 3, tuple(m for m in sorted(subset_masks(TOP, 3)) if m not in dead))


def sample(seed: int) -> dict:
    """Deletion-closed sample at degrees 8..TOP.

    Returns canonical form -> {"odd": bool, "graphic": bool}.  The regular
    roots and the top non-regular root are fixed; the seed draws the rank-4
    roots on 9 points and, in `census_file`, every labelling.  That keeps
    one seed's cost close to another's.
    """
    # The only regular roots possible: no 3-connected regular matroid on 8
    # or 9 elements lacks an odd automorphism (M(W4), M(K3,3), M(prism),
    # M(K5\e) and duals all have one), and a repeated loop, coloop, series
    # or parallel element is a transposition.  So n = 8 has just M(K4) plus
    # a loop and a coloop, and n = 9 has no regular survivor.
    graphic: dict = {}
    for root in (wheel(5), k4_loop_coloop()):
        graphic.update(_close(root, 8, graphic))
    base = dict(graphic)
    base.update(_close(top_root(), 8, base))
    rng = random.Random(f"census-{seed}")
    for _ in range(50):
        known = dict(base)
        try:
            for _ in range(RANK4_ROOTS):
                known.update(_close(sparse_paving(rng, 9, 4, 14), 8, known))
        except TooSymmetric:
            continue
        info = {
            form: {"odd": odd, "graphic": form in graphic}
            for form, odd in known.items()
        }
        if not rule_failures(info):
            return info
    raise RuntimeError(f"no census sample for seed {seed} meets the rules")


def rule_failures(info: dict) -> list[str]:
    """Per sampled degree: most classes survive; survivors include a
    graphic (regular) class, except at 9 where none exists, and a
    non-binary (non-regular) class."""
    out = []
    for n in range(8, TOP + 1):
        at_n = [(f, i) for f, i in info.items() if f[0] == n]
        survivors = [f for f, i in at_n if not i["odd"]]
        if 2 * len(survivors) <= len(at_n):
            out.append(f"n={n}: {len(survivors)}/{len(at_n)} classes survive")
        if n != 9 and not any(info[f]["graphic"] for f in survivors):
            out.append(f"n={n}: no regular survivor")
        if all(is_binary(f) for f in survivors):
            out.append(f"n={n}: no non-regular survivor")
    return out


def write_mtrd(path: str, matroids, rng: random.Random, comment: str) -> None:
    """Write each matroid in a fresh random labelling."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f"MTRD 1\n# {comment}\n")
        for m in matroids:
            labels = list(range(m[0]))
            rng.shuffle(labels)
            n, r, masks = relabel(m, labels)
            fh.write(f"{n} {r} {len(masks)} {' '.join(map(str, masks))}\n")
    os.replace(tmp, path)


def _version() -> str:
    """Digest of this generator and its data, so a stale cache is not reused."""
    h = hashlib.sha256()
    for path in (os.path.abspath(__file__), CLASSES_LE7):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def census_file(cache_dir: str, seed: int) -> str:
    """All classes n <= 7 plus the sample at 8..TOP; cached per seed."""
    path = os.path.join(cache_dir, f"census-{seed}-{_version()}.mtrd")
    if not os.path.exists(path):
        rng = random.Random(f"labels-{seed}")
        extra = sorted(sample(seed))
        write_mtrd(path, classes_le7() + extra, rng, f"bench census seed={seed}")
    return path


def algebra_file(cache_dir: str, seed: int) -> str:
    """All classes n <= 7; cached per seed."""
    path = os.path.join(cache_dir, f"algebra-{seed}-{_version()}.mtrd")
    if not os.path.exists(path):
        rng = random.Random(f"labels-{seed}")
        write_mtrd(path, classes_le7(), rng, f"bench algebra seed={seed}")
    return path
