"""Property tests: canonical labels and witness signs under random relabelling.

Classes with n <= 7 come from the built-in enumeration; n = 8 matroids are
column matroids of random 0/1 matrices and direct sums of smaller classes.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from matroidc.canonical import (  # noqa: E402
    canonical_key,
    iso_witness,
    perm_sign,
    relabel,
)
from matroidc.classes import normalize  # noqa: E402
from matroidc.enumerate import enumerate_all  # noqa: E402
from matroidc.matroid import from_f2_matrix  # noqa: E402


@st.composite
def enumerated(draw):
    n = draw(st.integers(0, 7))
    return draw(st.sampled_from(enumerate_all(n)))


@st.composite
def binary8(draw):
    rows = draw(st.integers(1, 5))
    matrix = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=8, max_size=8),
        min_size=rows, max_size=rows,
    ))
    return from_f2_matrix(matrix)


@st.composite
def sum8(draw):
    k = draw(st.integers(1, 7))
    a = draw(st.sampled_from(enumerate_all(k)))
    b = draw(st.sampled_from(enumerate_all(8 - k)))
    return a.direct_sum(b)


@st.composite
def relabelled(draw):
    m = draw(st.one_of(enumerated(), binary8(), sum8()))
    p = tuple(draw(st.permutations(range(1, m.n + 1))))
    return m, p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relabelled())
def test_canonical_key_and_witness_sign_under_relabelling(case):
    m, p = case
    q = relabel(m, p)
    key = canonical_key(m)
    assert canonical_key(q) == key
    w = iso_witness(q, m)
    assert w is not None and relabel(q, w) == m
    if key.odd_auto:
        assert normalize(q) is None
        return
    # every bijection q -> m is w composed with an automorphism of m, and
    # all of those are even, so the sign is that of p^-1
    assert perm_sign(w) == perm_sign(p)
    assert normalize(q) == (key, normalize(m)[1] * perm_sign(p))
