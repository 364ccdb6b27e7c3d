"""Exact-arithmetic engine for matroid deletion/contraction complexes."""

from .canonical import (
    CanonicalKey,
    automorphism_generators,
    canonical_form,
    canonical_key,
    has_odd_automorphism,
    iso_witness,
    perm_sign,
)
from .classes import ClassVector, normalize
from .complexes import (
    ChainBasis,
    ComplexSpec,
    DifferentialKind,
    apply_differential,
    chain_basis,
    differential_matrix,
    dims_table,
    dualize_basis_map,
    homology_table,
)
from .enumerate import (
    EnumeratorSource,
    FileSource,
    MatroidSource,
    enumerate_all,
    extend_by_element,
    parse_f2db,
    parse_mtrd,
    write_mtrd,
)
from .hopf import contracting_homotopy, coproduct, counit, star
from .linalg import (
    BettiTable,
    RankPolicy,
    SparseIntMatrix,
    rank_exact,
    rank_modular,
)
from .matroid import (
    EMPTY,
    Graph,
    Matroid,
    complete_graph,
    fano,
    from_bases,
    from_f2_matrix,
    graphic,
    uniform,
    wheel,
)

__version__ = "0.1.0"
