"""Stock algebras: matrix units, direct sums, and friends.

These are the reference tables used by the analysis tests, the sampling side
of the obstruction machinery, and the demo scripts.
"""

from __future__ import annotations

from .algebra import StructureAlgebra
from .linalg import ONE, ZERO


def matrix_unit_algebra(k: int) -> StructureAlgebra:
    """Full k-by-k matrix algebra on the matrix-unit basis e_rc."""
    return _matrix_units(k, [(r, c) for r in range(1, k + 1) for c in range(1, k + 1)])


def upper_triangular_algebra(k: int) -> StructureAlgebra:
    """Upper-triangular k-by-k matrices on the basis e_rc with r <= c."""
    return _matrix_units(k, [(r, c) for r in range(1, k + 1) for c in range(r, k + 1)])


def _matrix_units(k, pairs):
    """The k-by-k matrix units e_rc for the index ``pairs`` (r, c), which
    must hold every (r, r) and be closed under e_ab·e_bd = e_ad."""
    if k < 1:
        raise ValueError("matrix size must be at least 1")
    index = {rc: i for i, rc in enumerate(pairs)}
    n = len(pairs)
    labels = [f"e{r}{c}" for r, c in pairs]
    table = tuple(
        tuple(((index[(a, d)], ONE),) if b == c else () for c, d in pairs)
        for a, b in pairs
    )
    unit = [ZERO] * n
    for r in range(1, k + 1):
        unit[index[(r, r)]] = ONE
    return StructureAlgebra._from_sparse(labels, table, unit)


def dual_numbers() -> StructureAlgebra:
    """Two-dimensional algebra with basis {1, x} and x*x = 0."""
    return StructureAlgebra(["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])


def scalar_field() -> StructureAlgebra:
    """The one-dimensional algebra."""
    return StructureAlgebra(["1"], [[[ONE]]], [ONE])


def direct_sum(*algebras: StructureAlgebra) -> StructureAlgebra:
    """Direct sum with block-diagonal table; labels get a block suffix."""
    if not algebras:
        raise ValueError("direct sum of no algebras")
    if len(algebras) == 1:
        return algebras[0]
    n = sum(a.dim for a in algebras)
    labels = []
    table = [[()] * n for _ in range(n)]
    unit = []
    offset = 0
    for idx, alg in enumerate(algebras):
        labels.extend(f"{lbl}_{idx}" for lbl in alg.labels)
        unit.extend(alg.unit)
        for i, row in enumerate(alg.sparse):
            table[offset + i][offset:offset + alg.dim] = (
                tuple((offset + l, c) for l, c in entry) for entry in row
            )
        offset += alg.dim
    return StructureAlgebra._from_sparse(labels, tuple(map(tuple, table)), unit)


def from_block_sizes(sizes) -> StructureAlgebra:
    """Direct sum of full matrix algebras of the given sizes."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("no block sizes given")
    return direct_sum(*(matrix_unit_algebra(k) for k in sizes))


def from_profile(profile) -> StructureAlgebra:
    """Model semisimple algebra for a block profile (or a {size: count} map)."""
    counts = getattr(profile, "counts", profile)
    sizes = []
    for j in sorted(counts):
        sizes.extend([j] * counts[j])
    return from_block_sizes(sizes)


def change_basis(alg: StructureAlgebra, basis_matrix) -> StructureAlgebra:
    """The same algebra on the basis given by the matrix's columns.

    Column i of ``basis_matrix`` holds the old coordinates of the new basis
    element b_i; the matrix must be invertible.  Everything invariant
    (radical dimension, filtration, block profile) must agree with the
    original, which makes this the natural stress test for those routines.
    """
    n = alg.dim
    inv = basis_matrix.inverse()
    cols = [tuple(basis_matrix.rows[r][i] for r in range(n)) for i in range(n)]
    table = [
        [inv.mul_vec(alg.multiply_coords(cols[i], cols[j])) for j in range(n)]
        for i in range(n)
    ]
    unit = inv.mul_vec(alg.unit)
    return StructureAlgebra([f"b{i}" for i in range(n)], table, unit)
