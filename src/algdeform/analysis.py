"""Radical, standard-identity filtration, and Wedderburn block profiles.

The Jacobson radical is computed as the kernel of the trace form of the left
regular representation (valid in characteristic zero).  Block profiles over
the algebraic closure are read off the centre of the semisimple quotient:
the centre has one dimension per block, and comparing two trace forms on it
gives the number of blocks of each size by rank computations alone.
``block_profile`` returns that profile; the identity-ideal filtration
dimensions follow from it by Amitsur-Levitzki, as
``BlockProfile.filtration_dims``.  The standard-identity spans and ideals
themselves are still available, at exponential cost in the degree.
Everything is computed over the Gaussian rationals; ranks and span
dimensions agree with those over the closure.

The trace form, the centre's commutator system and structure constants and
the standard-identity products read the sparse structure tensor only;
products go through its one contraction, ``algebra._combine``.
"""

from __future__ import annotations

import itertools
from math import comb, isqrt

from .algebra import Element, StructureAlgebra, _combine, _project, _trace_form, ideal_closure
from .linalg import ONE, ZERO, Matrix, Subspace, _rref_rows


class InvalidAlgebraError(RuntimeError):
    """An internal consistency check failed; the input table is not a valid algebra."""


class NonIntegralLayerError(RuntimeError):
    """The block counts read off the centre do not add up.

    They must number dim Z blocks filling dim S; otherwise the input table
    was not a valid algebra.
    """


def gram_matrix(alg: StructureAlgebra) -> Matrix:
    """Trace form G[i][j] = trace(L_i L_j) of the left regular representation."""
    return Matrix(_trace_form(alg.sparse, alg.trace_vector(), ZERO))


def radical(alg: StructureAlgebra) -> Subspace:
    """Jacobson radical as the kernel of the trace form.

    The result is checked to be a two-sided nilpotent ideal; a failure means
    the input table was not a valid associative algebra and raises
    :class:`InvalidAlgebraError`.
    """
    kernel = gram_matrix(alg).kernel()
    if ideal_closure(alg, kernel) != kernel:
        raise InvalidAlgebraError("trace-form kernel is not an ideal")
    power = kernel
    while power.dim:
        products = []
        for a in power.basis:
            for b in kernel.basis:
                products.append(alg.multiply_coords(a, b))
        next_power = Subspace.from_vectors(alg.dim, products)
        if next_power.dim >= power.dim:
            raise InvalidAlgebraError("trace-form kernel is not nilpotent")
        power = next_power
    return kernel


def is_semisimple(alg: StructureAlgebra) -> bool:
    return radical(alg).dim == 0


def standard_identity_values(alg: StructureAlgebra, m: int):
    """All evaluations of the degree-2m standard identity at basis tuples.

    Only strictly increasing index tuples are evaluated; alternation makes
    every other basis tuple zero or a sign flip of an evaluated one.  Each
    tuple is expanded by the first-factor recursion memoized over argument
    subsets, which replaces the (2m)! permutation sum with subset-DP cost.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [alg.unit_element()]
    k = 2 * m
    n = alg.dim
    if k > n:
        return []
    work = comb(n, k) << k
    if work > MAX_IDENTITY_WORK:
        raise ValueError(
            f"standard identity of degree {k} on dim {n} takes {work} subset products, "
            f"above the cap of {MAX_IDENTITY_WORK}"
        )
    sparse = alg.sparse
    values = []
    for combo in itertools.combinations(range(n), k):
        rows = [sparse[i] for i in combo]
        table = {1 << p: {i: ONE} for p, i in enumerate(combo)}
        for mask in range(1, 1 << k):
            if mask & (mask - 1) == 0:
                continue
            # S(T) = Σ_p ±d_p·S(T∖p), the sign alternating along T's bits
            terms = []
            position = 0
            rest_bits = mask
            while rest_bits:
                bit = rest_bits & -rest_bits
                rest_bits ^= bit
                sub = table[mask ^ bit]
                if sub:
                    row = rows[bit.bit_length() - 1]
                    negate = position % 2
                    terms.extend((-v if negate else v, entry)
                                 for l, v in sub.items() if (entry := row[l]))
                position += 1
            table[mask] = _combine(terms)
        top = table[(1 << k) - 1]
        values.append(
            Element(alg, [top.get(i, ZERO) for i in range(n)])
        )
    return values


def identity_span(alg: StructureAlgebra, m: int) -> Subspace:
    """Span of the degree-2m standard identity evaluated at basis tuples."""
    return Subspace.from_vectors(
        alg.dim, [v.coords for v in standard_identity_values(alg, m)]
    )


def identity_ideal(alg: StructureAlgebra, m: int) -> Subspace:
    """Two-sided ideal generated by the degree-2m standard identity values."""
    return ideal_closure(alg, identity_span(alg, m))


class BlockProfile:
    """Multiset of matrix-block sizes: counts[j] blocks of size j.

    This is the Artin-Wedderburn shape of a semisimple algebra over the
    algebraic closure; the total dimension is the sum of counts[j] * j^2.
    """

    __slots__ = ("counts",)

    def __init__(self, counts):
        cleaned = {}
        for j in sorted(counts):
            c = counts[j]
            if c < 0 or j < 1:
                raise ValueError("block sizes and counts must be positive")
            if c:
                cleaned[int(j)] = int(c)
        self.counts = cleaned

    @property
    def dimension(self) -> int:
        return sum(c * j * j for j, c in self.counts.items())

    @property
    def filtration_dims(self):
        """dims[m] = sum of c_j * j^2 over j > m, for m = 0..isqrt(dimension).

        By Amitsur-Levitzki this is the dimension of the ideal generated by
        the degree-2m standard identity on a semisimple algebra of this
        profile (dims[0] is the whole algebra); it reaches 0 at the top m.
        """
        return tuple(
            sum(c * j * j for j, c in self.counts.items() if j > m)
            for m in range(isqrt(self.dimension) + 1)
        )

    def blocks(self):
        """Block sizes with multiplicity, descending."""
        out = []
        for j in sorted(self.counts, reverse=True):
            out.extend([j] * self.counts[j])
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, BlockProfile):
            return NotImplemented
        return self.counts == other.counts

    def __hash__(self):
        return hash(tuple(sorted(self.counts.items())))

    def __str__(self):
        if not self.counts:
            return "(zero)"
        return " ".join(f"{j}^{c}" for j, c in sorted(self.counts.items()))

    def __repr__(self):
        return f"BlockProfile({self})"

    def to_json_dict(self) -> dict:
        return {str(j): c for j, c in sorted(self.counts.items())}

    @classmethod
    def from_json_dict(cls, data) -> "BlockProfile":
        return cls({int(j): int(c) for j, c in data.items()})


def centre(alg: StructureAlgebra) -> Subspace:
    """Centre of ``alg``: every z with z*d_i = d_i*z for each basis element.

    Row (i, l) of the system is the l-th coordinate of the commutator
    [z, d_i] = sum_k z_k (c_ki^l - c_ik^l), formed from the nonzero
    structure constants only.  Zero and repeated rows are dropped, the rest
    are eliminated as sparse rows, and the kernel is read off their echelon.
    """
    n = alg.dim
    sparse = alg.sparse
    rows = {}
    for i in range(n):
        commutator = [{} for _ in range(n)]  # commutator[l][k] = c_ki^l - c_ik^l
        for k in range(n):
            for l, c in sparse[k][i]:
                commutator[l][k] = c
            for l, c in sparse[i][k]:
                commutator[l][k] = commutator[l].get(k, ZERO) - c
        for row in commutator:
            rows.setdefault(tuple((k, c) for k, c in row.items() if c), None)
    rows.pop((), None)
    return _rref_rows(map(dict, rows), n).kernel(n)


def _centre_constants(alg: StructureAlgebra, z: Subspace):
    """Structure constants gamma[a][b][e] of the centre ``z`` on its rref
    basis: z_a z_b lies in Z, so its coordinates at the pivots are gamma[a][b]."""
    basis = z.echelon.vectors()
    return [
        [[product.get(p, ZERO) for p in z.pivots]
         for product in (alg.sparse_multiply(za, zb) for zb in basis)]
        for za in basis
    ]


def block_profile(alg: StructureAlgebra, rad: Subspace = None):
    """Wedderburn block profile over the algebraic closure.

    Non-semisimple input is first replaced by its quotient S modulo the
    radical; pass ``rad`` when the caller has already computed
    ``radical(alg)``.  That call certifies it as an ideal, so it is
    projected out without being closed again.  The profile is read off the
    centre Z of S, whose dimension B is the number of blocks.  On the basis z_1..z_B of Z take the Gram matrices
    G[a][b] = trace of z_a z_b on S and H[a][b] = trace of z_a z_b on Z.  In
    the block idempotents e_b they are diag(j_b^2) and the identity, so the
    number of j-blocks is B - rank(G - j^2 H); no roots or inverses are
    needed.  The counts are certified against B and dim S.  Returns the
    :class:`BlockProfile`; its ``filtration_dims`` are the identity-ideal
    dimensions of S.
    """
    if rad is None:
        rad = radical(alg)
    ss = alg if rad.dim == 0 else _project(alg, rad)[0]
    n = ss.dim
    z = centre(ss)
    blocks = z.dim
    gamma = _centre_constants(ss, z)
    tau = ss.trace_vector()
    on_s = [sum((c * tau[l] for l, c in za.items()), ZERO) for za in z.echelon.vectors()]
    on_z = [sum((gamma[e][c][c] for c in range(blocks)), ZERO) for e in range(blocks)]

    def form(weights):
        return [
            [sum((g * w for g, w in zip(v, weights) if g), ZERO) for v in row]
            for row in gamma
        ]

    g_form, h_form = form(on_s), form(on_z)
    counts = {}
    for j in range(1, isqrt(n) + 1):
        shifted = Matrix(
            [[g - j * j * h for g, h in zip(gr, hr)] for gr, hr in zip(g_form, h_form)]
        )
        c = blocks - shifted.rank
        if c:
            counts[j] = c
    profile = BlockProfile(counts)
    if sum(counts.values()) != blocks or profile.dimension != n:
        raise NonIntegralLayerError(
            f"centre of dimension {blocks} gives block counts {counts}, "
            f"which do not fill dimension {n}; input table is not valid"
        )
    return profile


# Largest dimension whose block profiles are enumerated.  Their number grows
# faster than any polynomial: 6521 at n = 150, 94987 at n = 250.
MAX_ENUMERATE_DIM = 144

# Most subset products, C(n, 2m)·2^(2m), that ``standard_identity_values``
# takes on.  C(14, 6)·2^6 = 192192 ran in 0.75 s on M3⊕M2⊕M1; C(28, 14)·2^14
# would be about 7·10^11.
MAX_IDENTITY_WORK = 250_000


def enumerate_semisimple_types(n: int):
    """All block profiles of total dimension n, in a deterministic order.

    Equivalently: multisets of positive integers whose squares sum to n.
    n may not exceed :data:`MAX_ENUMERATE_DIM`.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > MAX_ENUMERATE_DIM:
        raise ValueError(f"dimension {n} is above the cap of {MAX_ENUMERATE_DIM}")
    # an explicit stack of (remaining, largest part allowed, parts so far):
    # a recursive closure would be a reference cycle
    found = []
    stack = [(n, isqrt(n), ())]
    while stack:
        remaining, max_part, parts = stack.pop()
        if remaining == 0:
            found.append(parts)
        for j in range(1, min(max_part, isqrt(remaining)) + 1):
            stack.append((remaining - j * j, j, parts + (j,)))
    found.sort()
    profiles = []
    for parts in found:
        counts = {}
        for j in parts:
            counts[j] = counts.get(j, 0) + 1
        profiles.append(BlockProfile(counts))
    return profiles
