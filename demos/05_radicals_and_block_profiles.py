"""Radicals, the standard-identity filtration, and block profiles.

In characteristic zero the Jacobson radical is the kernel of the trace form
of the left regular representation.  On the semisimple part, the ideal
generated by the degree-2m standard identity collects exactly the matrix
blocks larger than m (Amitsur-Levitzki), so consecutive ideal dimensions
differ by (number of j-blocks) * j^2.  ``block_profile`` does not evaluate
those identities: the centre has one dimension per block, and on it the
trace of the algebra is j^2 times the trace of the centre on each block's
idempotent, so ranks of two small Gram matrices count the j-blocks.  The
filtration dimensions then follow from the profile, as its
``filtration_dims``.
"""

from algdeform import (
    block_profile,
    enumerate_semisimple_types,
    identity_ideal,
    identity_span,
    is_semisimple,
    radical,
)
from algdeform.analysis import centre
from algdeform.constructions import (
    direct_sum,
    dual_numbers,
    matrix_unit_algebra,
    scalar_field,
    upper_triangular_algebra,
)

m2 = matrix_unit_algebra(2)
print("M2 radical dimension:", radical(m2).dim)
print("M2 semisimple:", is_semisimple(m2))

# the degree-2 standard identity (the commutator) spans the trace-zero plane
print("commutator span in M2:", identity_span(m2, 1).dim, "(trace-zero matrices)")
print("its ideal closure:", identity_ideal(m2, 1).dim, "(M2 is simple)")
# the degree-4 identity vanishes identically on 2x2 matrices
print("degree-4 identity span in M2:", identity_span(m2, 2).dim)

alg = direct_sum(m2, scalar_field())
profile = block_profile(alg)
print("\nM2 + scalars: centre dim", centre(alg).dim, "(one per block)")
print("  profile", profile, "-> filtration dims", profile.filtration_dims)
print("  check: degree-2 identity ideal", identity_ideal(alg, 1).dim, "(the M2 block)")

# non-semisimple input is profiled through its semisimplification
ut = upper_triangular_algebra(2)
profile = block_profile(ut)
print("upper-triangular 2x2: radical dim", radical(ut).dim,
      "-> semisimplification profile", profile)

dn = dual_numbers()
print("dual numbers: radical dim", radical(dn).dim)

# every semisimple shape of a given dimension, deterministically ordered
print("\nall semisimple profiles in dimension 12:")
for p in enumerate_semisimple_types(12):
    print("  ", p, "  (dimension check:", p.dimension, ")")
