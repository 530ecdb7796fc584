"""Exact scalars and linear algebra.

Every number in this package is a Gaussian rational a + b*i with
arbitrary-precision rational parts, so row reduction, ranks, and kernels are
exact: no tolerance ever enters a comparison.
"""

from fractions import Fraction

from algdeform import GaussianRational, Matrix, Subspace, parse_scalar

# Scalars parse from the same text syntax all the file formats use.
a = parse_scalar("1/2+3/4*i")
b = parse_scalar("-2/3")
print("a =", a)
print("b =", b)
print("a * b =", a * b)
print("a / a =", a / a)

# A matrix with proportional rows: rank 1, and a one-dimensional kernel.
m = Matrix([[1, 2], [2, 4]])
reduced, pivots = m.rref()
print("\nrref of [[1,2],[2,4]]:", reduced, "pivots:", pivots)
print("rank:", m.rank)

kernel = m.kernel()
print("kernel dimension:", kernel.dim)
print("kernel contains (-2, 1):", kernel.contains([-2, 1]))

# Subspaces are canonical: equality is a data comparison of rref bases.
u = Subspace.from_vectors(3, [[1, 1, 0]])
v = Subspace.from_vectors(3, [[1, -1, 0]])
plane = u.join(v)
print("\njoin of two lines has dimension", plane.dim)
print("the join misses (0,0,1):", not plane.contains([0, 0, 1]))

# Exactness with big numerators: (x + y) - y recovers x on the nose.
x = GaussianRational(Fraction(10**30 + 1, 10**30))
y = GaussianRational(Fraction(-7, 10**15))
print("\nexact round trip:", (x + y) - y == x)
