"""Deformation families and shrinking-schedule scans.

A family stores structure constants polynomial in t; validating it checks
associativity and the unit law as identities in t, so every rational
specialization is automatically a valid algebra.  A scan walks
s = base, base/2, base/4, ... and reports what the specializations look
like.  Verdicts are schedule-relative by design: a finite scan exhibits a
stable target, it cannot certify one.
"""

from fractions import Fraction

from algdeform import radical, scan, trace_form_determinant
from algdeform.constructions import dual_numbers, matrix_unit_algebra
from algdeform.deformation import STABLE, SampledFamily, constant_family, dual_number_family
from algdeform.ncpoly import parse_ncpoly

# the family 1, x with x*x = t: degenerate at t = 0, split for every t != 0
fam = dual_number_family()
print("family axioms hold identically in t:", fam.validate().ok)

at_zero = fam.specialize(0)
print("at t = 0: radical dimension", radical(at_zero).dim)

at_quarter = fam.specialize(Fraction(1, 4))
e = at_quarter.element([Fraction(1, 2), 1])
print("at t = 1/4: the idempotent 1/2 + x squares to itself:", e * e == e)

result = scan(fam, Fraction(1, 4), 10)
for row in result.samples[:3]:
    print(f"  s = {row.s}: semisimple={row.semisimple}, profile={row.profile}")
print("  ...")
print("verdict:", result.verdict)
# a stable verdict names the target up to isomorphism: its block profile
if result.verdict.kind == STABLE:
    print("stable target:", result.verdict.profile, "from k =", result.verdict.start_index)

# the exceptional parameter values are the roots of one polynomial
det = trace_form_determinant(fam)
print("\ntrace-form determinant in t:", det, "(vanishes only at t = 0)")

# a constant family never moves; the dual numbers stay degenerate everywhere
stuck = scan(constant_family(dual_numbers()), Fraction(1, 2), 6)
print("\nconstant dual-number family:", stuck.verdict)

good = scan(constant_family(matrix_unit_algebra(2)), Fraction(1, 2), 6)
print("constant M2 family:", good.verdict)

# relation-level families rebuild the algebra at each sample value
sampled = SampledFamily(("x",), [parse_ncpoly("x^2 - t", ("x",))], expected_dim=2)
print("\nrelation template x^2 = t:", scan(sampled, Fraction(1, 4), 6).verdict)
