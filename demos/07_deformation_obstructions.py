"""Which semisimple algebras can a given algebra deform to?

If elements x, y generate the algebra and the words {x^i} + {y*x^i} span all
of it, that span survives specialization.  But inside a j-by-j matrix block
the same words span at most min(2j, j^2) dimensions, because a block
satisfies its degree-j characteristic polynomial.  Any profile whose total
ceiling falls short of the achieved span is therefore excluded as a strongly
flat deformation target; for a 12-dimensional algebra with a full tower span
that rules out exactly the profiles containing a block of size 3 or more.
"""

import json
from pathlib import Path

from algdeform import (
    Presentation,
    admissible_targets,
    build,
    family_span_dim,
    sampled_lower_bound,
    tower_bound,
)
from algdeform.analysis import enumerate_semisimple_types

data = json.loads((Path(__file__).parent / "data" / "contraction_dim12.json").read_text())
result = build(Presentation.from_json_dict(data))
alg = result.algebra
x = result.generator_element("x")
y = result.generator_element("y")

print("tower span in the 12-dimensional contraction algebra:",
      family_span_dim(alg, x, y, 12))

print("\ncertified ceilings per candidate profile:")
for profile in enumerate_semisimple_types(12):
    print(f"  {profile}: bound {tower_bound(profile)}")

report = admissible_targets(alg, x, y, trials=20, seed=0)
print("\nadmissibility report (span", report.dim_in_algebra, "):")
for row in report.rows:
    print(f"  {row.profile}: bound {row.bound}, sampled {row.sampled}, {row.status}")

print("\nexcluded:", ", ".join(str(p) for p in report.excluded))
print("so the only admissible targets are direct sums of 1- and 2-blocks.")

# the sampled lower bounds are reproducible evidence, not certificates:
# random pairs in the 3-block model algebra hit the Cayley-Hamilton ceiling
print("\nsampled span in a single 3-block:",
      sampled_lower_bound(enumerate_semisimple_types(9)[-1], 9, 50, 0))
