"""The power tower's span, and semisimple deformation-target filtering.

The tower of a pair (x, y) is the words {x^i} + {y*x^i} for i <= depth,
evaluated as two product chains.  The certified side: in a j-by-j matrix
block, powers of a single element stop being independent after the j-th
power (the block satisfies its degree-j characteristic polynomial), so the
tower spans at most min(2j, j^2) dimensions per block.  A target profile
whose total bound falls below the span the depth-n tower achieves in the
n-dimensional algebra itself is excluded as a strongly flat deformation
target.

The sampled side is evidence only: random pairs in the model algebra of a
profile give a reproducible lower bound on what the tower can span there,
never a certificate.
"""

from __future__ import annotations

import random

from .algebra import Element, StructureAlgebra, _support
from .analysis import BlockProfile, enumerate_semisimple_types
from .constructions import from_profile
from .linalg import GaussianRational, _Echelon


class NotGeneratingError(ValueError):
    """The chosen elements do not generate the algebra."""

    def __init__(self, reached_dim, full_dim):
        super().__init__(
            f"elements generate a subalgebra of dimension {reached_dim} < {full_dim}"
        )
        self.reached_dim = reached_dim
        self.full_dim = full_dim


def tower_bound(profile: BlockProfile) -> int:
    """Certified ceiling for any tower span in a semisimple algebra.

    Each j-block contributes at most min(2j, j^2): the 2j cap comes from the
    characteristic polynomial, the j^2 cap from the block dimension itself.
    """
    return sum(c * min(2 * j, j * j) for j, c in profile.counts.items())


def family_span_dim(alg: StructureAlgebra, x: Element, y: Element, depth: int) -> int:
    """Dimension of the span of the tower {x^i} + {y*x^i}, i <= depth, at (x, y).

    The words are formed as two product chains, x^i = x^(i-1)*x and
    y*x^i = (y*x^(i-1))*x; each value enters one echelon as it is formed, and
    the walk stops once the span is the whole algebra.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    right = dict(_support(x.coords))
    span = _Echelon()
    for value in (dict(_support(alg.unit)), dict(_support(y.coords))):
        for i in range(depth + 1):
            if i:
                value = alg.sparse_multiply(value, right)
            span.add(value)
            if len(span.rows) == alg.dim:
                return alg.dim
    return len(span.rows)


def _tower_words(depth):
    """The tower's words as printed: 1, x, ..., x^depth, y, y*x, ..., y*x^depth."""
    powers = [f"x^{i}" if i > 1 else "x" for i in range(1, depth + 1)]
    return ["1", *powers, "y", *(f"y*{p}" for p in powers)]


def generated_subalgebra_dim(alg: StructureAlgebra, elements) -> int:
    """Dimension of the unital subalgebra generated by the given elements.

    A worklist over the rows the span gains: each is multiplied on both
    sides by itself and by every row gained before it, once.
    """
    span = _Echelon()
    gained = []
    for coords in [alg.unit] + [el.coords for el in elements]:
        row = span.add(dict(enumerate(coords)))
        if row is not None:
            gained.append(row)
    for k, a in enumerate(gained):  # the loop reaches rows appended as it runs
        if len(span.rows) == alg.dim:
            break
        for b in gained[:k + 1]:
            for product in (alg.sparse_multiply(a, b), alg.sparse_multiply(b, a)):
                row = span.add(product)
                if row is not None:
                    gained.append(row)
    return len(span.rows)


# Most sampling work ``admissible_targets`` may take on, counted as
# trials * profiles * n^3: each trial evaluates the depth-n tower in a dim-n
# model algebra.
MAX_SAMPLING_WORK = 10 ** 7


def sampled_lower_bound(profile: BlockProfile, depth: int, trials: int = 50,
                        seed: int = 0) -> int:
    """Best tower span seen over random pairs in the profile's model algebra.

    The pair (x, y) is drawn per trial from a generator seeded by (seed, trial),
    with integer coordinates in [-9, 9]; the result is reproducible and
    monotone nondecreasing in the trial count.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    model = from_profile(profile)
    best = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        x, y = (
            model.element([GaussianRational(rng.randint(-9, 9)) for _ in range(model.dim)])
            for _ in range(2)
        )
        best = max(best, family_span_dim(model, x, y, depth))
        if best == model.dim:
            break
    return best


EXCLUDED = "Excluded"
NOT_EXCLUDED = "NotExcluded"


class TargetRow:
    __slots__ = ("profile", "bound", "sampled", "status")

    def __init__(self, profile, bound, sampled, status):
        self.profile = profile
        self.bound = bound
        self.sampled = sampled
        self.status = status

    def to_json_dict(self) -> dict:
        return {
            "profile": str(self.profile),
            "bound": self.bound,
            "sampled": self.sampled,
            "status": self.status,
        }


class ObstructionReport:
    """Per-target admissibility of semisimple profiles for a given algebra."""

    __slots__ = ("family_words", "generator_coords", "dim_in_algebra", "rows")

    def __init__(self, family_words, generator_coords, dim_in_algebra, rows):
        self.family_words = tuple(family_words)
        self.generator_coords = tuple(generator_coords)
        self.dim_in_algebra = dim_in_algebra
        self.rows = tuple(rows)

    @property
    def excluded(self):
        return tuple(r.profile for r in self.rows if r.status == EXCLUDED)

    @property
    def not_excluded(self):
        return tuple(r.profile for r in self.rows if r.status == NOT_EXCLUDED)

    def to_json_dict(self) -> dict:
        return {
            "family": list(self.family_words),
            "generators": [
                [str(c) for c in coords] for coords in self.generator_coords
            ],
            "dim_in_N": self.dim_in_algebra,
            "targets": [r.to_json_dict() for r in self.rows],
        }


def admissible_targets(alg: StructureAlgebra, gen_x: Element, gen_y: Element,
                       trials: int = 50, seed: int = 0) -> ObstructionReport:
    """Filter all semisimple profiles of the algebra's dimension.

    Requires (and checks) that the two elements generate the algebra.  The
    span of the depth-n tower at (gen_x, gen_y) is compared against each
    profile's certified bound: a profile is Excluded when its bound is
    smaller than the span achieved, which for a full span d = n rules out
    exactly the profiles containing a block of size 3 or larger.  A dimension
    past the enumeration cap, or sampling work (trials * profiles * n^3) above
    :data:`MAX_SAMPLING_WORK`, raises ``ValueError`` before any product.
    """
    n = alg.dim
    profiles = enumerate_semisimple_types(n)
    work = trials * len(profiles) * n ** 3
    if work > MAX_SAMPLING_WORK:
        raise ValueError(f"sampling work {trials} trials * {len(profiles)} profiles * {n}^3 = "
                         f"{work} is above the cap of {MAX_SAMPLING_WORK}; lower --trials, or "
                         f"pass --trials 0 to skip sampling")
    reached = generated_subalgebra_dim(alg, [gen_x, gen_y])
    if reached < n:
        raise NotGeneratingError(reached, n)
    span = family_span_dim(alg, gen_x, gen_y, n)
    rows = []
    for profile in profiles:
        bound = tower_bound(profile)
        sampled = sampled_lower_bound(profile, n, trials, seed) if trials else None
        status = EXCLUDED if span > bound else NOT_EXCLUDED
        rows.append(TargetRow(profile, bound, sampled, status))
    return ObstructionReport(_tower_words(n), (gen_x.coords, gen_y.coords), span, rows)
