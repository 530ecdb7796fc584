"""Word-family span dimensions and semisimple deformation-target filtering.

The certified side: in a j-by-j matrix block, powers of a single element stop
being independent after the j-th power (the block satisfies its degree-j
characteristic polynomial), so the family {x^i} + {y*x^i} spans at most
min(2j, j^2) dimensions per block.  A target profile whose total bound falls
below the span the family achieves in the algebra itself is excluded as a
strongly flat deformation target.

The sampled side is evidence only: random arguments in the model algebra of a
profile give a reproducible lower bound on what the family can span there,
never a certificate.
"""

from __future__ import annotations

import random

from .algebra import Element, StructureAlgebra, _combine, _support
from .analysis import BlockProfile, enumerate_semisimple_types
from .constructions import from_profile
from .linalg import GaussianRational, _Echelon
from .ncpoly import NcPoly, TPOLY_ONE, word_key


class NotGeneratingError(ValueError):
    """The chosen elements do not generate the algebra."""

    def __init__(self, reached_dim, full_dim):
        super().__init__(
            f"elements generate a subalgebra of dimension {reached_dim} < {full_dim}"
        )
        self.reached_dim = reached_dim
        self.full_dim = full_dim


class WordFamily:
    """A list of word polynomials in k slot variables, constant in t."""

    __slots__ = ("slots", "words")

    def __init__(self, slots, words):
        self.slots = tuple(slots)
        words = tuple(words)
        if not words:
            raise ValueError("word family must be nonempty")
        for w in words:
            if not isinstance(w, NcPoly) or w.gens != self.slots:
                raise ValueError("family words must be NcPoly over the slot variables")
            if not w.is_constant_in_t():
                raise ValueError("family words must be constant in t")
        self.words = words

    @property
    def arity(self) -> int:
        return len(self.slots)

    def printed_words(self):
        return [str(w) for w in self.words]


def tower_family(depth: int) -> WordFamily:
    """The two-slot family {x^i : i <= depth} + {y*x^i : i <= depth}."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    slots = ("x", "y")
    words = []
    for i in range(depth + 1):
        words.append(NcPoly(slots, {(0,) * i: TPOLY_ONE}))
    for i in range(depth + 1):
        words.append(NcPoly(slots, {(1,) + (0,) * i: TPOLY_ONE}))
    return WordFamily(slots, words)


def tower_bound(profile: BlockProfile) -> int:
    """Certified ceiling for any tower-family span in a semisimple algebra.

    Each j-block contributes at most min(2j, j^2): the 2j cap comes from the
    characteristic polynomial, the j^2 cap from the block dimension itself.
    """
    return sum(c * min(2 * j, j * j) for j, c in profile.counts.items())


def _evaluate_words(alg, args, words):
    """Sparse values of monomial words at sparse arguments, sharing prefix products."""
    # a loop: a recursive closure is a reference cycle, which would keep every
    # product alive until the cycle collector runs
    memo = {(): dict(_support(alg.unit))}
    ordered = sorted(words, key=word_key)
    for w in ordered:
        for k in range(1, len(w) + 1):
            if w[:k] not in memo:
                memo[w[:k]] = alg.sparse_multiply(memo[w[:k - 1]], args[w[k - 1]])
    return {w: memo[w] for w in ordered}


def family_span_dim(alg: StructureAlgebra, fam: WordFamily, args) -> int:
    """Dimension of the span of the family's words evaluated at ``args``."""
    args = list(args)
    if len(args) != fam.arity:
        raise ValueError(f"family has arity {fam.arity}, got {len(args)} arguments")
    monomials = {w for poly in fam.words for w in poly.terms}
    values = _evaluate_words(alg, [dict(_support(a.coords)) for a in args], monomials)
    span = _Echelon()
    for poly in fam.words:
        span.add(_combine((c.constant_value(), values[w].items()) for w, c in poly.terms.items()))
        if len(span.rows) == alg.dim:
            break
    return len(span.rows)


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


# Most sampling trials ``admissible_targets`` runs per profile: each trial
# evaluates the whole tower in the profile's model algebra.
MAX_TRIALS = 1000


def sampled_lower_bound(profile: BlockProfile, fam: WordFamily, trials: int = 50,
                        seed: int = 0) -> int:
    """Best family span seen over random arguments in the profile's model algebra.

    Arguments are drawn per trial from a generator seeded by (seed, trial),
    with integer coordinates in [-9, 9]; the result is reproducible and
    monotone nondecreasing in the trial count.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    model = from_profile(profile)
    best = 0
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        args = [
            model.element(
                [GaussianRational(rng.randint(-9, 9)) for _ in range(model.dim)]
            )
            for _ in range(fam.arity)
        ]
        best = max(best, family_span_dim(model, fam, args))
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
    exactly the profiles containing a block of size 3 or larger.  A trial
    count above :data:`MAX_TRIALS` or a dimension past the enumeration cap
    raises ``ValueError`` before any product.
    """
    if trials > MAX_TRIALS:
        raise ValueError(f"trial count {trials} is above the cap of {MAX_TRIALS}")
    n = alg.dim
    profiles = enumerate_semisimple_types(n)
    reached = generated_subalgebra_dim(alg, [gen_x, gen_y])
    if reached < n:
        raise NotGeneratingError(reached, n)
    fam = tower_family(n)
    span = family_span_dim(alg, fam, [gen_x, gen_y])
    rows = []
    for profile in profiles:
        bound = tower_bound(profile)
        sampled = sampled_lower_bound(profile, fam, trials, seed) if trials else None
        status = EXCLUDED if span > bound else NOT_EXCLUDED
        rows.append(TargetRow(profile, bound, sampled, status))
    return ObstructionReport(
        fam.printed_words(),
        (gen_x.coords, gen_y.coords),
        span,
        rows,
    )
