"""Polynomial-type deformation families and shrinking-schedule scans.

A :class:`DeformationFamily` is a structure-constant tensor whose entries are
polynomials in t.  Associativity and the unit law are checked as identities
in t (coefficient by coefficient), so every rational specialization is
automatically a valid algebra.  A :class:`SampledFamily` instead deforms the
relations of a presentation and rebuilds the algebra at each sample value,
which avoids any symbolic computation over the coefficient ring.

``scan`` walks a geometric schedule s_k = base / 2^k and classifies each
specialization (radical dimension, semisimplicity, block profile).  Verdicts
are deliberately schedule-relative: a finite scan can exhibit a stable
semisimple target, never certify one.
"""

from __future__ import annotations

import json

from .algebra import (StructureAlgebra, ValidationReport, _axiom_failures, _read_table,
                      _Tensor, _trace_form, _trace_vector)
from .analysis import block_profile, radical
from .linalg import GaussianRational, parse_scalar
from .ncpoly import TPOLY_ONE, NcPoly, TPoly
from .presentation import BuildResult, Presentation, PresentationError, _read_presentation, build


class FamilyValidationError(ValueError):
    """The family does not satisfy the deformation axioms identically in t."""


class ScheduleError(ValueError):
    """Invalid scan schedule parameters."""


# Most samples a scan takes.  Each sample is a full radical and block-profile
# analysis, and by k = 64 the schedule has shrunk s by a factor above 10^19.
MAX_SCAN_COUNT = 64


class FamilyReport(ValidationReport):
    """Failures of the family axioms, as identities in t."""

    __slots__ = ()
    VALID = "valid: associativity and unit law hold identically in t"
    WHERE = " in t"


class DeformationFamily(_Tensor):
    """Structure constants polynomial in t; the base algebra sits at t = 0.

    The table is given dense, n×n×n, with ``TPoly`` entries (or scalars,
    read as constants) and stored sparse, as for a ``StructureAlgebra``;
    the unit is constant in t.
    """

    __slots__ = ("_report",)
    _zero = TPoly()

    @staticmethod
    def _constant(c):
        return c if isinstance(c, TPoly) else TPoly.const(c)

    @staticmethod
    def _literal(p):
        return [str(c) for c in p.coeffs]

    def _store(self, labels, sparse, unit):
        super()._store(labels, sparse, unit)
        self._report = None

    def validate(self) -> FamilyReport:
        """Check associativity and the unit law as polynomial identities in t.

        The same sparse contraction as :meth:`StructureAlgebra.validate`,
        over t-polynomial structure constants.
        """
        if self._report is None:
            unit = [TPoly.const(c) for c in self.unit]
            failures = _axiom_failures(self.sparse, unit, TPOLY_ONE)
            self._report = FamilyReport(*failures)
        return self._report

    def specialize(self, s) -> StructureAlgebra:
        """Exact specialization at a rational t = s; requires a valid family."""
        s = GaussianRational.coerce(parse_scalar(s) if isinstance(s, str) else s)
        if s.im:
            raise ValueError("specialization parameter must be real (zero imaginary part)")
        report = self.validate()
        if not report.ok:
            raise FamilyValidationError(f"family is not valid: {report.summary()}")
        table = tuple(
            tuple(tuple((l, v) for l, p in entry for v in (p.eval(s),) if v) for entry in row)
            for row in self.sparse
        )
        return StructureAlgebra._from_sparse(self.labels, table, self.unit)

    def to_json_dict(self) -> dict:
        return {"kind": "table", **super().to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeformationFamily":
        labels, table, unit = _read_table(data, 4)
        table = [[[TPoly(entry) for entry in vec] for vec in row] for row in table]
        return cls(labels, table, unit)


def constant_family(alg: StructureAlgebra) -> DeformationFamily:
    """The family that is the given algebra at every t."""
    table = tuple(
        tuple(tuple((l, TPoly.const(c)) for l, c in entry) for entry in row)
        for row in alg.sparse
    )
    return DeformationFamily._from_sparse(alg.labels, table, alg.unit)


def dual_number_family() -> DeformationFamily:
    """Basis {1, x} with x*x = t; splits into two one-blocks at every t != 0."""
    t = TPoly.t_power(1)
    return DeformationFamily(["1", "x"], [[[1, 0], [0, 1]], [[0, 1], [t, 0]]], [1, 0])


class SampledFamily:
    """A presentation template whose relations may involve t.

    There is no symbolic quotient over the polynomial ring; each sample value
    substitutes t and rebuilds the algebra from scratch.  The template must
    build to its expected dimension at t = 0; the :class:`Presentation` it
    builds there checks ``expected_dim`` and ``max_degree``.
    """

    __slots__ = ("generators", "relations", "expected_dim", "max_degree")

    def __init__(self, generators, relations, expected_dim, max_degree=None):
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        for r in self.relations:
            if not isinstance(r, NcPoly) or r.gens != self.generators:
                raise ValueError("relations must be NcPoly over the declared generators")
        self.expected_dim = expected_dim
        self.max_degree = max_degree
        self.build_at(0)  # the base of the family must exist

    def presentation_at(self, s) -> Presentation:
        rels = []
        for r in self.relations:
            terms = {w: c for w, c in r.at_t(s)}
            poly = NcPoly(self.generators, terms)
            if not poly.is_zero():
                rels.append(poly)
        return Presentation(self.generators, rels, self.expected_dim, self.max_degree)

    def build_at(self, s) -> BuildResult:
        return build(self.presentation_at(s))

    def to_json_dict(self) -> dict:
        out = {
            "kind": "relations",
            "generators": list(self.generators),
            "relations": [str(r) for r in self.relations],
            "expected_dim": self.expected_dim,
        }
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SampledFamily":
        return cls(*_read_presentation(data))


def load_family(path):
    """Load either family kind from its JSON file format."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a family file must hold a JSON object")
    kind = data.get("kind")
    if kind == "table":
        return DeformationFamily.from_json_dict(data)
    if kind == "relations":
        return SampledFamily.from_json_dict(data)
    raise ValueError(f"unknown family kind {kind!r}")


class ScanSample:
    """One row of a scan: the specialization at s analyzed."""

    __slots__ = ("index", "s", "dim", "semisimple", "radical_dim", "profile", "error")

    def __init__(self, index, s, dim=None, semisimple=None, radical_dim=None,
                 profile=None, error=None):
        self.index = index
        self.s = s
        self.dim = dim
        self.semisimple = semisimple
        self.radical_dim = radical_dim
        self.profile = profile
        self.error = error

    def to_json_dict(self) -> dict:
        return {
            "k": self.index,
            "s": str(self.s),
            "dim": self.dim,
            "semisimple": self.semisimple,
            "radical_dim": self.radical_dim,
            "profile": self.profile.to_json_dict() if self.profile else None,
            "error": self.error,
        }


STABLE = "StableSemisimpleTarget"
NEVER = "NeverSemisimpleOnSchedule"
MIXED = "Mixed"


class ScanVerdict:
    __slots__ = ("kind", "profile", "start_index")

    def __init__(self, kind, profile=None, start_index=None):
        self.kind = kind
        self.profile = profile
        self.start_index = start_index

    def __str__(self):
        if self.kind == STABLE:
            return f"{self.kind}({self.profile}, from k={self.start_index})"
        return self.kind

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "profile": self.profile.to_json_dict() if self.profile else None,
            "start_index": self.start_index,
        }


class ScanResult:
    __slots__ = ("samples", "verdict")

    def __init__(self, samples, verdict):
        self.samples = tuple(samples)
        self.verdict = verdict

    def to_json_dict(self) -> dict:
        return {
            "samples": [s.to_json_dict() for s in self.samples],
            "verdict": self.verdict.to_json_dict(),
        }


def scan(family, base, count=12) -> ScanResult:
    """Analyze the family along the schedule s_k = base / 2^k, k < count.

    The verdict is a deterministic function of the per-sample rows:
    ``StableSemisimpleTarget`` when a tail of samples (through the last one)
    is semisimple with one common profile, ``NeverSemisimpleOnSchedule`` when
    every sample analyzed cleanly and none was semisimple, ``Mixed``
    otherwise.  Sampled (relation-level) families additionally require every
    sample to build at the expected dimension for a stable verdict.
    """
    base = parse_scalar(base) if isinstance(base, str) else GaussianRational.coerce(base)
    if base.im or base.re <= 0:
        raise ScheduleError("schedule base must be a positive rational")
    if count < 2:
        raise ScheduleError("schedule needs at least two samples")
    if count > MAX_SCAN_COUNT:
        raise ScheduleError(f"schedule count {count} is above the cap of {MAX_SCAN_COUNT} samples")
    expected_dim = family.expected_dim if isinstance(family, SampledFamily) else family.dim
    samples = []
    for k in range(count):
        s = GaussianRational(base.re / (2**k))
        if isinstance(family, SampledFamily):
            try:
                alg = family.build_at(s).algebra
            except PresentationError as err:
                samples.append(ScanSample(k, s, error=f"{type(err).__name__}: {err}"))
                continue
        else:
            alg = family.specialize(s)
        rad = radical(alg)
        samples.append(
            ScanSample(
                k,
                s,
                dim=alg.dim,
                semisimple=rad.dim == 0,
                radical_dim=rad.dim,
                profile=block_profile(alg, rad),
            )
        )
    return ScanResult(samples, _verdict(samples, expected_dim))


def _verdict(samples, expected_dim) -> ScanVerdict:
    clean = all(row.error is None for row in samples)
    flat = clean and all(row.dim == expected_dim for row in samples)
    if clean and not any(row.semisimple for row in samples):
        return ScanVerdict(NEVER)
    last = samples[-1]
    if flat and last.semisimple:
        start = len(samples) - 1
        while start > 0:
            prev = samples[start - 1]
            if prev.semisimple and prev.profile == last.profile:
                start -= 1
            else:
                break
        return ScanVerdict(STABLE, last.profile, start)
    return ScanVerdict(MIXED)


def trace_form_determinant(family: DeformationFamily) -> TPoly:
    """Determinant of the trace Gram matrix as a polynomial in t.

    A specialization at s is semisimple exactly when this polynomial is
    nonzero at s, so the roots mark the exceptional parameter values.
    """
    n = family.dim
    sparse = family.sparse
    gram = _trace_form(sparse, _trace_vector(sparse, TPoly()), TPoly())
    # determinant by Laplace expansion memoized over column subsets
    minors = {0: TPoly.const(1)}
    for used in range(1, (1 << n)):
        row = bin(used).count("1") - 1
        acc = TPoly()
        rest = used
        position = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            col = bit.bit_length() - 1
            sub = minors[used ^ bit]
            if sub and gram[row][col]:
                term = gram[row][col] * sub
                acc = acc + term if (row + position) % 2 == 0 else acc - term
            position += 1
        minors[used] = acc
    return minors[(1 << n) - 1]
