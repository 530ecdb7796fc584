"""Finite-dimensional unital associative algebras given by structure constants.

A :class:`StructureAlgebra` stores its multiplication tensor once, in
sparse form: ``sparse[i][j]`` holds the nonzero ``(l, c)`` pairs of the
product of basis elements i and j.  ``deformation.DeformationFamily`` stores
its t-polynomial tensor the same way; both are read from a dense n×n×n
table, and ``table`` gives that dense form back as a view built on first
use.  The unit is an explicit coordinate vector rather than a distinguished
basis slot, because quotients and presentation builders routinely produce
bases where no single basis element is the identity.

Every product goes through one sparse contraction of that tensor,
:func:`_combine`, which sums scalar multiples of table entries while walking
only their nonzero coordinates.  Validation, :func:`_axiom_failures`, takes
one basis pair (i, j) at a time and builds both sides of associativity for
every k as one sparse vector.  The trace vector and trace form,
:func:`_trace_vector` and :func:`_trace_form`, sum over the same sparse
entries.  All of these need nothing of their scalars but ``*``, ``+``,
``==`` and truth, so t-polynomial deformation tables share them; the
radical, the centre constants and the standard-identity products of
``analysis`` go through them too.
"""

from __future__ import annotations

import json

from .linalg import ONE, ZERO, GaussianRational, Matrix, Subspace, _Echelon, parse_scalar


class NotAnIdealError(ValueError):
    """The given subspace is not a two-sided ideal."""


class UnitInIdealError(ValueError):
    """Quotient by an ideal containing the unit would be the zero ring."""


class ValidationReport:
    """Exhaustive associativity and unit-law check results.

    ``associativity`` lists failing basis triples (i, j, k);
    ``unit`` lists failing basis indices with the side that failed.
    The report is empty exactly when the table is a valid unital algebra.
    """

    __slots__ = ("associativity", "unit")
    VALID = "valid: associativity and unit law hold"
    WHERE = ""  # how the failures hold, e.g. " in t"

    def __init__(self, associativity, unit):
        self.associativity = tuple(associativity)
        self.unit = tuple(unit)

    @property
    def ok(self) -> bool:
        return not self.associativity and not self.unit

    def failures(self):
        """One line per failure: the triples in order, then the unit indices."""
        where = self.WHERE
        return [
            f"associativity fails{where} at basis triple ({i}, {j}, {k})"
            for i, j, k in self.associativity
        ] + [f"unit law fails{where} at basis index {j} ({side})" for j, side in self.unit]

    def summary(self) -> str:
        """The failure count and the first failure, on one line."""
        lines = self.failures()
        if not lines:
            return self.VALID
        return f"{len(lines)} failure{'s' if len(lines) > 1 else ''}, first: {lines[0]}"

    def __str__(self):
        return "\n".join(self.failures()) or self.VALID


class Element:
    """An algebra element as a coordinate vector over the basis."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(GaussianRational.coerce(c) for c in coords)
        if len(self.coords) != algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def _same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_algebra(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._same_algebra(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
            return Element(
                self.algebra,
                self.algebra.multiply_coords(self.coords, other.coords),
            )
        c = GaussianRational.coerce(other)
        return Element(self.algebra, [a * c for a in self.coords])

    def __rmul__(self, other):
        c = GaussianRational.coerce(other)
        return Element(self.algebra, [c * a for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __repr__(self):
        parts = [
            f"{c}*{lbl}"
            for c, lbl in zip(self.coords, self.algebra.labels)
            if c
        ]
        return "Element(" + (" + ".join(parts) if parts else "0") + ")"


class _Tensor:
    """Labels, unit and structure tensor, shared by algebras and t-polynomial
    families.  The tensor is stored once, sparse: ``sparse[i][j]`` is the
    tuple of nonzero ``(l, c)`` pairs, in ascending l, of the product of
    basis elements i and j.  ``table`` is a dense view of it."""

    __slots__ = ("dim", "labels", "unit", "sparse", "_table")
    # the zero of the structure constants, their coercion, and their JSON form
    _zero = ZERO
    _constant = staticmethod(GaussianRational.coerce)
    _literal = staticmethod(str)

    def __init__(self, labels, table, unit):
        labels = tuple(str(x) for x in labels)
        self._store(labels, _sparse_tensor(table, len(labels), self._constant), unit)

    @classmethod
    def _from_sparse(cls, labels, sparse, unit):
        """An instance on a tensor already in the sparse form, taken as it is."""
        self = cls.__new__(cls)
        self._store(tuple(labels), sparse, unit)
        return self

    def _store(self, labels, sparse, unit):
        self.labels = labels
        self.dim = len(labels)
        self.sparse = sparse
        self.unit = tuple(GaussianRational.coerce(c) for c in unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        self._table = None

    @property
    def table(self):
        """The dense tensor, ``table[i][j][l]`` = c_ij^l, as tuples: a
        read-only view built on first use and kept."""
        if self._table is None:
            n, zero = self.dim, self._zero
            self._table = tuple(tuple(_dense(entry, n, zero) for entry in row) for row in self.sparse)
        return self._table

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self.labels),
            "unit": [str(c) for c in self.unit],
            "table": [[[self._literal(c) for c in vec] for vec in row] for row in self.table],
        }


class StructureAlgebra(_Tensor):
    """Unital associative algebra over the Gaussian rationals.

    Immutable after construction; the table is given dense, n×n×n, and
    stored sparse.  ``validate`` checks associativity and the unit law
    exhaustively; use it before trusting a hand-written table.
    """

    __slots__ = ()

    # -- element construction ---------------------------------------------

    def element(self, coords) -> Element:
        return Element(self, coords)

    def basis_element(self, i: int) -> Element:
        return Element(self, [ONE if j == i else ZERO for j in range(self.dim)])

    def unit_element(self) -> Element:
        return Element(self, self.unit)

    def zero_element(self) -> Element:
        return Element(self, [ZERO] * self.dim)

    # -- multiplication -------------------------------------------------------

    def multiply_coords(self, a, b):
        """Bilinear extension of the structure table to coordinate vectors."""
        n = self.dim
        if len(a) != n or len(b) != n:
            raise ValueError("coordinate length does not match algebra dimension")
        product = _product(self.sparse, _support(a), _support(b))
        return tuple(product.get(l, ZERO) for l in range(n))

    def sparse_multiply(self, a: dict, b: dict) -> dict:
        """Product of sparse coordinate dicts {index: scalar}; zero-free output."""
        return _product(self.sparse, a.items(), b.items())

    def left_regular(self, a: Element) -> Matrix:
        """Matrix of y -> a∘y on the basis; column j is a∘d_j."""
        n = self.dim
        sparse = self.sparse
        terms = _support(a.coords)
        cols = [_combine((c, sparse[i][j]) for i, c in terms) for j in range(n)]
        return Matrix([[col.get(i, ZERO) for col in cols] for i in range(n)])

    def trace_vector(self):
        """trace(L_{d_i}) for each basis index i; linear data for the Gram form."""
        return _trace_vector(self.sparse, ZERO)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check associativity on every basis triple and the unit law on every
        basis element.

        For each basis pair (i, j), both sides of (e_i e_j) e_k =
        e_i (e_j e_k) are built for all k at once as one sparse vector, so
        the cost is the number of nonzero products c_ij^l·c_lk^m and
        c_jk^l·c_il^m, with no per-triple work where both sides vanish.
        """
        return ValidationReport(*_axiom_failures(self.sparse, self.unit, ONE))

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "StructureAlgebra":
        return cls(*_read_table(data, 3))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "StructureAlgebra":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return f"StructureAlgebra(dim {self.dim}: {', '.join(self.labels)})"


def _dumps(value, indent=""):
    """``json.dumps(value, indent=2)``, byte for byte.  That call runs the
    pure-Python encoder, a nest of closures left as cyclic garbage; here only
    the leaves and keys go through ``json.dumps``, which encodes them in C."""
    inner = indent + "  "
    if isinstance(value, dict):
        lines = [f"{inner}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{_dumps(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}" if lines else "{}"
    if isinstance(value, (list, tuple)):
        lines = [inner + _dumps(v, inner) for v in value]
        return "[\n" + ",\n".join(lines) + f"\n{indent}]" if lines else "[]"
    return json.dumps(value)


def _json_array(value, field, strings=False):
    """``value`` if it is a JSON array (of strings, if asked); otherwise a
    ``ValueError`` that names the field."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON array, not {json.dumps(value)[:24]}")
    if strings and not all(isinstance(x, str) for x in value):
        raise ValueError(f"{field} must be a JSON array of strings")
    return value


def _field(data, key):
    """``data[key]``, or a ``ValueError`` that names the missing field."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f'missing field "{key}"') from None


def _json_int(value, field):
    """``value`` if it is a JSON integer (``true``, ``"1"`` and ``1.7`` are
    not); otherwise a ``ValueError`` that names the field."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, not {json.dumps(value)[:24]}")
    return value


def _read_array(value, field, depth, literal):
    """Nested JSON arrays ``depth`` levels deep, with ``literal`` applied to
    the leaves."""
    _json_array(value, field)
    if depth > 1:
        return [_read_array(x, f"{field}[{k}]", depth - 1, literal) for k, x in enumerate(value)]
    try:
        return [literal(x) for x in value]
    except TypeError:  # an array or object where a literal belongs
        raise ValueError(f"{field} must hold scalar literals") from None


def _read_table(data, depth):
    """``(labels, table, unit)`` of a document whose table is ``depth`` arrays
    deep (3, or 4 for t-coefficient lists).  Each distinct literal is parsed
    once, and every entry that spells it shares the immutable scalar."""
    if not isinstance(data, dict):
        raise ValueError("a table file must hold a JSON object")
    n = _json_int(_field(data, "dim"), "dim")
    if n < 1:  # the zero ring: no quotient or presentation gives it
        raise ValueError("dim must be at least 1")
    scalars = {}

    def literal(text):
        x = scalars.get(text)
        if x is None or type(text) is not str:  # 1 == 1.0 == True: share strings only
            x = scalars[text] = parse_scalar(text)
        return x

    table = _read_array(_field(data, "table"), "table", depth, literal)
    if len(table) != n:  # before any default label: dim may be huge
        raise ValueError("structure tensor has wrong shape")
    labels = data.get("labels")
    labels = _json_array(labels, "labels") if labels else [f"d{i}" for i in range(n)]
    if len(labels) != n:
        raise ValueError("label count does not match dim")
    return labels, table, _read_array(_field(data, "unit"), "unit", 1, literal)


def _support(vec):
    """The nonzero ``(index, scalar)`` pairs of a coordinate vector."""
    return [(i, GaussianRational.coerce(c)) for i, c in enumerate(vec) if c]


def _sparse_tensor(table, n, constant):
    """The sparse form of an n×n×n dense table: the nonzero ``(l, c)`` pairs
    of each entry, with ``constant`` applied to every c.  Any other shape is
    a ``ValueError``."""
    if len(table) != n or any(len(row) != n or any(len(vec) != n for vec in row)
                              for row in table):
        raise ValueError("structure tensor has wrong shape")
    return tuple(
        tuple(tuple((l, c) for l, c in enumerate(map(constant, vec)) if c) for vec in row)
        for row in table
    )


def _dense(pairs, n, zero=ZERO):
    """The length-n vector with the given nonzero ``(index, scalar)`` pairs."""
    vec = [zero] * n
    for l, c in pairs:
        vec[l] = c
    return tuple(vec)


def _combine(terms):
    """Σ coeff·entry over ``(coeff, entry)`` pairs, each entry a sparse table
    vector; returns the nonzero sums as ``{index: scalar}``.

    The structure-tensor contraction behind every product in this module.
    It touches only nonzero coordinates and skips the multiply by a
    structure constant equal to 1.
    """
    out = {}
    for coeff, entry in terms:
        for l, c in entry:
            term = coeff if c == 1 else coeff * c
            prev = out.get(l)
            out[l] = term if prev is None else prev + term
    return {l: v for l, v in out.items() if v}


def _product(sparse, a, b):
    """a·b for vectors given as nonzero ``(index, scalar)`` pairs; ``b`` is
    iterated once per pair of ``a``.  A pair whose table entry e_i·e_j is
    empty is skipped before its coefficient ai·bj is formed."""
    return _combine((ai * bj, entry) for i, ai in a for row in (sparse[i],)
                    for j, bj in b if (entry := row[j]))


def _trace_vector(sparse, zero):
    """trace(L_{d_i}) = Σ_j c_ij^j for each row i of a sparse table; ``zero``
    is the zero of its scalars (``ZERO``, or ``TPoly()`` for a family)."""
    return tuple(
        sum((c for j, entry in enumerate(row) for l, c in entry if l == j), zero)
        for row in sparse
    )


def _trace_form(sparse, tau, zero):
    """Rows of the trace form G[i][j] = trace(L_{d_i} L_{d_j}) = Σ_l c_ij^l·tau_l
    of a sparse table, given its trace vector ``tau``; only the entries
    where tau is nonzero are multiplied."""
    weight = {l: t for l, t in enumerate(tau) if t}
    return [
        [sum((c * weight[l] for l, c in entry if l in weight), zero) for entry in row]
        for row in sparse
    ]


def _axiom_failures(sparse, unit, one):
    """Failing associativity triples and unit-law indices of a sparse table.

    One basis pair (i, j) at a time, both sides of (e_i e_j) e_k =
    e_i (e_j e_k) are formed for every k at once, as one sparse vector keyed
    k·n + m: the left side is Σ_l c_ij^l times the flattened nonzero entries
    of row l, the right side Σ_l c_jk^l times the entries of row i.  Only
    when the two differ are the failing k listed, in ascending order; the
    unit law is checked after, as u·e_j and e_j·u against e_j for each j.
    ``unit`` holds scalars of the table's type and ``one`` is that type's 1;
    whether each constant equals it is decided once, not per product.
    """
    n = len(sparse)
    flagged = [[[(m, c, c == one) for m, c in entry] for entry in row] for row in sparse]
    flat = [[(k * n + m, c, c1) for k, entry in enumerate(row) for m, c, c1 in entry]
            for row in flagged]
    assoc = []
    for i, row_i in enumerate(flagged):
        for j, c_ij in enumerate(row_i):
            left = {}
            for l, a, a1 in c_ij:
                for key, c, c1 in flat[l]:
                    term = a if c1 else c if a1 else a * c
                    prev = left.get(key)
                    left[key] = term if prev is None else prev + term
            right = {}
            for k, c_jk in enumerate(flagged[j]):
                for l, a, a1 in c_jk:
                    for m, c, c1 in row_i[l]:
                        key = k * n + m
                        term = a if c1 else c if a1 else a * c
                        prev = right.get(key)
                        right[key] = term if prev is None else prev + term
            left = {key: v for key, v in left.items() if v}
            right = {key: v for key, v in right.items() if v}
            if left != right:
                bad = {key // n for key in left.keys() | right.keys()
                       if left.get(key) != right.get(key)}
                assoc.extend((i, j, k) for k in sorted(bad))
    unit = [(l, u) for l, u in enumerate(unit) if u]
    failures = []
    for j in range(n):
        e_j = {j: one}
        if _combine((u, sparse[l][j]) for l, u in unit) != e_j:
            failures.append((j, "left"))
        if _combine((u, sparse[j][l]) for l, u in unit) != e_j:
            failures.append((j, "right"))
    return assoc, failures


def ideal_closure(alg: StructureAlgebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal of ``alg`` containing ``seed``.

    A worklist: every row the span gains is multiplied on both sides by each
    basis element once, and only those products are reduced.
    """
    if seed.ambient_dim != alg.dim:
        raise ValueError("seed ambient dimension does not match algebra dimension")
    n = alg.dim
    sparse = alg.sparse
    span = _Echelon()
    todo = [span.add(v) for v in seed.echelon.vectors()]
    while todo and len(span.rows) < n:
        terms = todo.pop().items()
        for i in range(n):
            for product in (_combine((c, sparse[i][l]) for l, c in terms),
                            _combine((c, sparse[l][i]) for l, c in terms)):
                row = span.add(product)
                if row is not None:
                    todo.append(row)
    return Subspace(n, span)


def quotient(alg: StructureAlgebra, ideal: Subspace):
    """Quotient algebra by a two-sided ideal, with the projection matrix.

    Returns ``(quotient_algebra, projection)`` where the projection maps old
    coordinates to coordinates on the complement basis (the non-pivot columns
    of the ideal's rref basis) and is an algebra homomorphism.
    """
    if ideal.ambient_dim != alg.dim:
        raise ValueError("ideal ambient dimension does not match algebra dimension")
    if ideal_closure(alg, ideal) != ideal:
        raise NotAnIdealError("subspace is not a two-sided ideal")
    q, project = _project(alg, ideal)
    return q, Matrix(zip(*(_dense(project({j: ONE}), q.dim) for j in range(alg.dim))))


def _project(alg: StructureAlgebra, ideal: Subspace):
    """:func:`quotient` by a subspace already known to be a two-sided ideal,
    such as the radical that :func:`analysis.radical` has certified.

    Returns the quotient algebra and the projection as a function from a
    sparse ``{index: scalar}`` vector to the nonzero ``(index, scalar)``
    pairs of its image; each table entry is its reduced residue.
    """
    span = ideal.echelon
    if ideal.dim and not span.reduce(dict(_support(alg.unit))):
        raise UnitInIdealError("ideal contains the unit; quotient would be the zero ring")
    comp = [c for c in range(alg.dim) if c not in span.rows]
    index = {c: k for k, c in enumerate(comp)}

    def project(vec):
        return tuple(sorted((index[c], v) for c, v in span.reduce(vec).items()))

    sparse = alg.sparse
    table = tuple(tuple(project(dict(sparse[a][b])) for b in comp) for a in comp)
    unit = _dense(project(dict(_support(alg.unit))), len(comp))
    return StructureAlgebra._from_sparse([alg.labels[c] for c in comp], table, unit), project
