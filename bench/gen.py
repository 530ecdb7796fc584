"""Seeded input generator for the benchmark, independent of the package.

Structure tensors are built here from exact ``fractions`` arithmetic, moved
to scrambled bases by elementary column operations, and written in the
package's JSON file formats.  Nothing here imports ``algdeform``: two commits
under comparison read byte-identical inputs, and every expected answer comes
from the construction (block counts, radical dimension) or from a hand
derivation written next to the generator that produces it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt


class G:
    """Exact Gaussian rational re + im*i (just enough arithmetic for tables)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return G(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return G(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        """The package's scalar syntax: ``a/b``, ``a/b+c/d*i``, ``c/d*i``."""
        if not self.im:
            return rat_str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{rat_str(mag)}*i"
        if not self.re:
            return imag if self.im > 0 else "-" + imag
        return f"{rat_str(self.re)}{'+' if self.im > 0 else '-'}{imag}"


def rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


ONE = G(1)
I = G(0, 1)


class Table:
    """A unital algebra as a sparse structure tensor, with its known answers.

    ``tab[i][j]`` maps output index -> coefficient of the product of basis
    elements i and j.  ``blocks`` is the Wedderburn profile {size: count} of
    the semisimple quotient and ``radical_dim`` the radical's dimension; both
    are known from how the algebra was put together, never computed.
    """

    __slots__ = ("labels", "tab", "unit", "blocks", "radical_dim")

    def __init__(self, labels, tab, unit, blocks, radical_dim):
        self.labels = list(labels)
        self.tab = tab
        self.unit = unit
        self.blocks = dict(blocks)
        self.radical_dim = radical_dim

    @property
    def dim(self):
        return len(self.labels)

    def mul(self, a: dict, b: dict) -> dict:
        out = {}
        for i, x in a.items():
            row = self.tab[i]
            for j, y in b.items():
                xy = x * y
                for k, c in row[j].items():
                    out[k] = out.get(k, G()) + xy * c
        return {k: v for k, v in out.items() if v}

    def is_real(self):
        return all(
            not c.im for row in self.tab for vec in row for c in vec.values()
        ) and all(not c.im for c in self.unit.values())

    def to_json_dict(self):
        n = self.dim
        return {
            "dim": n,
            "labels": self.labels,
            "unit": [str(self.unit.get(k, G())) for k in range(n)],
            "table": [
                [[str(vec.get(k, G())) for k in range(n)] for vec in row]
                for row in self.tab
            ],
        }


def check_table(t: Table):
    """Own associativity and unit-law checker; returns the failures found."""
    n = t.dim
    fails = []
    basis = [{k: ONE} for k in range(n)]
    for i in range(n):
        for j in range(n):
            ij = t.tab[i][j]
            for k in range(n):
                if t.mul(ij, basis[k]) != t.mul(basis[i], t.tab[j][k]):
                    fails.append(("assoc", i, j, k))
    for j in range(n):
        if t.mul(t.unit, basis[j]) != basis[j]:
            fails.append(("unit-left", j))
        if t.mul(basis[j], t.unit) != basis[j]:
            fails.append(("unit-right", j))
    return fails


# -- stock algebras -------------------------------------------------------------


def _unit_table(pairs, k, keep):
    index = {rc: i for i, rc in enumerate(pairs)}
    tab = [[{} for _ in pairs] for _ in pairs]
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c and keep(a, d):
                tab[i][j] = {index[(a, d)]: ONE}
    unit = {index[(r, r)]: ONE for r in range(k)}
    return [f"e{a}{b}" for a, b in pairs], tab, unit


def matrix_block(k):
    """Full k-by-k matrices on matrix units: profile {k: 1}, radical 0."""
    pairs = [(r, c) for r in range(k) for c in range(k)]
    labels, tab, unit = _unit_table(pairs, k, lambda a, d: True)
    return Table(labels, tab, unit, {k: 1}, 0)


def upper_triangular(k):
    """Upper-triangular k-by-k matrices.

    The radical is the strictly upper part (dim k(k-1)/2) and the quotient is
    the k diagonal idempotents, so the profile is {1: k}.
    """
    pairs = [(r, c) for r in range(k) for c in range(r, k)]
    labels, tab, unit = _unit_table(pairs, k, lambda a, d: a <= d)
    return Table(labels, tab, unit, {1: k}, k * (k - 1) // 2)


def dual_numbers():
    """k[x]/(x^2): radical span{x}, quotient k."""
    tab = [[{0: ONE}, {1: ONE}], [{1: ONE}, {}]]
    return Table(["1", "x"], tab, {0: ONE}, {1: 1}, 1)


def quantum_plane(a, b, q=ONE):
    """k<x,y>/(x^a, y^b, yx - q xy) on the normal-ordered basis x^i y^j.

    (x^i y^j)(x^k y^l) = q^(jk) x^(i+k) y^(j+l), zero when an exponent
    overflows.  x and y are nilpotent, so the radical is everything but the
    unit: dim ab - 1, quotient k.
    """
    pairs = [(i, j) for i in range(a) for j in range(b)]
    index = {p: n for n, p in enumerate(pairs)}
    tab = [[{} for _ in pairs] for _ in pairs]
    for m, (i, j) in enumerate(pairs):
        for n, (k, l) in enumerate(pairs):
            if i + k < a and j + l < b:
                c = ONE
                for _ in range(j * k):
                    c = c * q
                tab[m][n] = {index[(i + k, j + l)]: c}
    labels = [_monomial_label(i, j) for i, j in pairs]
    return Table(labels, tab, {0: ONE}, {1: 1}, a * b - 1)


def _monomial_label(i, j):
    parts = [f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e]
    return "*".join(parts) or "1"


def contraction(path):
    """The 12-dimensional contraction algebra, read from its frozen table.

    Every relation lies in the ideal m = (x, y), so A/m = k and m (all basis
    words but the empty one) has codimension 1; m is nilpotent (checked by
    ``nilpotency_index`` in the generator's test), so the radical is m:
    dim 11, quotient k.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    labels = data["labels"]
    n = len(labels)
    tab = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k, c in data["products"]:
        tab[i][j][k] = G(c)
    return Table(labels, tab, {0: ONE}, {1: 1}, n - 1)


def permute(t: Table, rng) -> Table:
    """The same algebra with its basis listed in a seeded random order."""
    n = t.dim
    order = list(range(n))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    tab = [
        [{where[k]: c for k, c in t.tab[a][b].items()} for b in order] for a in order
    ]
    unit = {where[k]: c for k, c in t.unit.items()}
    return Table([t.labels[a] for a in order], tab, unit, t.blocks, t.radical_dim)


def direct_sum(*parts):
    labels, unit, blocks, rad = [], {}, {}, 0
    n = sum(p.dim for p in parts)
    tab = [[{} for _ in range(n)] for _ in range(n)]
    off = 0
    for idx, p in enumerate(parts):
        labels += [f"{lbl}_{idx}" for lbl in p.labels]
        for i in range(p.dim):
            for j in range(p.dim):
                tab[off + i][off + j] = {off + k: c for k, c in p.tab[i][j].items()}
        unit.update({off + k: c for k, c in p.unit.items()})
        for j, c in p.blocks.items():
            blocks[j] = blocks.get(j, 0) + c
        rad += p.radical_dim
        off += p.dim
    return Table(labels, tab, unit, blocks, rad)


def block_sum(sizes):
    return direct_sum(*(matrix_block(k) for k in sizes))


# -- changes of basis -------------------------------------------------------------


def scramble_ops(rng, n, count, gaussian):
    """``count`` elementary operations b_a <- b_a + s*b_b with s in {+-1} (or
    {+-1, +-i} when ``gaussian``, with at least one non-real s)."""
    choices = [ONE, -ONE, I, -I] if gaussian else [ONE, -ONE]
    ops = []
    for _ in range(count):
        a, b = rng.sample(range(n), 2)
        ops.append((a, b, rng.choice(choices)))
    if gaussian and all(not s.im for _, _, s in ops):
        a, b, _ = ops[-1]
        ops[-1] = (a, b, I)
    return ops


def change_basis(t: Table, ops) -> Table:
    """The same algebra on the basis reached by applying ``ops`` in order."""
    n = t.dim
    cols = [{k: ONE} for k in range(n)]  # old coordinates of each new basis element
    for a, b, s in ops:
        col = dict(cols[a])
        for k, c in cols[b].items():
            col[k] = col.get(k, G()) + s * c
        cols[a] = {k: c for k, c in col.items() if c}

    tab = [[new_coords(ops, n, t.mul(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    unit = new_coords(ops, n, t.unit)
    return Table([f"b{i}" for i in range(n)], tab, unit, t.blocks, t.radical_dim)


def new_coords(ops, n, vec):
    """Coordinates on the scrambled basis of a vector given on the old one."""
    c = [vec.get(k, G()) for k in range(n)]
    for a, b, s in ops:
        if c[a]:
            c[b] = c[b] - s * c[a]
    return {k: v for k, v in enumerate(c) if v}


def echelon(vectors, n):
    """A basis (sparse dicts) of the span of the vectors over Q(i), by plain
    Gaussian elimination."""
    rows = {}  # pivot -> row with 1 at the pivot
    for vec in vectors:
        v = [vec.get(k, G()) for k in range(n)]
        for p, row in rows.items():
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((k for k in range(n) if v[k]), None)
        if lead is not None:
            inv = _inverse(v[lead])
            rows[lead] = [x * inv for x in v]
    return [{k: c for k, c in enumerate(row) if c} for row in rows.values()]


def _inverse(x: G) -> G:
    norm = x.re * x.re + x.im * x.im
    return G(x.re / norm, -x.im / norm)


def nilpotency_index(t: Table, ideal):
    """Least k with I^k = 0 for the span I of the given vectors, or None when
    the powers stop shrinking before they reach zero."""
    ideal = echelon(ideal, t.dim)
    power, k = ideal, 1
    while power:
        nxt = echelon([t.mul(a, b) for a in power for b in ideal], t.dim)
        if len(nxt) == len(power):
            return None
        power, k = nxt, k + 1
    return k


# -- expected answers ---------------------------------------------------------------


def filtration_dims(blocks):
    """dims[m] = sum over blocks j > m of c_j*j^2, m = 0..isqrt(quotient dim)
    (Amitsur-Levitzki: S_2m vanishes on M_j exactly when j <= m)."""
    q = sum(c * j * j for j, c in blocks.items())
    return [sum(c * j * j for j, c in blocks.items() if j > m) for m in range(isqrt(q) + 1)]


def identity_span_dims(blocks, m):
    """(span_dim, ideal_dim) of S_2m on a semisimple algebra, m >= 1.

    Values of S_2m are alternating and multilinear, so basis tuples span the
    same space as all tuples; products across blocks vanish, so the span is
    the direct sum over blocks.  On M_j with j > m it is sl_j: traceless
    because 2m is even (Rosset), nonzero, and conjugation-invariant, and sl_j
    is irreducible.  The ideal it generates is the whole block.
    """
    span = sum(c * (j * j - 1) for j, c in blocks.items() if j > m)
    ideal = sum(c * j * j for j, c in blocks.items() if j > m)
    return span, ideal


def semisimple_profiles(n):
    """All multisets of block sizes whose squares sum to n."""
    out = []

    def walk(rest, cap, acc):
        if rest == 0:
            counts = {}
            for j in acc:
                counts[j] = counts.get(j, 0) + 1
            out.append(counts)
            return
        for j in range(min(cap, isqrt(rest)), 0, -1):
            walk(rest - j * j, j, acc + [j])

    walk(n, isqrt(n), [])
    return out


def profile_str(counts):
    return " ".join(f"{j}^{c}" for j, c in sorted(counts.items()))


def tower_statuses(n, span):
    """Obstruct rows as {profile text: (bound, status)}: a profile is
    Excluded exactly when its ceiling sum c_j*min(2j, j^2) is below ``span``."""
    rows = {}
    for counts in semisimple_profiles(n):
        bound = sum(c * min(2 * j, j * j) for j, c in counts.items())
        rows[profile_str(counts)] = (bound, "Excluded" if span > bound else "NotExcluded")
    return rows


# -- deformation families ---------------------------------------------------------


def root_family(k, const_parts):
    """Table family k[x]/(x^k - t) (+) constant blocks, as (json dict, answers).

    At t = 0 the first summand is local (radical dim k-1).  At any rational
    s != 0, x^k - s has k distinct roots, so that summand splits into k
    one-blocks with zero radical; the constant summands keep their own
    profiles and radicals at every s.
    """
    base = direct_sum(*const_parts) if const_parts else None
    n = k + (base.dim if base else 0)
    zero = ["0"]
    table = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a in range(k):
        for b in range(k):
            e = a + b
            table[a][b] = [zero] * n
            if e < k:
                table[a][b][e] = ["1"]
            else:
                table[a][b][e - k] = ["0", "1"]
    if base:
        for i in range(base.dim):
            for j in range(base.dim):
                vec = [zero] * n
                for l, c in base.tab[i][j].items():
                    vec[k + l] = [str(c)]
                table[k + i][k + j] = vec
    unit = ["1"] + ["0"] * (k - 1)
    if base:
        unit += [str(base.unit.get(l, G())) for l in range(base.dim)]
    labels = ["1"] + [f"x^{e}" if e > 1 else "x" for e in range(1, k)]
    labels += [f"c{l}" for l in range(n - k)]
    data = {"kind": "table", "dim": n, "labels": labels, "unit": unit, "table": table}
    blocks = {1: k}
    rad = base.radical_dim if base else 0
    for j, c in (base.blocks if base else {}).items():
        blocks[j] = blocks.get(j, 0) + c
    return data, {"dim": n, "blocks": blocks, "radical_dim": rad}


def scan_expected(answers, count):
    """Per-sample rows and the verdict for a family whose every sample s != 0
    has the same dim, radical dim and profile."""
    rows = [
        {"k": k, "dim": answers["dim"], "radical_dim": answers["radical_dim"],
         "semisimple": answers["radical_dim"] == 0,
         "profile": {str(j): c for j, c in sorted(answers["blocks"].items())}}
        for k in range(count)
    ]
    if answers["radical_dim"]:
        verdict = {"kind": "NeverSemisimpleOnSchedule", "profile": None, "start_index": None}
    else:
        verdict = {"kind": "StableSemisimpleTarget", "profile": rows[0]["profile"],
                   "start_index": 0}
    return rows, verdict


# -- presentations ----------------------------------------------------------------


GENERATOR_NAMES = ("x", "y", "z", "w")


def commutative_presentation(exps, q_i=False):
    """k[x1..xg]/(xk^ek, commutators): dim prod(e).  With ``q_i`` the first
    two generators skew-commute, y*x = i*x*y, which keeps the normal-ordered
    monomial basis and so the dimension."""
    gens = GENERATOR_NAMES[: len(exps)]
    rels = [f"{g}^{e}" for g, e in zip(gens, exps)]
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            if q_i and (a, b) == (0, 1):
                rels.append(f"{gens[1]}*{gens[0]} - i*{gens[0]}*{gens[1]}")
            else:
                rels.append(f"{gens[a]}*{gens[b]} - {gens[b]}*{gens[a]}")
    dim = 1
    for e in exps:
        dim *= e
    return {"generators": list(gens), "relations": rels, "expected_dim": dim}


def relation_family(exps, split):
    """Relation family k[x,y,...]/(x^a - t, y^b - t or y^b, commutators).

    At s != 0, x^a - s has a distinct roots.  With ``split`` every generator
    satisfies x^e = s, so the algebra is a tensor product of split
    semisimple pieces: radical 0, profile {1: prod(e)}.  Otherwise only the
    first does, the rest stay nilpotent: radical dim prod(e) - a, profile
    {1: a}.
    """
    pres = commutative_presentation(exps)
    gens = pres["generators"]
    rels = pres["relations"]
    rels[0] = f"{gens[0]}^{exps[0]} - t"
    if split:
        for g_idx in range(1, len(exps)):
            rels[g_idx] = f"{gens[g_idx]}^{exps[g_idx]} - t"
    dim = pres["expected_dim"]
    blocks = {1: dim if split else exps[0]}
    answers = {"dim": dim, "blocks": blocks, "radical_dim": dim - blocks[1]}
    return {"kind": "relations", **pres, "relations": rels}, answers


def dumps(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"
