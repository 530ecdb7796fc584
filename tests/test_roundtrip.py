"""Round trips: JSON documents of algebras and families, and relation text."""

import json

from hypothesis import given, settings, strategies as st

from algdeform.algebra import StructureAlgebra
from algdeform.deformation import DeformationFamily
from algdeform.linalg import GaussianRational
from algdeform.ncpoly import NcPoly, TPoly, parse_ncpoly

from test_properties import algebras, families, random_tables, root_families


def through_json(document):
    return json.loads(json.dumps(document))


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras, random_tables()))
def test_algebra_json_round_trip(alg):
    again = StructureAlgebra.from_json_dict(through_json(alg.to_json_dict()))
    assert again.labels == alg.labels
    assert again.table == alg.table
    assert again.unit == alg.unit
    assert again.validate().failures() == alg.validate().failures()


@settings(max_examples=40, deadline=None)
@given(st.one_of(families(), root_families()))
def test_family_json_round_trip(fam):
    again = DeformationFamily.from_json_dict(through_json(fam.to_json_dict()))
    assert again.labels == fam.labels
    assert again.table == fam.table
    assert again.unit == fam.unit
    assert again.validate().failures() == fam.validate().failures()


GENERATORS = ("x", "y", "ab", "z1")  # "t" and "i" are reserved for the parameter and imaginary unit
ratios = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gaussians = st.builds(GaussianRational, ratios, st.one_of(st.just(0), ratios))
coefficients = st.lists(gaussians, min_size=1, max_size=3).map(TPoly)
words = st.lists(st.integers(0, len(GENERATORS) - 1), max_size=4).map(tuple)


@st.composite
def ncpolys(draw):
    gens = GENERATORS[:draw(st.integers(1, len(GENERATORS)))]
    terms = draw(st.dictionaries(words.filter(lambda w: all(g < len(gens) for g in w)),
                                 coefficients, max_size=4))
    return NcPoly(gens, terms)


@settings(max_examples=300, deadline=None)
@given(ncpolys())
def test_relation_text_round_trip(poly):
    assert parse_ncpoly(str(poly), poly.gens) == poly
