"""Property tests: invariants that must hold on every input of a family."""

from hypothesis import assume, given, settings, strategies as st

from algdeform.analysis import block_profile, radical
from algdeform.constructions import (
    change_basis,
    direct_sum,
    dual_numbers,
    from_block_sizes,
    upper_triangular_algebra,
)
from algdeform.linalg import Matrix

CORPUS = (
    from_block_sizes((2,)),
    from_block_sizes((2, 1)),
    from_block_sizes((1, 1, 1)),
    upper_triangular_algebra(2),
    direct_sum(dual_numbers(), from_block_sizes((1,))),
)


@st.composite
def rebased(draw):
    """A corpus algebra and the same algebra on a random integer basis."""
    alg = draw(st.sampled_from(CORPUS))
    n = alg.dim
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    p = Matrix([entries[r * n:(r + 1) * n] for r in range(n)])
    assume(p.rank == n)
    return alg, change_basis(alg, p)


@settings(max_examples=30, deadline=None)
@given(rebased())
def test_radical_and_profile_do_not_depend_on_the_basis(pair):
    alg, moved = pair
    profile, report = block_profile(alg)
    rad = radical(moved)
    assert rad.dim == radical(alg).dim
    profile2, report2 = block_profile(moved, rad)
    assert profile2 == profile
    assert report2.dims == report.dims
