"""The cyclic walk of `enumerate_valid_glues` against the general-form search."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from k3lat.intlat import IntegralLattice  # noqa: E402
from k3lat.nikulin import enumerate_valid_glues  # noqa: E402

import oracles  # noqa: E402


@st.composite
def positive_even_sources(draw):
    """((2a, b), (b, 2c)) with 4ac - b^2 > 0."""
    a = draw(st.integers(1, 12))
    c = draw(st.integers(1, 12))
    bound = 2 * (a * c) ** 0.5
    b = draw(st.integers(-int(bound), int(bound)).filter(lambda b: 4 * a * c - b * b > 0))
    return IntegralLattice(((2 * a, b), (b, 2 * c)))


@hypothesis.settings(max_examples=200)
@hypothesis.given(positive_even_sources(), st.integers(1, 30))
def test_cyclic_walk_matches_generic_oracle(source, n):
    expected = [g.to_json_dict() for g in oracles.enumerate_valid_glues_generic(source, n)]
    assert [g.to_json_dict() for g in enumerate_valid_glues(source, n)] == expected
