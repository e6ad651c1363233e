"""Unit and property tests for the real Weil group calculus.

The independent oracle is restriction to C^x: it is an exact tensor functor,
so tensor/Sym^2/Wedge^2 computed structurally must agree with the same
operations performed on the restriction multisets.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import weil_real as wr


twists = st.fractions(min_value=-4, max_value=4,
                      max_denominator=2)
chars = st.builds(wr.char, st.integers(0, 1), twists)
discs = st.builds(wr.disc, st.integers(2, 7), twists)
constituents = st.one_of(chars, discs)
reps = st.lists(constituents, min_size=0, max_size=4).map(
    lambda cs: wr.rep(*cs))
nonempty_reps = st.lists(constituents, min_size=1, max_size=4).map(
    lambda cs: wr.rep(*cs))


def pair_sum(x, y):
    return (x[0] + y[0], x[1] + y[1])


def restricted_tensor(a, b):
    ra, rb = wr.restrict_to_C(a), wr.restrict_to_C(b)
    return tuple(sorted(pair_sum(x, y) for x in ra for y in rb))


def restricted_sym2(a):
    ra = wr.restrict_to_C(a)
    return tuple(sorted(pair_sum(ra[i], ra[j])
                        for i in range(len(ra)) for j in range(i, len(ra))))


def restricted_wedge2(a):
    ra = wr.restrict_to_C(a)
    return tuple(sorted(pair_sum(ra[i], ra[j])
                        for i in range(len(ra)) for j in range(i + 1, len(ra))))


# ---------------------------------------------------------------------------
# fixed examples

def test_char_tensor_adds_parity_and_twist():
    a = wr.rep(wr.char(1, 1))
    b = wr.rep(wr.char(1, Fraction(1, 2)))
    assert wr.tensor(a, b) == wr.rep(wr.char(0, Fraction(3, 2)))


def test_disc_absorbs_sign_character():
    a = wr.rep(wr.disc(5, 0))
    b = wr.rep(wr.char(1, 2))
    assert wr.tensor(a, b) == wr.rep(wr.disc(5, 2))


def test_disc_tensor_disc_clebsch_gordan():
    a = wr.rep(wr.disc(4, 0))
    b = wr.rep(wr.disc(3, 1))
    assert wr.tensor(a, b) == wr.rep(wr.disc(6, 1), wr.disc(2, 1))


def test_phi1_reduces_to_characters():
    # equal kappas produce phi_1, which is 1 + sgn
    a = wr.rep(wr.disc(3, 0))
    out = wr.tensor(a, a)
    assert out == wr.rep(wr.disc(5, 0), wr.char(0, 0), wr.char(1, 0))


def test_sym2_wedge2_of_disc():
    a = wr.rep(wr.disc(4, Fraction(1, 2)))
    assert wr.sym2(a) == wr.rep(wr.disc(7, 1), wr.char(1, 1))
    assert wr.wedge2(a) == wr.rep(wr.char(0, 1))


def test_wedge2_of_character_is_zero():
    assert wr.wedge2(wr.rep(wr.char(1, 3))).dim == 0


def test_kappa_one_not_constructible():
    with pytest.raises(ValueError):
        wr.disc(1, 0)


def test_determinant():
    a = wr.rep(wr.disc(4, 1), wr.char(1, 2))
    d = wr.determinant(a)
    assert d == wr.char((4 + 1) % 2, 4)


def test_hom_dim_counts_multiplicity():
    a = wr.rep(wr.char(0, 1), wr.char(0, 1), wr.char(1, 1))
    assert wr.hom_dim(a, wr.char(0, 1)) == 2
    assert wr.hom_dim(a, wr.char(1, 0)) == 0


def test_restriction_of_disc():
    a = wr.rep(wr.disc(5, 1))
    assert wr.restrict_to_C(a) == ((-1, 3), (3, -1))


# ---------------------------------------------------------------------------
# properties against the restriction oracle

@settings(max_examples=150, deadline=None)
@given(reps, reps)
def test_tensor_matches_restriction_oracle(a, b):
    assert wr.restrict_to_C(wr.tensor(a, b)) == restricted_tensor(a, b)


@settings(max_examples=150, deadline=None)
@given(reps)
def test_sym2_matches_restriction_oracle(a):
    assert wr.restrict_to_C(wr.sym2(a)) == restricted_sym2(a)


@settings(max_examples=150, deadline=None)
@given(reps)
def test_wedge2_matches_restriction_oracle(a):
    assert wr.restrict_to_C(wr.wedge2(a)) == restricted_wedge2(a)


@settings(max_examples=100, deadline=None)
@given(reps, reps)
def test_tensor_commutative_and_dim_multiplicative(a, b):
    assert wr.tensor(a, b) == wr.tensor(b, a)
    assert wr.tensor(a, b).dim == a.dim * b.dim


@settings(max_examples=100, deadline=None)
@given(reps)
def test_sym2_plus_wedge2_is_square(a):
    square = wr.tensor(a, a)
    combined = wr.ArchRep(wr.sym2(a).constituents + wr.wedge2(a).constituents)
    assert combined == square


@settings(max_examples=100, deadline=None)
@given(reps)
def test_dual_is_involutive(a):
    assert wr.dual(wr.dual(a)) == a


@settings(max_examples=100, deadline=None)
@given(st.lists(constituents, min_size=0, max_size=4))
def test_canonical_form_is_order_independent(cs):
    assert wr.rep(*cs) == wr.rep(*reversed(cs))
