"""Tests for Gamma products, epsilon classes and critical points."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import arch_l, weil_real as wr
from periodcalc.infinity_types import InfinityType, to_arch_rep
from tests.test_infinity_types import infinity_types


def test_l_factor_shifts():
    a = wr.rep(wr.disc(12, 0), wr.char(1, 2))
    g = arch_l.l_factor(a)
    assert g.factors == (("C", Fraction(11, 2)), ("R", Fraction(3)))


def test_holomorphy_pole_ladders():
    g = arch_l.GammaProduct((("C", 0),))
    assert arch_l.is_holomorphic_at(g, 1)
    assert not arch_l.is_holomorphic_at(g, 0)
    assert not arch_l.is_holomorphic_at(g, -3)
    assert arch_l.is_holomorphic_at(g, Fraction(1, 2))
    gr = arch_l.GammaProduct((("R", 0),))
    assert not arch_l.is_holomorphic_at(gr, -2)
    assert arch_l.is_holomorphic_at(gr, -1)


def test_gl2_eleven_critical_points():
    pi = InfinityType(2, (12,), 0)
    sigma = InfinityType(1, (), 0)
    pts = arch_l.critical_points(pi, sigma)
    assert pts == [Fraction(2 * k - 9, 2) for k in range(11)]
    assert len(pts) == 11


def test_rank_one_pair_rejected():
    with pytest.raises(ValueError):
        arch_l.critical_points(InfinityType(1, (), 0), InfinityType(1, (), 0))


def test_closed_form_matches_brute_force_examples():
    pairs = [
        (InfinityType(2, (12,), 0), InfinityType(1, (), 0)),
        (InfinityType(4, (9, 5), 1), InfinityType(3, (7,), 0)),
        (InfinityType(4, (10, 4), 0), InfinityType(2, (7,), 1)),
        (InfinityType(6, (13, 9, 5), 1), InfinityType(1, (), 2)),
    ]
    for pi, sigma in pairs:
        assert (arch_l.critical_range_closed_form(pi, sigma)
                == arch_l.critical_points(pi, sigma))


def test_closed_form_requires_even_rank():
    with pytest.raises(ValueError):
        arch_l.critical_range_closed_form(InfinityType(3, (5,), 0),
                                          InfinityType(2, (3,), 1))


def test_central_point_criticality():
    pi = InfinityType(4, (9, 5), 1)
    sigma = InfinityType(3, (7,), 0)
    center = arch_l.central_point(pi, sigma)
    assert center == Fraction(1 - 1 - 0, 2)
    assert (arch_l.central_point_is_critical(pi, sigma)
            == (center in arch_l.critical_points(pi, sigma)))


def test_epsilon_class_from_parameter():
    a = wr.rep(wr.disc(5, 0), wr.char(1, 2))
    assert arch_l.epsilon_class(a) == 0  # 5 + 1 mod 2
    assert arch_l.epsilon_class(wr.rep(wr.char(1, 0))) == 1


@settings(max_examples=150, deadline=None)
@given(infinity_types(min_n=2, max_n=4), infinity_types(max_n=3))
def test_critical_set_is_symmetric_under_s_to_1_minus_s(pi, sigma):
    if pi.n == 1 and sigma.n == 1:
        return
    pts = arch_l.critical_points(pi, sigma)
    dual_pts = arch_l.critical_points(
        InfinityType(pi.n, pi.kappa, -pi.w, pi.sign_choice),
        InfinityType(sigma.n, sigma.kappa, -sigma.w, sigma.sign_choice))
    assert sorted(1 - m for m in pts) == dual_pts


@settings(max_examples=150, deadline=None)
@given(infinity_types(min_n=2, max_n=6).filter(lambda t: t.n % 2 == 0),
       infinity_types(max_n=5))
def test_closed_form_equals_brute_force_random(pi, sigma):
    assert (arch_l.critical_range_closed_form(pi, sigma)
            == arch_l.critical_points(pi, sigma))


@settings(max_examples=100, deadline=None)
@given(infinity_types(min_n=2, max_n=5), infinity_types(max_n=4))
def test_criticality_definition_holds_pointwise(pi, sigma):
    if pi.n == 1 and sigma.n == 1:
        return
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    g = arch_l.l_factor(param)
    g_dual = arch_l.l_factor(wr.dual(param))
    for m0 in arch_l.critical_points(pi, sigma):
        assert arch_l.is_holomorphic_at(g, m0)
        assert arch_l.is_holomorphic_at(g_dual, 1 - m0)
