"""Tests for Gamma products, epsilon classes and critical points."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import arch_l, weil_real as wr
from periodcalc.infinity_types import InfinityType, to_arch_rep
from tests.test_infinity_types import infinity_types


def _scan_critical_points(pi, sigma, param=None) -> list:
    """The reference for critical_set: test every lattice point between the
    Gamma_C pole ladders (with a slack of 2 on each side) for a pole of L(s)
    or of the dual L(1-s).  param defaults to the pair's tensor parameter."""
    if param is None:
        param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    g, g_dual = arch_l.l_factor(param), arch_l.l_factor(wr.dual(param))
    c_shifts = [s for k, s in g if k == "C"]
    c_shifts_dual = [s for k, s in g_dual if k == "C"]
    if not c_shifts or not c_shifts_dual:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    lo = -min(c_shifts) - 2
    hi = 1 + min(c_shifts_dual) + 2
    offset = Fraction(pi.n + sigma.n, 2)
    out = []
    k = math.ceil(lo - offset)
    while k + offset <= hi:
        m0 = k + offset
        if (arch_l.is_holomorphic_at(g, m0)
                and arch_l.is_holomorphic_at(g_dual, 1 - m0)):
            out.append(m0)
        k += 1
    return out


def _signed(t, sign):
    """t with the given sign_choice when its rank is odd."""
    return InfinityType(t.n, t.kappa, t.w, sign * (t.n % 2))


def test_l_factor_shifts():
    a = wr.rep(wr.disc(12, 0), wr.char(1, 2))
    g = arch_l.l_factor(a)
    assert g == (("C", Fraction(11, 2)), ("R", Fraction(3)))


def test_holomorphy_pole_ladders():
    g = (("C", Fraction(0)),)
    assert arch_l.is_holomorphic_at(g, 1)
    assert not arch_l.is_holomorphic_at(g, 0)
    assert not arch_l.is_holomorphic_at(g, -3)
    assert arch_l.is_holomorphic_at(g, Fraction(1, 2))
    gr = (("R", Fraction(0)),)
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


def test_central_point():
    pi = InfinityType(4, (9, 5), 1)
    sigma = InfinityType(3, (7,), 0)
    assert arch_l.central_point(pi, sigma) == Fraction(1 - 1 - 0, 2)


@settings(max_examples=200, deadline=None)
@given(infinity_types(max_n=6), infinity_types(max_n=5),
       st.integers(0, 1), st.integers(0, 1))
def test_central_point_criticality(pi, sigma, s1, s2):
    """pi of either parity; the scan decides whether the center is critical."""
    if pi.n == 1 and sigma.n == 1:
        return
    pi, sigma = _signed(pi, s1), _signed(sigma, s2)
    center = arch_l.central_point(pi, sigma)
    assert (arch_l.central_point_is_critical(pi, sigma)
            == (center in _scan_critical_points(pi, sigma)))


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


@settings(max_examples=200, deadline=None)
@given(infinity_types(max_n=6), infinity_types(max_n=5),
       st.integers(0, 1), st.integers(0, 1))
def test_critical_points_equal_the_scan(pi, sigma, s1, s2):
    if pi.n == 1 and sigma.n == 1:
        return
    pi, sigma = _signed(pi, s1), _signed(sigma, s2)
    assert arch_l.critical_points(pi, sigma) == _scan_critical_points(pi,
                                                                      sigma)


# the infinity types drawn here have kappa <= 27 and |w| <= 6, so every
# scan window lies well inside [-60, 60]
@settings(max_examples=150, deadline=None)
@given(infinity_types(max_n=6), infinity_types(max_n=5),
       st.integers(0, 1), st.integers(0, 1),
       st.sampled_from([None, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 2)]))
def test_membership_equals_the_scan(pi, sigma, s1, s2, off):
    """off, if given, twists two extra constituents of the parameter off the
    lattice of the pair (or onto its other coset)."""
    if pi.n == 1 and sigma.n == 1:
        return
    pi, sigma = _signed(pi, s1), _signed(sigma, s2)
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    if off is not None:
        param = wr.rep(*param, wr.char(1, off), wr.disc(3, off - 4))
    scan = set(_scan_critical_points(pi, sigma, param))
    cs = arch_l.critical_set(pi, sigma, param)
    # both cosets of Z/2 (one on the lattice, one off it), thirds off the
    # lattice, and points far outside the window
    points = ([Fraction(h, 2) for h in range(-120, 121)]
              + [Fraction(h, 3) for h in range(-30, 31)]
              + [Fraction(h, 2) for h in (-2 * 10**6 - 1, 2 * 10**6 + 1)]
              + [Fraction(10**6), Fraction(-10**6)])
    for m0 in points:
        assert (m0 in cs) == (m0 in scan), m0
    assert cs.points() == sorted(scan)
