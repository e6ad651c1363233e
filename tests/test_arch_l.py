"""Tests for Gamma products, epsilon classes and critical points."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodcalc import arch_l, weil_real as wr
from periodcalc.infinity_types import InfinityType, to_arch_rep
from tests.oracles import (critical_contains, epsilon_class,
                           pair_epsilon_class, raghuram_interval, rep,
                           scan_critical_points, tensor_critical_set)
from tests.test_infinity_types import infinity_types


def _signed(t, sign):
    """t with the given sign_choice when its rank is odd."""
    return InfinityType(t.n, t.kappa, t.w, sign * (t.n % 2))


def test_l_factor_shifts():
    a = rep(wr.disc(12, 0), wr.char(1, 2))
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


decreasing = st.lists(st.integers(-5, 40), unique=True).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@settings(max_examples=500, deadline=None)
@given(decreasing, decreasing)
@example((), ())
@example((9, 5), ())
@example((), (7,))
@example((9, 5, 2), (9, 5, 2))
@example((12, 7, 3), (11, 7, 4, 3))
def test_least_gap_matches_brute_force(kappa, ell):
    # the merge against every pair (k, l), shared values included
    gaps = [abs(k - l) for k in kappa for l in ell if k != l]
    shared = any(k == l for k in kappa for l in ell)
    assert arch_l._least_gap(kappa, ell) == (min(gaps, default=None), shared)


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
        assert raghuram_interval(pi, sigma) == arch_l.critical_points(pi,
                                                                     sigma)


def test_closed_form_requires_even_rank():
    """At an odd rank of pi the critical points lie on Z + (n + n')/2, the
    other coset from the Z + n'/2 of Raghuram's interval, so the interval
    is refused there."""
    pi, sigma = InfinityType(3, (5,), 0), InfinityType(2, (3,), 1)
    with pytest.raises(ValueError):
        raghuram_interval(pi, sigma)
    pts = arch_l.critical_points(pi, sigma)
    assert pts == [Fraction(-1, 2), Fraction(1, 2)]
    assert all((m - Fraction(sigma.n, 2)).denominator == 2 for m in pts)


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
    assert ((center in arch_l.critical_set(pi, sigma).points())
            == (center in scan_critical_points(pi, sigma)))


def test_epsilon_class_from_parameter():
    a = rep(wr.disc(5, 0), wr.char(1, 2))
    assert epsilon_class(a) == 0  # 5 + 1 mod 2
    assert epsilon_class(rep(wr.char(1, 0))) == 1


@settings(max_examples=150, deadline=None)
@given(infinity_types(min_n=2, max_n=4), infinity_types(max_n=3))
def test_critical_set_is_symmetric_under_s_to_1_minus_s(pi, sigma):
    """The duals' set is the image of the pair's under s -> 1 - s, and the
    pair's set is symmetric about its central point, on the closed form and
    on the scan alike."""
    if pi.n == 1 and sigma.n == 1:
        return
    pi_d, sigma_d = (InfinityType(t.n, t.kappa, -t.w, t.sign_choice)
                     for t in (pi, sigma))
    for points in (arch_l.critical_points, scan_critical_points):
        pts = points(pi, sigma)
        assert sorted(1 - m for m in pts) == points(pi_d, sigma_d)
        assert sorted(1 - pi.w - sigma.w - m for m in pts) == pts


@settings(max_examples=150, deadline=None)
@given(infinity_types(min_n=2, max_n=6).filter(lambda t: t.n % 2 == 0),
       infinity_types(max_n=5))
def test_closed_form_equals_brute_force_random(pi, sigma):
    assert raghuram_interval(pi, sigma) == arch_l.critical_points(pi, sigma)


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
    assert arch_l.critical_points(pi, sigma) == scan_critical_points(pi,
                                                                     sigma)


# the infinity types drawn here have kappa <= 27 and |w| <= 6, so every
# scan window lies well inside [-60, 60]
@settings(max_examples=150, deadline=None)
@given(infinity_types(max_n=6), infinity_types(max_n=5),
       st.integers(0, 1), st.integers(0, 1),
       st.sampled_from([None, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 2)]))
def test_membership_equals_the_scan(pi, sigma, s1, s2, off):
    """off, if given, twists two extra constituents of the parameter off the
    lattice of the pair (or onto its other coset); no valid pair of types
    does that, so those draws test the tensor pass alone."""
    if pi.n == 1 and sigma.n == 1:
        return
    pi, sigma = _signed(pi, s1), _signed(sigma, s2)
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    if off is None:
        cs = arch_l.critical_set(pi, sigma)
    else:
        param = rep(*param, wr.char(1, off), wr.disc(3, off - 4))
        cs = tensor_critical_set(pi, sigma, param)
    scan = set(scan_critical_points(pi, sigma, param))
    # both cosets of Z/2 (one on the lattice, one off it), thirds off the
    # lattice, and points far outside the window
    points = ([Fraction(h, 2) for h in range(-120, 121)]
              + [Fraction(h, 3) for h in range(-30, 31)]
              + [Fraction(h, 2) for h in (-2 * 10**6 - 1, 2 * 10**6 + 1)]
              + [Fraction(10**6), Fraction(-10**6)])
    for m0 in points:
        assert critical_contains(cs, m0) == (m0 in scan), m0
    assert cs.points() == sorted(scan)


@st.composite
def _signed_types(draw, max_n=9):
    """A type of rank up to max_n with any sign choice, its kappa drawn from
    nine values so that two types often share entries."""
    n = draw(st.integers(1, max_n))
    if n % 2:
        w, par = 2 * draw(st.integers(-3, 3)), 1
    else:
        w = draw(st.integers(-5, 5))
        par = w % 2
    halves = draw(st.sets(st.integers(1, 9), min_size=n // 2,
                          max_size=n // 2))
    kappa = tuple(sorted((2 * h + par for h in halves), reverse=True))
    return InfinityType(n, kappa, w, draw(st.integers(0, 1)) * (n % 2))


@settings(max_examples=400, deadline=None)
@given(_signed_types(), _signed_types())
# shared kappa entries (1 + sgn from phi_k (x) phi_k), at equal and at
# non-adjacent ranks
@example(InfinityType(4, (9, 5), 1), InfinityType(2, (5,), 1))
@example(InfinityType(6, (11, 7, 3), 1), InfinityType(3, (7,), 0, 1))
# both ranks odd, all four sign choices
@example(InfinityType(3, (5,), 0, 0), InfinityType(5, (9, 5), 2, 0))
@example(InfinityType(3, (5,), 0, 0), InfinityType(5, (9, 5), 2, 1))
@example(InfinityType(3, (5,), 0, 1), InfinityType(5, (9, 5), 2, 0))
@example(InfinityType(3, (5,), 0, 1), InfinityType(5, (9, 5), 2, 1))
# rank-1 partners, on either side
@example(InfinityType(1, (), 0, 1), InfinityType(8, (17, 11, 7, 3), 1))
@example(InfinityType(7, (13, 9, 3), -2, 1), InfinityType(1, (), 4, 0))
def test_closed_form_agrees_with_both_oracles(pi, sigma):
    """critical_set and the oracles' pair_epsilon_class, read from the
    types, against the tensor pass, the scan and epsilon_class of the
    tensor parameter."""
    if pi.n == 1 and sigma.n == 1:
        with pytest.raises(ValueError):
            arch_l.critical_set(pi, sigma)
        return
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    cs = arch_l.critical_set(pi, sigma)
    assert cs == tensor_critical_set(pi, sigma, param)
    assert cs.points() == scan_critical_points(pi, sigma, param)
    assert pair_epsilon_class(pi, sigma) == epsilon_class(param)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([Fraction(h, 2) for h in range(-9, 10)])
       | st.fractions(-20, 20, max_denominator=6),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.integers(-40, 40))
# index k at the bounds and past; k = 0 below the bounds
@example(Fraction(4, 3), (-5, -5), (5, 5), -5)
@example(Fraction(4, 3), (-5, -5), (5, 5), 5)
@example(Fraction(5, 2), (-5, -5), (5, 5), 6)
@example(Fraction(5, 2), (1, 1), (3, 3), 0)
def test_index_membership_equals_the_fraction_subtraction(offset, lo, hi, k):
    cs = arch_l.CriticalSet(offset, lo, hi)
    assert cs.has_index(k) == critical_contains(cs, k + cs.offset)
    assert (k + cs.offset in cs.points()) == cs.has_index(k)
