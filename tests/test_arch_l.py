"""Tests for Gamma products, epsilon classes and critical points."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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


def _tensor_critical_set(pi, sigma, param=None) -> arch_l.CriticalSet:
    """The second reference for critical_set: one pass over the Gamma
    factors of the tensor parameter (param, by default the pair's own).

    Write m0 = k + offset.  A factor with shift b of L(s) has a pole at m0
    when c + k <= 0 for the integer c = offset + b (and c + k is even, for
    Gamma_R); its shift b' in the dual L(1-s) gives one when c' - k <= 0
    for the integer c' = 1 - offset + b' (and c' - k is even, for Gamma_R).
    A factor whose c or c' is not an integer lies off the lattice and has no
    pole on it.  The window starts from the Gamma_C pole ladders with a
    slack of 2, as the scan's does."""
    if param is None:
        param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    factors = [arch_l._gamma(c) for c in param]
    c_shifts = [(b, b_dual) for kind, b, b_dual in factors if kind == "C"]
    if not c_shifts:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    n_sum = pi.n + sigma.n
    offset = Fraction(n_sum, 2)
    lo = [math.ceil(-min(b for b, _ in c_shifts) - 2 - offset)] * 2
    hi = [math.floor(1 + min(b for _, b in c_shifts) + 2 - offset)] * 2
    for kind, b, b_dual in factors:
        c = b + offset
        if c.denominator == 1:
            for p in (0, 1) if kind == "C" else (c.numerator % 2,):
                lo[p] = max(lo[p], 1 - c.numerator)
        c = 1 - offset + b_dual
        if c.denominator == 1:
            for p in (0, 1) if kind == "C" else (c.numerator % 2,):
                hi[p] = min(hi[p], c.numerator - 1)
    return arch_l.CriticalSet(offset, tuple(lo), tuple(hi))


def _raghuram_interval(pi, sigma) -> list:
    """Raghuram's critical interval for an even-rank pi: the points of
    Z + n'/2 in [(2 - w - u - d)/2, (d - w - u)/2], where d is the least
    |k - l| over the kappa of pi and the kappa of sigma (with l = 1 added
    for an odd-rank sigma)."""
    if pi.n % 2:
        raise ValueError("Raghuram's interval needs an even-rank pi")
    d = min([abs(k - l) for k in pi.kappa for l in sigma.kappa]
            + [k - 1 for k in pi.kappa if sigma.n % 2])
    lo = Fraction(2 - pi.w - sigma.w - d, 2)
    hi = Fraction(d - pi.w - sigma.w, 2)
    offset = Fraction(sigma.n, 2)
    return [k + offset for k in range(math.ceil(lo - offset),
                                      math.floor(hi - offset) + 1)]


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
        assert _raghuram_interval(pi, sigma) == arch_l.critical_points(pi,
                                                                      sigma)


def test_closed_form_requires_even_rank():
    """At an odd rank of pi the critical points lie on Z + (n + n')/2, the
    other coset from the Z + n'/2 of Raghuram's interval, so the interval
    is refused there."""
    pi, sigma = InfinityType(3, (5,), 0), InfinityType(2, (3,), 1)
    with pytest.raises(ValueError):
        _raghuram_interval(pi, sigma)
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
    assert ((center in arch_l.critical_set(pi, sigma))
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
    assert _raghuram_interval(pi, sigma) == arch_l.critical_points(pi, sigma)


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
    lattice of the pair (or onto its other coset); no valid pair of types
    does that, so those draws test the tensor pass alone."""
    if pi.n == 1 and sigma.n == 1:
        return
    pi, sigma = _signed(pi, s1), _signed(sigma, s2)
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    if off is None:
        cs = arch_l.critical_set(pi, sigma)
    else:
        param = wr.rep(*param, wr.char(1, off), wr.disc(3, off - 4))
        cs = _tensor_critical_set(pi, sigma, param)
    scan = set(_scan_critical_points(pi, sigma, param))
    # both cosets of Z/2 (one on the lattice, one off it), thirds off the
    # lattice, and points far outside the window
    points = ([Fraction(h, 2) for h in range(-120, 121)]
              + [Fraction(h, 3) for h in range(-30, 31)]
              + [Fraction(h, 2) for h in (-2 * 10**6 - 1, 2 * 10**6 + 1)]
              + [Fraction(10**6), Fraction(-10**6)])
    for m0 in points:
        assert (m0 in cs) == (m0 in scan), m0
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
    """critical_set and pair_epsilon_class, read from the types, against
    the tensor pass, the scan and epsilon_class of the tensor parameter."""
    if pi.n == 1 and sigma.n == 1:
        with pytest.raises(ValueError):
            arch_l.critical_set(pi, sigma)
        return
    param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    cs = arch_l.critical_set(pi, sigma)
    assert cs == _tensor_critical_set(pi, sigma, param)
    assert cs.points() == _scan_critical_points(pi, sigma, param)
    assert arch_l.pair_epsilon_class(pi, sigma) == arch_l.epsilon_class(param)
