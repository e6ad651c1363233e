"""Tests for infinity types, pure weights and their bijection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import infinity_types as it
from periodcalc import weil_real as wr


def random_infinity_type(draw, n):
    r = n // 2
    if n % 2 == 0:
        w = draw(st.integers(-6, 6))
        par = w % 2
    else:
        w = 2 * draw(st.integers(-3, 3))
        par = 1
    gaps = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    kappa, cur = [], 2 + par
    for g in reversed(gaps):
        kappa.append(cur)
        cur += 2 * g
    kappa.reverse()
    return it.InfinityType(n, tuple(kappa), w)


@st.composite
def infinity_types(draw, min_n=1, max_n=7):
    return random_infinity_type(draw, draw(st.integers(min_n, max_n)))


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        it.InfinityType(4, (5,), 1)           # wrong length
    with pytest.raises(ValueError):
        it.InfinityType(4, (3, 5), 1)         # not decreasing
    with pytest.raises(ValueError):
        it.InfinityType(2, (1,), 1)           # kappa < 2
    with pytest.raises(ValueError):
        it.InfinityType(2, (4,), 1)           # parity mismatch (even n)
    with pytest.raises(ValueError):
        it.InfinityType(3, (4,), 0)           # even kappa (odd n)
    with pytest.raises(ValueError):
        it.InfinityType(3, (5,), 1)           # odd w (odd n)


def test_weight_to_infinity_gl2():
    t = it.weight_to_infinity(it.DominantWeight((11, 0)))
    assert (t.n, t.kappa, t.w) == (2, (13,), -11)


def test_weight_to_infinity_rejects_impure():
    with pytest.raises(ValueError):
        it.weight_to_infinity(it.DominantWeight((2, 1, 1)))


def test_weight_to_infinity_tied_entries_stay_regular():
    # kappa_i - kappa_{i+1} = 2(mu_i - mu_{i+1}) + 2, so even tied weight
    # entries give strictly decreasing kappa
    t = it.weight_to_infinity(it.DominantWeight((1, 1, -1, -1)))
    assert (t.kappa, t.w) == ((6, 4), 0)


@settings(max_examples=200, deadline=None)
@given(infinity_types())
def test_bijection_round_trip(t):
    back = it.weight_to_infinity(it.infinity_to_weight(t))
    assert (back.n, back.kappa, back.w) == (t.n, t.kappa, t.w)


@settings(max_examples=100, deadline=None)
@given(infinity_types())
def test_weights_are_pure_and_dominant(t):
    mu = it.infinity_to_weight(t)
    assert it.is_pure(mu)
    assert all(mu.entries[i] >= mu.entries[i + 1]
               for i in range(len(mu.entries) - 1))


@settings(max_examples=100, deadline=None)
@given(infinity_types())
def test_json_round_trip(t):
    assert it.InfinityType.from_json(t.to_json()) == t


def test_signature_defined_for_odd_rank_only():
    with pytest.raises(ValueError):
        it.signature(it.InfinityType(2, (4,), 0))
    t = it.InfinityType(3, (5,), 0)
    assert it.signature(t) == -1          # r=1, w=0
    assert it.signature(it.InfinityType(3, (5,), 0, 1)) == 1


def test_balanced_interlacing():
    pi = it.InfinityType(4, (9, 5), 1)
    assert it.is_balanced(pi, it.InfinityType(3, (7,), 0))
    assert not it.is_balanced(pi, it.InfinityType(3, (11,), 0))
    with pytest.raises(ValueError):
        it.is_balanced(pi, it.InfinityType(4, (9, 5), 1))


def test_to_arch_rep_shapes():
    t = it.InfinityType(5, (9, 5), 2, 1)
    a = it.to_arch_rep(t)
    assert a.dim == 5
    assert wr.hom_dim(a, wr.char(1, 1)) == 1  # sgn^1 |.|^{w/2}


@settings(max_examples=100, deadline=None)
@given(infinity_types())
def test_twist_shifts_w(t):
    s = it.twist(t, 1, 2)
    assert s.w == t.w + 4 and s.kappa == t.kappa
    if t.n % 2:
        assert s.sign_choice != t.sign_choice
    assert it.twist(s, 1, -2).w == t.w


def test_regularity_and_required_gap():
    def regular(n, kappa, w):
        return it.is_regular(it.InfinityType(n, kappa, w))
    # kappa_r >= 3 at even rank
    assert regular(2, (3,), 1) and not regular(2, (2,), 0)
    # kappa_r >= 5 at odd rank
    assert regular(3, (5,), 0) and not regular(3, (3,), 0)
    # gap 4 for odd w, and at odd rank
    assert regular(4, (7, 3), 1) and not regular(4, (5, 3), 1)
    assert regular(5, (9, 5), 0) and not regular(5, (7, 5), 0)
    # gap 6 when n and w are both even
    assert regular(4, (10, 4), 0) and not regular(4, (8, 4), 0)
    # rank 1 has no kappa and is regular
    assert regular(1, (), 0)
