"""Tests for infinity types, pure weights and their bijection."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodcalc import infinity_types as it
from periodcalc import weil_real as wr
from tests import oracles
from tests.oracles import dim, hom_dim, twist


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


@pytest.mark.parametrize("n, kappa, message", [
    (2, (), "kappa must have 1 entry for rank 2"),
    (3, (5, 3), "kappa must have 1 entry for rank 3"),
    (4, (6,), "kappa must have 2 entries for rank 4"),
    (1, (4,), "kappa must have 0 entries for rank 1")])
def test_checked_kappa_names_the_entry_count(n, kappa, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        it.checked_kappa(n, kappa)


def test_weight_to_infinity_gl2():
    t = it.weight_to_infinity(it.DominantWeight((11, 0)))
    assert (t.n, t.kappa, t.w) == (2, (13,), -11)


def test_a_weight_of_no_entries_is_rejected():
    with pytest.raises(ValueError, match="^rank must be positive$"):
        it.DominantWeight(())


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
        oracles.signature(it.InfinityType(2, (4,), 0))
    t = it.InfinityType(3, (5,), 0)
    assert oracles.signature(t) == -1          # r=1, w=0
    assert oracles.signature(it.InfinityType(3, (5,), 0, 1)) == 1


def test_even_rank_drops_the_sign_bit():
    # phi_k (x) sgn = phi_k: both sign choices give one parameter
    a, b = it.InfinityType(2, (4,), 0, 1), it.InfinityType(2, (4,), 0, 0)
    assert it.to_arch_rep(a) == it.to_arch_rep(b)
    assert a == b and hash(a) == hash(b) and a.sign_choice == 0
    assert a.to_json()["sign"] == 0
    # at odd rank the bit is part of the type
    assert it.InfinityType(3, (5,), 0, 1) != it.InfinityType(3, (5,), 0, 0)


def test_balanced_interlacing():
    pi = it.InfinityType(4, (9, 5), 1)
    assert oracles.is_balanced(pi, it.InfinityType(3, (7,), 0))
    assert not oracles.is_balanced(pi, it.InfinityType(3, (11,), 0))
    with pytest.raises(ValueError):
        oracles.is_balanced(pi, it.InfinityType(4, (9, 5), 1))


def test_to_arch_rep_shapes():
    t = it.InfinityType(5, (9, 5), 2, 1)
    a = it.to_arch_rep(t)
    assert dim(a) == 5
    assert hom_dim(a, wr.char(1, 1)) == 1  # sgn^1 |.|^{w/2}


@settings(max_examples=400, deadline=None)
@given(infinity_types(max_n=12), st.integers(0, 1), st.integers(0, 1),
       st.integers(-1, 1))
@example(it.InfinityType(12, (23, 19, 15, 11, 7, 3), 1), 1, 1, 0)
@example(it.InfinityType(11, (21, 17, 13, 9, 5), -2), 1, 0, 0)
def test_self_dual_homs_match_sym2_and_wedge2(t, sign, delta, du):
    """The closed form against the multiplicity of chi = sgn^delta |.|^u in
    Sym^2 and Wedge^2 of the parameter, for u = w - 1, w, w + 1."""
    t = it.InfinityType(t.n, t.kappa, t.w, sign)
    u = Fraction(t.w + du)
    param, chi = it.to_arch_rep(t), wr.char(delta, u)
    assert it.self_dual_homs(t, delta, u) == (hom_dim(wr.sym2(param), chi),
                                              hom_dim(wr.wedge2(param), chi))


def test_self_dual_homs_reject_a_delta_that_is_not_a_parity():
    with pytest.raises(ValueError):
        it.self_dual_homs(it.InfinityType(2, (4,), 0), 2, 0)


@settings(max_examples=100, deadline=None)
@given(infinity_types())
def test_twist_shifts_w(t):
    s = twist(t, 1, 2)
    assert s.w == t.w + 4 and s.kappa == t.kappa
    if t.n % 2:
        assert s.sign_choice != t.sign_choice
    assert twist(s, 1, -2).w == t.w


def test_regularity_and_required_gap():
    def regular(n, kappa, w):
        return oracles.is_regular(it.InfinityType(n, kappa, w))
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


@pytest.mark.parametrize("x", [
    0, -7, 2 ** 70, True, False, Fraction(3, 2), Fraction(4), "5", "-3/4",
    "2/4", "007/010", "1/0", "1.5", "1e9", " 1", "+1", "", "1/-2", 1.0, 0.5,
    None])
def test_as_fraction_agrees_with_the_reference(x):
    # the same value, or the same error type and text, as the always-Fraction
    # reference; an int (not a bool) comes back as itself
    def outcome(coerce):
        try:
            return coerce(x)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    got, want = outcome(it.as_fraction), outcome(oracles.as_fraction)
    assert got == want
    if not isinstance(want, tuple):
        assert got is x if type(x) is int else type(got) is Fraction
