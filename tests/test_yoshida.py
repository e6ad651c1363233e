"""Tests for admissible-polynomial types, motives and period relations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import yoshida as y
from periodcalc.formal import FormalPeriod, atom_dc, atom_dci, atom_delta
from periodcalc.infinity_types import InfinityType
from tests import oracles


def _reference_type(m):
    """The type of m as the sum of its generators' types, each scaled by
    its exponent: the generator table, kept here as the reference."""
    n = m.n
    table = [((1,) * n, 1, 1, m.m0),
             ((1,) * m.dplus + (0,) * (n - m.dplus), 1, 0, m.mplus),
             ((1,) * m.dminus + (0,) * (n - m.dminus), 0, 1, m.mminus)]
    table += [((2,) * i + (1,) * (n - 2 * i) + (0,) * i, 1, 1, e)
              for i, e in enumerate(m.mi, start=1)]
    return y.AdmissibleTypeTag(
        tuple(sum(e * a[j] for a, _, _, e in table) for j in range(n)),
        sum(e * kp for _, kp, _, e in table),
        sum(e * km for _, _, km, e in table))


def test_generator_types():
    mono = y.FundamentalMonomial
    assert (y.monomial_type(mono(4, 2, 2, m0=1, mi=(0,)))
            == y.AdmissibleTypeTag((1, 1, 1, 1), 1, 1))
    assert (y.monomial_type(mono(4, 2, 2, mi=(0,), mplus=1))
            == y.AdmissibleTypeTag((1, 1, 0, 0), 1, 0))
    assert (y.monomial_type(mono(5, 3, 2, mi=(0,), mminus=1))
            == y.AdmissibleTypeTag((1, 1, 0, 0, 0), 0, 1))
    assert (y.monomial_type(mono(6, 3, 3, mi=(0, 1)))
            == y.AdmissibleTypeTag((2, 2, 1, 1, 0, 0), 1, 1))
    with pytest.raises(ValueError):
        mono(4, 2, 2, mi=(0, 1))  # rank 4 has f_1 only


@st.composite
def monomials(draw):
    n = draw(st.integers(1, 12))
    dplus = n // 2 + n % 2 * draw(st.integers(0, 1))
    exps = st.integers(-3, 3)
    r = max(n // 2 - 1, 0)
    mi = draw(st.lists(exps, min_size=r, max_size=r))
    return y.FundamentalMonomial(n, dplus, n - dplus, draw(exps), tuple(mi),
                                 draw(exps), draw(exps))


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_monomial_type_is_the_sum_of_generator_types(m):
    assert y.monomial_type(m) == _reference_type(m)


def test_f_bw_type_at_rank_4():
    tag = y.monomial_type(y.f_bw(4, 1))
    assert tag == y.AdmissibleTypeTag((3, 2, 1, 0), 2, 1)


def test_f_bw_type_staircase_all_ranks():
    for n in range(1, 11):
        for eps in ((1, -1) if n % 2 == 0 else (None,)):
            tag = y.monomial_type(y.f_bw(n, eps))
            assert tag.a == tuple(range(n - 1, -1, -1))
            if n % 2 == 0:
                assert sorted((tag.kplus, tag.kminus)) == [n // 2 - 1, n // 2]
                assert (tag.kplus > tag.kminus) == (eps == 1)
            else:
                assert tag.kplus == tag.kminus


def test_f_bw_duality_parity():
    for n in range(2, 11, 2):
        assert y.dual_monomial(y.f_bw(n, 1)) == y.f_bw(n, -1)
        assert y.dual_monomial(y.f_bw(n, -1)) == y.f_bw(n, 1)
    for n in range(1, 11, 2):
        m = y.f_bw(n)
        assert y.dual_monomial(m) == m


def test_f_bw_rank_1_is_empty():
    m = y.f_bw(1)
    assert y.monomial_atoms(m, y.MotiveShape("M", 1, 0, (), 1, 0)).is_trivial


def test_f_bw_eps_validation():
    with pytest.raises(ValueError):
        y.f_bw(4)
    with pytest.raises(ValueError):
        y.f_bw(3, 1)


def test_motive_shape_validation():
    with pytest.raises(ValueError):
        y.MotiveShape("M", 4, 0, (8, 4), 2, 2)   # kappa parity vs weight
    with pytest.raises(ValueError):
        y.MotiveShape("M", 4, 0, (9, 5), 3, 1)   # d+ != d- for even rank
    with pytest.raises(ValueError):
        y.MotiveShape("M", 2, 0, (1,), 1, 1)     # kappa < 2
    with pytest.raises(ValueError):
        y.MotiveShape("M", 2, 0, (-3,), 1, 1)    # negative kappa
    with pytest.raises(ValueError):
        y.MotiveShape("M", 3, 1, (2,), 2, 1)     # odd weight at odd rank
    with pytest.raises(ValueError):
        y.MotiveShape("M", 0, 0, (), 0, 0)       # rank below 1


def test_hodge_types_are_pure():
    M = y.MotiveShape("M", 5, 2, (9, 5), 3, 2)
    hs = oracles.hodge_types(M)
    assert len(hs) == 5
    assert all(p + q == M.weight for p, q in hs)
    assert (1, 1) in hs  # middle type for odd rank


def test_motive_from_infinity():
    t = InfinityType(2, (12,), 0)
    M = oracles.motive_from_infinity(t, "M")
    assert (M.weight, M.kappa, M.dplus, M.dminus) == (-1, (12,), 1, 1)
    assert oracles.hodge_types(M) == ((-6, 5), (5, -6))
    t3 = InfinityType(3, (5,), 0)         # signature -1
    M3 = oracles.motive_from_infinity(t3, "M3")
    assert (M3.dplus, M3.dminus) == (1, 2)


def test_dual_and_tate_twist_motives():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    Md = y.dual_motive(M)
    assert Md.label == "M^v" and Md.weight == 0 and Md.kappa == M.kappa
    Mt = y.tate_twist_motive(M, 2)
    assert Mt.weight == -4 and Mt.label == "M(2)"


@st.composite
def motive_shapes(draw):
    n = draw(st.integers(1, 12))
    weight = draw(st.integers(-6, 6)) * (1 + n % 2)
    ks = draw(st.lists(st.integers(1, 30), min_size=n // 2,
                       max_size=n // 2, unique=True))
    kappa = sorted((2 * k + (weight + 1) % 2 for k in ks), reverse=True)
    dplus = (n + draw(st.sampled_from([1, -1])) * (n % 2)) // 2
    return y.MotiveShape(draw(st.text(min_size=1, max_size=4)), n, weight,
                         tuple(kappa), dplus, n - dplus)


@given(motive_shapes())
def test_dual_motive_equals_the_checked_shape(M):
    Md = y.dual_motive(M)
    assert type(Md) is y.MotiveShape
    assert Md == y.MotiveShape(y.dual_label(M.label), M.n, -M.weight,
                               M.kappa, M.dplus, M.dminus)


def test_tensor_label_normalizes_duals():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    assert y.tensor_label(M, N) == "M(x)N"
    assert y.tensor_label(y.dual_motive(M), y.dual_motive(N)) == "M(x)N^v"


def test_a_tensor_with_one_dual_factor_is_not_named_as_a_dual():
    M = y.MotiveShape("M", 3, 0, (7,), 2, 1)
    N = y.MotiveShape("N", 2, 0, (5,), 1, 1)
    Md, Nd = y.dual_motive(M), y.dual_motive(N)
    labels = {y.tensor_label(a, b) for a in (M, Md) for b in (N, Nd)}
    assert labels == {"M(x)N", "M(x)(N^v)", "M^v(x)N", "M(x)N^v"}
    # so deligne names M (x) N^v and M^v (x) N^v with two atoms
    assert (y.tensor_deligne(M, Nd, 1).lhs.atoms()
            != y.tensor_deligne(Md, Nd, 1).lhs.atoms())


def test_dual_relation_exponent():
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    fp = y.FundamentalMonomial(2, 1, 1, 0, (), 1, 0)
    rel = y.dual_relation(fp, N)
    # c^-(N^v) = delta(N)^{-1} c^+(N)
    assert rel.lhs == FormalPeriod.atom(atom_dc("N^v", -1))
    assert rel.rhs == FormalPeriod.of((atom_delta("N"), -1),
                                      (atom_dc("N", 1), 1))


def test_tate_twist_relation_two_pi_i_power():
    M = y.MotiveShape("M", 2, 1, (8,), 1, 1)
    m = y.f_bw(2, 1)
    rel = y.tate_twist_relation(m, M, 3)
    # k+ d+ + k- d- = 1 for f^+ on rank 2; odd twist dualizes the monomial
    assert rel.rhs.exponent(y.ATOM_TWO_PI_I) == 3
    assert rel.rhs.exponent(atom_dc("M", -1)) == 1


def test_delta_tensor_exponents():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    rel = y.delta_tensor(M, N)
    assert rel.rhs.exponent(atom_delta("M")) == 2
    assert rel.rhs.exponent(atom_delta("N")) == 4


def test_tensor_deligne_even_rank():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 3, 0, (7,), 2, 1)
    rel = y.tensor_deligne(M, N, 1)
    # eps' = d_N+ - d_N- = 1, eps = sign * eps' = +1
    assert rel.rhs.exponent(atom_dc("M", 1)) == 1
    assert rel.rhs.exponent(atom_dci("M", 1)) == 1
    assert rel.rhs.exponent(atom_delta("N")) == 1
    assert rel.rhs.exponent(atom_dc("N", 1)) == 1
    assert rel.rhs.exponent(atom_dc("N", -1)) == 1


def test_tensor_deligne_requires_good_position():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 3, 0, (11,), 2, 1)
    with pytest.raises(ValueError):
        y.tensor_deligne(M, N, 1)


def test_rank2_expansion_gap_check():
    M = y.MotiveShape("M", 6, 0, (13, 9, 5), 3, 3)
    N = y.MotiveShape("N", 2, 0, (11,), 1, 1)
    rel = y.rank2_tensor_expansion(M, N, 1, 1)
    assert rel.rhs.exponent(atom_dci("M", 1)) == 1
    assert rel.rhs.exponent(atom_delta("N")) == 1
    assert rel.rhs.exponent(atom_dc("N", 1)) == 2
    with pytest.raises(ValueError):
        y.rank2_tensor_expansion(M, N, 2, 1)  # 11 not in the second gap


def test_motive_json_round_trip():
    M = y.MotiveShape("M", 5, 2, (9, 5), 3, 2)
    assert y.MotiveShape.from_json(M.to_json()) == M


def _checked(rel, want):
    """rel equals the oracle's relation, and its periods hold only nonzero
    int exponents, as FormalPeriod's checked constructor leaves them."""
    assert rel == want
    for p in (rel.lhs, rel.rhs):
        assert all(type(e) is int and e for e in p._exp.values())


@pytest.mark.parametrize("n", range(2, 41))
def test_dict_built_relations_match_the_checked_products(n):
    """The relations check_motivic_dual builds, index by index, and the
    rank-n monomials of f_bw at M, against FormalPeriod.of products."""
    r, mono = n // 2, y.FundamentalMonomial
    kappa = tuple(4 * (r - j) + 5 for j in range(r))
    M = y.MotiveShape("M", n, 0, kappa, r + n % 2, r)
    Md = y.dual_motive(M)
    for m in [y.f_bw(n, eps) for eps in (1, -1)] if n % 2 == 0 else [
            y.f_bw(n)]:
        assert y.monomial_atoms(m, M) == oracles.monomial_atoms(m, M)
        _checked(y.dual_relation(m, M), oracles.dual_relation(m, M))
    fixed = [mono(2, 1, 1, 0, (), 1, 0), mono(2, 1, 1, 0, (), 0, 1),
             mono(2, 1, 1, 1, (), 0, 0)]
    for idx in range(1, r):
        N = y.MotiveShape(f"N{idx}", 2, 0, (kappa[idx] + 2,), 1, 1)
        for sign in (1, -1):
            _checked(y.rank2_tensor_expansion(M, N, idx, sign),
                     oracles.rank2_tensor_expansion(M, N, idx, sign))
            _checked(y.rank2_tensor_expansion(Md, y.dual_motive(N), idx, sign),
                     oracles.rank2_tensor_expansion(Md, y.dual_motive(N), idx,
                                                    sign))
        _checked(y.delta_tensor(M, N), oracles.delta_tensor(M, N))
        for m in fixed:
            _checked(y.dual_relation(m, N), oracles.dual_relation(m, N))


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_dual_relation_reads_its_type_from_the_monomial(m):
    r = m.n // 2
    M = y.MotiveShape("M", m.n, 0, tuple(4 * (r - j) + 5 for j in range(r)),
                      m.dplus, m.dminus)
    _checked(y.dual_relation(m, M), oracles.dual_relation(m, M))


def test_delta_tensor_of_a_motive_with_itself():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    _checked(y.delta_tensor(M, M), oracles.delta_tensor(M, M))
    assert y.delta_tensor(M, M).rhs.exponent(atom_delta("M")) == 8


def test_monomial_exponents_are_ints_in_every_relation():
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    m = y.FundamentalMonomial(2, 1, 1, 1.0, (), 0, True)
    assert all(type(e) is int for e in (m.m0, m.mplus, m.mminus))
    _checked(y.dual_relation(m, N), oracles.dual_relation(m, N))
    assert y.monomial_atoms(m, N) == oracles.monomial_atoms(m, N)
