"""Tests for admissible-polynomial types, motives and period relations."""

import pytest

from periodcalc import yoshida as y
from periodcalc.formal import FormalPeriod, atom_dc, atom_dci, atom_delta
from periodcalc.infinity_types import InfinityType


def test_generator_types():
    assert y.generator_type("det", 4) == y.AdmissibleTypeTag((1, 1, 1, 1), 1, 1)
    assert (y.generator_type("f_plus", 4, dplus=2)
            == y.AdmissibleTypeTag((1, 1, 0, 0), 1, 0))
    assert (y.generator_type("f_minus", 5, dminus=2)
            == y.AdmissibleTypeTag((1, 1, 0, 0, 0), 0, 1))
    assert (y.generator_type("f_i", 6, i=2)
            == y.AdmissibleTypeTag((2, 2, 1, 1, 0, 0), 1, 1))
    with pytest.raises(ValueError):
        y.generator_type("f_i", 4, i=2)


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
    hs = M.hodge_types()
    assert len(hs) == 5
    assert all(p + q == M.weight for p, q in hs)
    assert (1, 1) in hs  # middle type for odd rank


def test_motive_from_infinity():
    t = InfinityType(2, (12,), 0)
    M = y.motive_from_infinity(t, "M")
    assert (M.weight, M.kappa, M.dplus, M.dminus) == (-1, (12,), 1, 1)
    assert M.hodge_types() == ((-6, 5), (5, -6))
    t3 = InfinityType(3, (5,), 0)         # signature -1
    M3 = y.motive_from_infinity(t3, "M3")
    assert (M3.dplus, M3.dminus) == (1, 2)


def test_dual_and_tate_twist_motives():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    Md = y.dual_motive(M)
    assert Md.label == "M^v" and Md.weight == 0 and Md.kappa == M.kappa
    Mt = y.tate_twist_motive(M, 2)
    assert Mt.weight == -4 and Mt.label == "M(2)"


def test_tensor_label_normalizes_duals():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    assert y.tensor_label(M, N) == "M(x)N"
    assert y.tensor_label(y.dual_motive(M), y.dual_motive(N)) == "M(x)N^v"


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
