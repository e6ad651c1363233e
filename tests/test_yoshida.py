"""Tests for admissible-polynomial types, motives and period relations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import yoshida as y
from periodcalc.formal import FormalPeriod, PeriodAtom
from periodcalc.infinity_types import InfinityType
from tests import oracles
from tests.oracles import atom_power


def _reference_type(m):
    """The type of m as the sum of its generators' types, each scaled by
    its exponent: the generator table, kept here as the reference."""
    n = m.n
    table = [((1,) * n, 1, 1, m.m0),
             ((1,) * m.dplus + (0,) * (n - m.dplus), 1, 0, m.mplus),
             ((1,) * m.dminus + (0,) * (n - m.dminus), 0, 1, m.mminus)]
    table += [((2,) * i + (1,) * (n - 2 * i) + (0,) * i, 1, 1, e)
              for i, e in enumerate(m.mi, start=1)]
    return oracles.AdmissibleTypeTag(
        tuple(sum(e * a[j] for a, _, _, e in table) for j in range(n)),
        sum(e * kp for _, kp, _, e in table),
        sum(e * km for _, _, km, e in table))


def test_generator_types():
    mono = y.FundamentalMonomial
    assert (oracles.monomial_type(mono(4, 2, 2, m0=1, mi=(0,)))
            == oracles.AdmissibleTypeTag((1, 1, 1, 1), 1, 1))
    assert (oracles.monomial_type(mono(4, 2, 2, mi=(0,), mplus=1))
            == oracles.AdmissibleTypeTag((1, 1, 0, 0), 1, 0))
    assert (oracles.monomial_type(mono(5, 3, 2, mi=(0,), mminus=1))
            == oracles.AdmissibleTypeTag((1, 1, 0, 0, 0), 0, 1))
    assert (oracles.monomial_type(mono(6, 3, 3, mi=(0, 1)))
            == oracles.AdmissibleTypeTag((2, 2, 1, 1, 0, 0), 1, 1))
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
    assert oracles.monomial_type(m) == _reference_type(m)


def test_f_bw_type_at_rank_4():
    tag = oracles.monomial_type(oracles.f_bw(4, 1))
    assert tag == oracles.AdmissibleTypeTag((3, 2, 1, 0), 2, 1)


def test_f_bw_type_staircase_all_ranks():
    for n in range(1, 11):
        for eps in ((1, -1) if n % 2 == 0 else (None,)):
            tag = oracles.monomial_type(oracles.f_bw(n, eps))
            assert tag.a == tuple(range(n - 1, -1, -1))
            if n % 2 == 0:
                assert sorted((tag.kplus, tag.kminus)) == [n // 2 - 1, n // 2]
                assert (tag.kplus > tag.kminus) == (eps == 1)
            else:
                assert tag.kplus == tag.kminus


def test_f_bw_duality_parity():
    for n in range(2, 11, 2):
        assert oracles.dual_monomial(oracles.f_bw(n, 1)) == oracles.f_bw(n, -1)
        assert oracles.dual_monomial(oracles.f_bw(n, -1)) == oracles.f_bw(n, 1)
    for n in range(1, 11, 2):
        m = oracles.f_bw(n)
        assert oracles.dual_monomial(m) == m


def test_f_bw_rank_1_is_empty():
    m = oracles.f_bw(1)
    assert oracles.monomial_atoms(m, y.MotiveShape("M", 1, 0, (), 1,
                                                   0)).is_trivial


def test_f_bw_eps_validation():
    with pytest.raises(ValueError):
        oracles.f_bw(4)
    with pytest.raises(ValueError):
        oracles.f_bw(3, 1)


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
    Md = oracles.dual_motive(M)
    assert Md.label == "M^v" and Md.weight == 0 and Md.kappa == M.kappa
    Mt = oracles.tate_twist_motive(M, 2)
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
    Md = oracles.dual_motive(M)
    assert type(Md) is y.MotiveShape
    assert Md == y.MotiveShape(y.dual_label(M.label), M.n, -M.weight,
                               M.kappa, M.dplus, M.dminus)


def test_tensor_label_normalizes_duals():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    assert y.tensor_label(M, N) == "M(x)N"
    assert y.tensor_label(oracles.dual_motive(M),
                          oracles.dual_motive(N)) == "M(x)N^v"


def test_a_tensor_with_one_dual_factor_is_not_named_as_a_dual():
    M = y.MotiveShape("M", 3, 0, (7,), 2, 1)
    N = y.MotiveShape("N", 2, 0, (5,), 1, 1)
    Md, Nd = oracles.dual_motive(M), oracles.dual_motive(N)
    labels = {y.tensor_label(a, b) for a in (M, Md) for b in (N, Nd)}
    assert labels == {"M(x)N", "M(x)(N^v)", "M^v(x)N", "M(x)N^v"}
    # so deligne names M (x) N^v and M^v (x) N^v with two atoms
    assert (y.tensor_deligne(M, Nd, 1)[1][1].keys()
            != y.tensor_deligne(Md, Nd, 1)[1][1].keys())


def test_dual_relation_exponent():
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    fp = y.FundamentalMonomial(2, 1, 1, 0, (), 1, 0)
    _, (_, lhs, rhs), _ = oracles.checked(y.dual_relation(fp, N))
    # c^-(N^v) = delta(N)^{-1} c^+(N)
    assert lhs == atom_power(PeriodAtom("DC", ("N^v", -1)))._exp
    assert rhs == FormalPeriod.of((PeriodAtom("Delta", ("N",)), -1),
                                  (PeriodAtom("DC", ("N", 1)), 1))._exp


def test_tate_twist_relation_two_pi_i_power():
    M = y.MotiveShape("M", 2, 1, (8,), 1, 1)
    m = oracles.f_bw(2, 1)
    _, (_, _, rhs), _ = oracles.checked(y.tate_twist_relation(m, M, 3))
    # k+ d+ + k- d- = 1 for f^+ on rank 2; odd twist dualizes the monomial
    assert rhs[y.ATOM_TWO_PI_I] == 3
    assert rhs[PeriodAtom("DC", ("M", -1))] == 1


def test_delta_tensor_exponents():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    _, (_, _, rhs), _ = oracles.checked(y.delta_tensor(M, N))
    assert rhs[PeriodAtom("Delta", ("M",))] == 2
    assert rhs[PeriodAtom("Delta", ("N",))] == 4


def test_tensor_deligne_even_rank():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 3, 0, (7,), 2, 1)
    _, (_, _, rhs), _ = oracles.checked(y.tensor_deligne(M, N, 1))
    # eps' = d_N+ - d_N- = 1, eps = sign * eps' = +1
    assert rhs[PeriodAtom("DC", ("M", 1))] == 1
    assert rhs[PeriodAtom("DCi", ("M", 1))] == 1
    assert rhs[PeriodAtom("Delta", ("N",))] == 1
    assert rhs[PeriodAtom("DC", ("N", 1))] == 1
    assert rhs[PeriodAtom("DC", ("N", -1))] == 1


def test_tensor_deligne_requires_good_position():
    M = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    N = y.MotiveShape("N", 3, 0, (11,), 2, 1)
    with pytest.raises(ValueError):
        y.tensor_deligne(M, N, 1)


def test_rank2_expansion_gap_check():
    M = y.MotiveShape("M", 6, 0, (13, 9, 5), 3, 3)
    N = y.MotiveShape("N", 2, 0, (11,), 1, 1)
    _, (_, _, rhs), _ = oracles.checked(y.rank2_tensor_expansion(M, N, 1, 1))
    assert rhs[PeriodAtom("DCi", ("M", 1))] == 1
    assert rhs[PeriodAtom("Delta", ("N",))] == 1
    assert rhs[PeriodAtom("DC", ("N", 1))] == 2
    with pytest.raises(ValueError):
        y.rank2_tensor_expansion(M, N, 2, 1)  # 11 not in the second gap


def test_the_builders_reject_a_bad_shape_sign_rank_or_index():
    M = y.MotiveShape("M", 6, 0, (13, 9, 5), 3, 3)
    N = y.MotiveShape("N", 2, 0, (11,), 1, 1)
    N3 = y.MotiveShape("N", 3, 0, (7,), 2, 1)
    M4 = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    with pytest.raises(ValueError, match=r"^d\+ \+ d- must equal n with"):
        y.FundamentalMonomial(3, 3, 0)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        y.tensor_deligne(M4, N3, 0)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        y.rank2_tensor_expansion(M, N, 1, 0)
    with pytest.raises(ValueError, match="^auxiliary motive must have rank"):
        y.rank2_tensor_expansion(M, N3, 1, 1)
    for i in (0, 3):
        with pytest.raises(ValueError, match=r"^i must lie in 1\.\.floor"):
            y.rank2_tensor_expansion(M, N, i, 1)


def test_motive_from_json():
    data = {"label": "M", "n": 5, "weight": 2, "kappa": [9, 5], "dplus": 3,
            "dminus": 2}
    assert y.MotiveShape.from_json(data) == y.MotiveShape("M", 5, 2, (9, 5),
                                                           3, 2)


def _checked(step, want):
    """step writes the oracle's step, whose exponent is 1, and its sides are
    reduced, as FormalPeriod's checked constructor leaves them."""
    assert oracles.is_written_step(step), step
    assert step == want


def _same_atoms(m, M):
    """yoshida's exponents of m at M are the oracle's checked product, in
    the same order."""
    assert (list(y._monomial_exp(m, M.label).items())
            == list(oracles.monomial_atoms(m, M)._exp.items()))


@pytest.mark.parametrize("n", range(2, 41))
def test_dict_built_relations_match_the_checked_products(n):
    """The relations check_motivic_dual builds, index by index, and the
    rank-n monomials of f_bw at M, against FormalPeriod.of products."""
    r, mono = n // 2, y.FundamentalMonomial
    kappa = tuple(4 * (r - j) + 5 for j in range(r))
    M = y.MotiveShape("M", n, 0, kappa, r + n % 2, r)
    Md = oracles.dual_motive(M)
    for m in [oracles.f_bw(n, eps) for eps in (1, -1)] if n % 2 == 0 else [
            oracles.f_bw(n)]:
        _same_atoms(m, M)
        _checked(y.dual_relation(m, M), oracles.dual_relation(m, M))
    fixed = [mono(2, 1, 1, 0, (), 1, 0), mono(2, 1, 1, 0, (), 0, 1),
             mono(2, 1, 1, 1, (), 0, 0)]
    for idx in range(1, r):
        N = y.MotiveShape(f"N{idx}", 2, 0, (kappa[idx] + 2,), 1, 1)
        for sign in (1, -1):
            _checked(y.rank2_tensor_expansion(M, N, idx, sign),
                     oracles.rank2_tensor_expansion(M, N, idx, sign))
            Nd = oracles.dual_motive(N)
            _checked(y.rank2_tensor_expansion(Md, Nd, idx, sign),
                     oracles.rank2_tensor_expansion(Md, Nd, idx, sign))
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
    assert y.delta_tensor(M, M)[1][2] == {PeriodAtom("Delta", ("M",)): 8}


def test_monomial_exponents_are_ints_in_every_relation():
    N = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    with pytest.raises(TypeError, match="^expected an integer, got 1.0$"):
        y.FundamentalMonomial(2, 1, 1, 1.0, (), 0, True)
    m = y.FundamentalMonomial(2, 1, 1, 1, (), 0, 1)
    _checked(y.dual_relation(m, N), oracles.dual_relation(m, N))
    _same_atoms(m, N)


def test_every_builder_writes_a_reduced_step():
    # each builder returns (name, (citation, lhs, rhs), 1), its sides
    # reduced: a Tate twist by 0 drops (2 pi i)^0, a monomial's zero
    # exponents are dropped, delta(M (x) M) sums delta(M) into one atom and
    # an odd-rank expansion sums its extra c^{sign*eps}(N) into c^{+-}(N)
    M4 = y.MotiveShape("M", 4, 0, (9, 5), 2, 2)
    M5 = y.MotiveShape("M", 5, 0, (9, 5), 3, 2)
    N2 = y.MotiveShape("N", 2, 0, (7,), 1, 1)
    N3 = y.MotiveShape("N", 3, 0, (7,), 2, 1)
    N4 = y.MotiveShape("N", 4, 0, (7, 3), 2, 2)
    built = [y.tensor_deligne(M, N, sign)
             for M, N in ((M4, N3), (M5, N4)) for sign in (1, -1)]
    built += [y.rank2_tensor_expansion(M, N2, 1, sign)
              for M in (M4, M5) for sign in (1, -1)]
    built += [y.delta_tensor(M, N) for M in (M4, M5) for N in (M4, N2)]
    monos = [oracles.f_bw(4, 1), y.FundamentalMonomial(4, 2, 2, 0, (0,), 0, 0),
             y.FundamentalMonomial(4, 2, 2, 2, (-1,), 1, -3)]
    built += [y.dual_relation(m, M4) for m in monos]
    built += [y.tate_twist_relation(m, M4, t) for m in monos
              for t in range(-3, 4)]
    for step in built:
        assert oracles.is_written_step(step) and step[2] == 1, step
    assert y.tate_twist_relation(monos[1], M4, 0)[1][1:] == ({}, {})
    assert y.rank2_tensor_expansion(M5, N2, 1, 1)[1][2][
        PeriodAtom("DC", ("N", 1))] == 2


def _same_relation(build, oracle, *args):
    """build(*args) is oracle(*args): name, citation and each side's
    exponents in the same order, or the same ValueError text."""
    try:
        want = oracle(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build(*args)
        assert str(got.value) == str(exc)
        return
    got = build(*args)
    assert got == want  # the oracle writes exponent 1
    for side, want_side in zip(got[1][1:], want[1][1:]):
        assert list(side.items()) == list(want_side.items())


def _splits(n: int) -> list:
    """Every (d+, d-) that a rank-n motive allows."""
    return [(n // 2, n // 2)] if n % 2 == 0 else [((n + 1) // 2, n // 2),
                                                  (n // 2, (n + 1) // 2)]


def _interlaced(n: int, wm: int, wn: int, top: int) -> tuple:
    """kappa of ranks n and n - 1 at weights wm and wn, interlaced."""
    km = tuple(top + (wm + 1 - top) % 2 - 4 * j for j in range(n // 2))
    kn = tuple(k - 1 - (k - wn) % 2 for k in km[:(n - 1) // 2])
    return km, kn


def test_tensor_deligne_matches_the_calculus_of_the_oracle():
    cases = 0
    for n in range(2, 17):
        for wm, wn in ((0, 0), (2, 1), (-2, 3), (1, 0), (3, -4)):
            if n % 2 and wm % 2 or (n - 1) % 2 and wn % 2:
                continue
            km, kn = _interlaced(n, wm, wn, 4 * (n // 2) + 7)
            for (mp, mm), (np_, nm) in ((a, b) for a in _splits(n)
                                        for b in _splits(n - 1)):
                for lm, ln in (("M", "N"), ("A", "A"), ("M^v", "N^v"),
                               ("M", "N^v")):
                    M = y.MotiveShape(lm, n, wm, km, mp, mm)
                    N = y.MotiveShape(ln, n - 1, wn, kn, np_, nm)
                    for sign in (1, -1):
                        _same_relation(y.tensor_deligne,
                                       oracles.tensor_deligne, M, N, sign)
                        cases += 1
                        if lm == ln:  # one label cannot name both motives
                            with pytest.raises(ValueError, match=(
                                    "^M and N share the label 'A'$")):
                                y.tensor_deligne(M, N, sign)
                M = y.MotiveShape("M", n, wm, km, mp, mm)
                N = y.MotiveShape("N", n - 1, wn, kn, np_, nm)
                for args in ((M, N, 0), (N, M, 1), (M, M, -1)):
                    _same_relation(y.tensor_deligne, oracles.tensor_deligne,
                                   *args)
                if kn:  # N's kappa above M's: not in good position
                    Nup = y.MotiveShape("N", n - 1, wn,
                                        tuple(k + 4 for k in kn), np_, nm)
                    _same_relation(y.tensor_deligne, oracles.tensor_deligne,
                                   M, Nup, 1)
    assert cases > 300


def test_rank2_expansion_refuses_a_shared_label():
    # as tensor_deligne does, at even and odd rank: N has rank 2 and M does
    # not, so one label would name two motives; the sign, rank, i and
    # Hodge-gap checks come first, each with its own line
    for M in (y.MotiveShape("A", 6, 0, (13, 9, 5), 3, 3),
              y.MotiveShape("A", 5, 0, (13, 9), 3, 2)):
        N = y.MotiveShape("A", 2, 0, (11,), 1, 1)
        for sign in (1, -1):
            _same_relation(y.rank2_tensor_expansion,
                           oracles.rank2_tensor_expansion, M, N, 1, sign)
            with pytest.raises(ValueError,
                               match="^M and N share the label 'A'$"):
                y.rank2_tensor_expansion(M, N, 1, sign)
        N3 = y.MotiveShape("A", 3, 0, (7,), 2, 1)
        for args, message in (
                ((M, N, 1, 0), r"^sign must be \+1 or -1$"),
                ((M, N3, 1, 1), "^auxiliary motive must have rank 2$"),
                ((M, N, M.n // 2, 1), r"^i must lie in 1\.\.floor"),
                ((M, y.MotiveShape("A", 2, 0, (15,), 1, 1), 1, 1),
                 "^N is not in the i-th Hodge gap of M$")):
            with pytest.raises(ValueError, match=message):
                y.rank2_tensor_expansion(*args)


def test_tate_twist_relation_matches_the_calculus_of_the_oracle():
    rng = random.Random(35)
    for n in range(1, 17):
        r = n // 2
        for dplus, dminus in _splits(n):
            M = y.MotiveShape("M", n, 0, tuple(4 * (r - j) + 5
                                               for j in range(r)),
                              dplus, dminus)
            monos = [oracles.f_bw(n, eps, dplus, dminus)
                     for eps in ((1, -1) if n % 2 == 0 else (None,))]
            for _ in range(8):
                e = [rng.randint(-3, 3) for _ in range(max(r - 1, 0) + 3)]
                monos.append(y.FundamentalMonomial(n, dplus, dminus, e[0],
                                                   tuple(e[3:]), e[1], e[2]))
            for m in monos:
                for t in range(-3, 4):
                    _same_relation(y.tate_twist_relation,
                                   oracles.tate_twist_relation, m, M, t)


@pytest.mark.parametrize("t", [0.5, True, Fraction(2)])
def test_a_tate_twist_by_a_non_int_is_a_type_error(t):
    M = y.MotiveShape("M", 2, 1, (8,), 1, 1)
    with pytest.raises(TypeError, match="^expected an integer, got "):
        y.tate_twist_relation(oracles.f_bw(2, 1), M, t)
