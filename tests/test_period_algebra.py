"""Tests for the formal period group, relation constructors and replays."""

import gc
import json
import os
import re
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from itertools import chain, product
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodcalc import arch_l, formal, infinity_types, weil_real
from periodcalc import period_algebra as pa
from periodcalc.formal import (ATOM_I, ATOM_TWO_PI_I, FormalPeriod,
                               PeriodAtom, atom_from_json, gauss_fp,
                               period_from_json, period_to_json,
                               relation_from_json, relation_to_json)
from periodcalc.infinity_types import InfinityType, as_fraction, json_int
from tests import dbcheck, oracles, smoke
from tests.golden import make_cli_corpus
from tests.golden.malformed import MALFORMED_DB
from tests.oracles import atom_power, atom_to_json, written_step

atoms = st.one_of(
    st.builds(PeriodAtom, st.just("BW"),
              st.tuples(st.sampled_from(["Pi", "Sigma"]),
                        st.sampled_from([1, -1]))),
    st.builds(PeriodAtom, st.just("Gauss"),
              st.tuples(st.sampled_from(["chi", "omega"]))),
    st.just(ATOM_I),
)
periods = st.lists(st.tuples(atoms, st.integers(-3, 3)),
                   min_size=0, max_size=5).map(lambda ps: FormalPeriod.of(*ps))


# ---------------------------------------------------------------------------
# group laws

def test_i_squared_is_trivial():
    assert (atom_power(ATOM_I) * atom_power(ATOM_I)).is_trivial


@settings(max_examples=100, deadline=None)
@given(periods)
def test_inverse_cancels(p):
    assert (p * p ** -1).is_trivial


@settings(max_examples=100, deadline=None)
@given(periods, periods, periods)
def test_mul_associative_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(atoms, st.integers(-3, 3)), max_size=6))
def test_order_independence(ps):
    assert FormalPeriod.of(*ps) == FormalPeriod.of(*reversed(ps))


@settings(max_examples=100, deadline=None)
@given(periods)
def test_serialization_round_trip(p):
    atoms = {}
    text = period_to_json(p, atoms)
    assert list(atoms) == list(p._exp)
    assert period_from_json(json.loads(text), list(atoms)) == p


def test_offending_atom_names_a_residual_atom():
    p = FormalPeriod.of((PeriodAtom("Gauss", ("chi",)), 2),
                        (PeriodAtom("BW", ("Pi", 1)), -1))
    assert p.offending_atom() in ("Gauss(chi)", "BW(Pi,+)")
    assert FormalPeriod().offending_atom() is None


# ---------------------------------------------------------------------------
# the fast paths of *, **, replay and period_from_json against the checked
# public constructor

# every kind of atom, over few labels and points so that atoms repeat; the
# str order of the payloads differs from their numeric order (10 < 9, 1/2 < 1)
points = st.fractions(min_value=-12, max_value=12, max_denominator=3)
labels = st.sampled_from(["M", "N^v", "Pi"])
pairs_ = st.sampled_from(["PixSigma", "Pi^vxSigma^v"])
all_atoms = st.one_of(
    atoms,
    st.builds(PeriodAtom, st.just("ArchZ"), st.tuples(points, pairs_)),
    st.builds(PeriodAtom, st.just("LVal"), st.tuples(points, pairs_)),
    st.builds(PeriodAtom, st.just("Delta"), st.tuples(labels)),
    st.builds(PeriodAtom, st.just("DC"),
              st.tuples(labels, st.sampled_from([1, -1]))),
    st.builds(PeriodAtom, st.just("DCi"),
              st.tuples(labels, st.integers(0, 12))),
    st.just(ATOM_TWO_PI_I),
)
atom_pairs = st.lists(st.tuples(all_atoms, st.integers(-3, 3)), max_size=8)
all_periods = atom_pairs.map(FormalPeriod)
steps = st.lists(st.builds(written_step, st.just("r"), st.just("c"),
                           all_periods, all_periods, st.integers(-3, 3)),
                 max_size=5)


def _mul_oracle(a, b):
    return FormalPeriod(chain(a.items(), b.items()))


def _pow_oracle(p, k):
    return FormalPeriod((a, k * e) for a, e in p.items())


def _replay_oracle(steps):
    return FormalPeriod((atom, sign * e * k)
                        for _, (_, lhs, rhs), e in steps
                        for sign, side in ((1, lhs), (-1, rhs))
                        for atom, k in side.items())


def _from_json_oracle(data):
    return FormalPeriod((atom_from_json(a), json_int(e)) for a, e in data)


def _same(fast, oracle, *operands):
    """fast equals oracle, holds only int exponents and I mod 2, and shares
    its exponent dict with no operand."""
    assert fast == oracle
    assert all(type(e) is int and e for e in fast._exp.values())
    assert fast._exp.get(ATOM_I, 0) in (0, 1)
    assert all(fast._exp is not p._exp for p in operands)


@settings(max_examples=200, deadline=None)
@given(all_periods, all_periods, st.integers(-3, 3))
def test_mul_and_pow_match_the_checked_constructor(a, b, k):
    _same(a * b, _mul_oracle(a, b), a, b)
    _same(a ** k, _pow_oracle(a, k), a)
    _same(FormalPeriod() * a, a, a)


@settings(max_examples=200, deadline=None)
@given(steps)
def test_replay_matches_the_checked_constructor(steps):
    _same(formal.replay(steps), _replay_oracle(steps),
          *(FormalPeriod._of_exp(side) for _, body, _ in steps
            for side in body[1:]))


@settings(max_examples=200, deadline=None)
@given(atom_pairs)
def test_period_from_json_adds_repeated_atoms(pairs):
    data = [[atom_to_json(a), e] for a, e in pairs]
    _same(period_from_json(data), _from_json_oracle(data))
    assert period_from_json(data) == FormalPeriod(pairs)


@settings(max_examples=100, deadline=None)
@given(all_atoms, st.integers(-3, 3))
def test_atom_matches_the_checked_constructor(atom, e):
    _same(atom_power(atom, e), FormalPeriod([(atom, e)]))


@pytest.mark.parametrize("e", [0.5, 1.9, 2.7, True, Fraction(2), "1", None])
def test_an_exponent_that_is_not_an_int_is_rejected(e):
    step = written_step("r", "c", atom_power(ATOM_TWO_PI_I), FormalPeriod(),
                        e)
    for make in (lambda: FormalPeriod([(ATOM_TWO_PI_I, e)]),
                 lambda: atom_power(ATOM_TWO_PI_I, e),
                 lambda: atom_power(ATOM_TWO_PI_I) ** e,
                 lambda: formal.replay([step])):
        with pytest.raises(TypeError, match="expected an integer, got "):
            make()


@pytest.mark.parametrize("bad", ["I", ("I", ()), ("BW", ("Pi", 1)), 1, None])
def test_public_construction_rejects_a_non_atom(bad):
    message = f"not an atom: {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        FormalPeriod([(bad, 1)])
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        FormalPeriod.of((ATOM_I, 1), (bad, 1))
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        atom_power(bad)


@settings(max_examples=200, deadline=None)
@given(all_periods)
def test_sort_order_is_that_of_atom_lt(p):
    # the relation DB writes items() in this order, so its text depends on it
    assert p.items() == sorted(p._exp.items())
    assert p.atoms() == sorted(p._exp)
    expected = min(p._exp).render() if p._exp else None
    assert p.offending_atom() == expected
    assert all(isinstance(a, PeriodAtom) for a in p.atoms())


# ---------------------------------------------------------------------------
# relation constructors

PI4 = oracles.GlobalRep("Pi", InfinityType(4, (21, 11), 1),
                        gauss_fp({"omega_Pi": 1}))
SIG3 = oracles.GlobalRep("Sigma", InfinityType(3, (15,), 0),
                         gauss_fp({"omega_Sigma": 1}))


def test_raghuram_signs_flip_between_adjacent_m():
    e0 = oracles.raghuram_signs(0, PI4, SIG3)
    e1 = oracles.raghuram_signs(1, PI4, SIG3)
    assert e0[1] == e1[1]                    # fixed sign (n even)
    assert e0[0] == -e1[0]                   # free sign flips


def _outcome_of(f, *args):
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", [-3, -1, 0, 1, 2, 2 ** 70, True, False])
def test_an_int_point_gives_what_its_fraction_gives(m):
    # the int fast paths against the checked Fraction path; a bool takes
    # the checked path, so it acts as the int it equals
    for kind in ("ArchZ", "LVal"):
        atom = PeriodAtom(kind, (m, "P"))
        assert atom == PeriodAtom(kind, (Fraction(m), "P"))
        assert atom.payload[0] == str(Fraction(m))
    assert (_outcome_of(oracles.raghuram_signs, m, PI4, SIG3)
            == _outcome_of(oracles.raghuram_signs, Fraction(m), PI4, SIG3))


@pytest.mark.parametrize("m", ["1/2", Fraction(3, 2), "x", 1.0, None])
def test_a_point_that_is_not_an_int_keeps_its_error(m):
    checked = _outcome_of(as_fraction, m)
    if isinstance(checked, Fraction):
        checked = (ValueError, "m must be an integer for adjacent ranks")
    assert _outcome_of(oracles.raghuram_signs, m, PI4, SIG3) == checked
    assert _outcome_of(pa.check_main1_step, 4, 0, 0, m) == checked


def test_rel_duality_ratio_i_parity_matches_epsilon_class():
    # the i-power of the step's duality-ratio relation, both parities
    for n, w, delta in [(2, 0, 0), (2, 1, 2), (3, 0, 1), (4, 1, 0),
                        (5, 2, -1), (6, -1, 2), (7, 0, 3)]:
        res = pa.check_main1_step(n, w, delta, 1)
        rhs, = (rhs for name, (_, _, rhs), _ in res.steps
                if name.startswith("duality-ratio"))
        expected = ((w + delta) * n * (n - 1) // 2) % 2
        assert rhs.get(ATOM_I, 0) == expected, (n, w, delta)


def test_rel_rs_twist_rejects_odd_rank():
    pi3 = oracles.GlobalRep("P", InfinityType(3, (15,), 0),
                            gauss_fp({"omega": 1}))
    with pytest.raises(ValueError):
        oracles.rel_rs_twist(pi3, gauss_fp({"chi": 1}), 0, 0, 1,
                             twisted_label="P(x)chi")


def test_rel_rs_twist_trivial_character_is_identity():
    step = oracles.rel_rs_twist(PI4, gauss_fp({}), 0, 0, 1,
                                twisted_label="Pi")
    assert formal.replay([step]).is_trivial


def test_rel_rs_twist_sign_flip():
    _, (_, _, rhs), _ = oracles.rel_rs_twist(PI4, gauss_fp({"chi": -1}), 1,
                                             0, 1, twisted_label="Pi^v")
    assert rhs[PeriodAtom("BW", ("Pi", -1))] == 1
    # (n/2)(n-1) = 6
    assert rhs[PeriodAtom("Gauss", ("chi",))] == -2 * 3


def test_rel_main1_rank_one_trivial_gauss():
    pi1 = oracles.GlobalRep("P", InfinityType(1, (), 0),
                            gauss_fp({"omega": 1}))
    step = oracles.rel_main1(pi1, 1)
    assert PeriodAtom("Gauss", ("omega",)) not in step[1][2]
    assert step == _main1_of(pi1, 1)


def _register(db, steps):
    """Hold each written step's body in db, as a builtin's register does."""
    formal.derived(steps).register(db)


def _times_i(step):
    """step with its lhs multiplied by I: another body under its name."""
    name, (citation, lhs, rhs), e = step
    lhs = FormalPeriod(lhs.items()) * atom_power(ATOM_I)
    return name, (citation, lhs._exp, rhs), e


def _main1_of(rep, eps):
    """The main1 writer's step for rep, whose Gauss class is one atom to the
    first power."""
    ((gauss, k),) = rep.omega._exp.items()
    assert k == 1
    return pa._main1(PeriodAtom("BW", (rep.label, eps)),
                     PeriodAtom("BW", (formal.dual_label(rep.label), eps)),
                     gauss, rep.inf.n - 1, 1)


@pytest.mark.parametrize("inf", [
    InfinityType(4, (6, 4), 0), InfinityType(2, (2,), 0),
    InfinityType(3, (3,), 0), InfinityType(5, (7, 5), 0),
    InfinityType(4, (5, 3), 1)])
def test_rel_main1_trusts_its_caller_on_irregular_types(inf):
    # the main1 writer reads no type, so it cannot test regularity: for a
    # type that the oracle calls irregular it writes the oracle's relation
    # and gives no warning, while the guarded oracle warns
    pi = oracles.GlobalRep("P", inf, gauss_fp({"omega": 1}))
    assert not oracles.is_regular(inf)
    new, warned = _built(_main1_of, pi, 1)
    want, want_warned = _built(oracles.rel_main1, pi, 1)
    assert new == want and _sides([new]) == _sides([want])
    assert warned == []
    assert want_warned == ["regularity hypotheses unmet for P"]


def test_quadratic_relation():
    g = gauss_fp({"omega": -1, "chi": 1})
    step = oracles.rel_quadratic(g)
    name, (_, lhs, _), _ = step
    assert lhs == gauss_fp({"chi": 2, "omega": -2})._exp
    assert name == "central-character-quadratic[chi^1*omega^-1]"
    assert _sides([pa._quadratic(g._exp, 1)]) == _sides([step])


# ---------------------------------------------------------------------------
# replays

def test_main1_step_trivial_and_vacuous():
    assert pa.check_main1_step(1, 0, 1, 0).is_ok
    assert pa.check_main1_step(5, -2, 1, -3).is_ok


def test_main1_step_validation():
    with pytest.raises(ValueError):
        pa.check_main1_step(4, 0, 1, 1)      # delta parity
    with pytest.raises(ValueError):
        pa.check_main1_step(3, 1, 1, 1)      # odd w for odd rank
    with pytest.raises(ValueError, match="w must be even for odd rank"):
        pa.check_main1_step(1, 3, 1, 1)      # ... at the rank-1 base too
    with pytest.raises(ValueError, match="m must be an integer"):
        pa.check_main1_step(1, 0, 1, Fraction(1, 3))   # ... and m too
    with pytest.raises(ValueError):
        pa.check_main1_step(4, 0, 0, 0)      # central point
    with pytest.raises(ValueError):
        pa.check_main1_step(4, 0, 0, Fraction(1, 2))


@pytest.mark.parametrize("bad", [0.5, True, Fraction(2)])
@pytest.mark.parametrize("call", [
    lambda x: pa.check_main1_step(x, 0, 0, 1),
    lambda x: pa.check_main1_step(4, x, 0, 1),
    lambda x: pa.check_main1_step(4, 0, x, 1),
    lambda x: pa.require_main1_hypotheses(x, 0, 0),
    lambda x: pa.check_motivic_dual(x),
    lambda x: pa.check_motivic_dual(6, i=x),
    lambda x: pa.check_corollary_main(x),
    lambda x: pa.check_theorem_main2(x, 3),
    lambda x: pa.check_theorem_main2(2, x),
    lambda x: pa.check_theorem_main2(2, 3, eps_num=x),
], ids=["main1-n", "main1-w", "main1-delta", "hypotheses-n", "motivic-dual-n",
        "motivic-dual-i", "corollary-main-n", "main2-n", "main2-nprime",
        "main2-eps-num"])
def test_a_builtin_int_argument_rejects_a_non_int(call, bad):
    # a float, a bool or an integral Fraction never reaches a trusted atom;
    # m alone is a point, which _integer_m reads as a fraction
    with pytest.raises(TypeError, match="expected an integer, got "):
        call(bad)


@pytest.mark.parametrize("bad", ["no", "", 0, 1, None, []])
@pytest.mark.parametrize("call", [
    lambda x: pa.check_main1_step(4, 0, 0, 1, corrupt=x),
    lambda x: pa.check_main1_step(1, 0, 1, 0, corrupt=x),
    lambda x: pa.check_motivic_dual(6, corrupt=x),
    lambda x: pa.check_corollary_main(2, orthogonal=x),
    lambda x: pa.check_corollary_main(2, corrupt=x),
    lambda x: pa.check_theorem_main2(3, 3, include_i_power=x),
    lambda x: pa.check_theorem_main2(3, 2, include_i_power=x),
    lambda x: pa.check_theorem_main2(3, 3, corrupt=x),
], ids=["main1-corrupt", "main1-corrupt-at-rank-1", "motivic-dual-corrupt",
        "corollary-main-orthogonal", "corollary-main-corrupt",
        "main2-include-i-power", "main2-include-i-power-at-even-nprime",
        "main2-corrupt"])
def test_a_builtin_flag_rejects_a_non_bool(call, bad):
    # a flag is checked with the ints, before any early return, and is
    # never read by truthiness: "no" does not run the corrupted control
    with pytest.raises(TypeError, match="^expected a bool, got "):
        call(bad)


@pytest.mark.parametrize("chi", [{}, {"chi": 0}, {"chi": 2, "chi2": 0}])
def test_a_corrupted_corollary_main_needs_a_nontrivial_chi(chi):
    # the control multiplies G(chi) into the target, which is nothing for
    # a trivial chi, so it would pass; the valid replay still runs
    trivial = not gauss_fp(chi)._exp
    if trivial:
        with pytest.raises(ValueError, match="^corrupt needs a nontrivial "
                                             "chi; the trivial character"):
            pa.check_corollary_main(2, chi_expr=chi, corrupt=True)
    else:
        assert not pa.check_corollary_main(2, chi_expr=chi,
                                           corrupt=True).is_ok
    assert pa.check_corollary_main(2, chi_expr=chi).is_ok


def test_main1_step_negative_control():
    res = pa.check_main1_step(6, 0, 0, 1, corrupt=True)
    assert not res.is_ok
    assert res.offending_atom() == "Gauss(omega_Pi)"


def test_main1_step_at_rank_255_is_fast_and_builds_no_tensor(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the tensor parameter was built")

    monkeypatch.setattr(weil_real, "tensor", refuse)
    start = time.monotonic()
    assert pa.check_main1_step(255, 0, 1, 1).is_ok
    assert time.monotonic() - start < 0.5


def test_main1_step_reads_no_critical_set_and_tests_no_balance(monkeypatch):
    # the pair is balanced and m + 1/2 critical by construction (see
    # test_main1_pair_matches_the_checked_oracle_up_to_the_caps), so a step
    # at any rank reaches neither arch_l's critical set nor an interlacing
    def refuse(*args):
        raise AssertionError("a hypothesis of the pair was checked")

    monkeypatch.setattr(arch_l, "critical_set", refuse)
    monkeypatch.setattr(infinity_types, "interlaces", refuse)
    for n in range(2, 257):
        for w, delta, m in ((0, n % 2, 1), (2, n % 2 - 2, -7),
                            (-10000, 10000 - n % 2, 10 ** 35 - 1)):
            assert pa.check_main1_step(n, w, delta, m).is_ok, (n, w, delta, m)


def _built(fn, *args):
    """fn(*args) or the ValueError it raises, with the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValueError as exc:
            out = (ValueError, str(exc))
    return out, [str(w.message) for w in caught]


def _sides(steps) -> list:
    """Each step's name, citation and exponent with the (atom, exponent)
    items of its two sides in dict order, the order the version-2 DB
    writes; dict equality ignores it."""
    return [(name, citation, list(lhs.items()), list(rhs.items()), e)
            for name, (citation, lhs, rhs), e in steps]


@st.composite
def main1_pairs(draw):
    """(pi, sigma): a pair of check_main1_step or of its duals under drawn
    labels (Sigma's may be Pi's) and the Gauss class of a drawn atom."""
    n = draw(st.integers(2, 9))
    w = draw(st.integers(-3, 3)) * (1 + n % 2)
    delta = n % 2 + 2 * draw(st.integers(-1, 1))
    m = draw(st.integers(-9, 8).filter(lambda m: 2 * m != -(w + delta)))
    pi, sigma = oracles.main1_pair(n, w, delta, m)
    if draw(st.booleans()):
        pi, sigma = map(oracles.global_dual, (pi, sigma))
    labels = st.sampled_from(["Pi", "Sigma", "Pi^v", "P"])
    classes = st.sampled_from(["omega_Pi", "omega_Sigma", "chi"]).map(
        lambda label: gauss_fp({label: 1}))
    pi = oracles.GlobalRep(draw(labels), pi.inf, draw(classes))
    sigma = oracles.GlobalRep(draw(st.just(pi.label) | labels), sigma.inf,
                              draw(classes))
    return pi, sigma


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 64), st.integers(-6, 6), st.integers(-3, 3),
       st.integers(-60, 60), st.booleans())
@example(2, 0, 0, 0, False)   # the central point, which both reject
@example(64, 5, 2, -60, True)
def test_main1_relations_match_the_oracle_builders(n, w, delta_half, m,
                                                   corrupt):
    # the step's relations, warnings and residual against the guarded
    # oracle builders over drawn ranks and points, w of either parity
    # (odd w at odd rank is rejected by both) and delta of n's parity
    delta = n % 2 + 2 * delta_half
    new = _built(pa.check_main1_step, n, w, delta, m, corrupt)
    want = _built(oracles.main1_steps, n, w, delta, m, corrupt)
    if not isinstance(new[0], pa.CheckResult):
        assert new[1] == want[1] == []
        assert new[0][0] is ValueError and not isinstance(want[0], list)
        return
    assert new[1] == want[1], (n, w, delta, m)
    assert _sides(new[0].steps) == _sides(want[0]), (n, w, delta, m)
    assert new[0].residual == formal.replay(want[0])


@settings(max_examples=300, deadline=None)
@given(main1_pairs(), st.sampled_from([1, -1]))
@example((oracles.GlobalRep("Pi", PI4.inf, gauss_fp({"chi": 1})),
          oracles.GlobalRep("Pi", SIG3.inf, gauss_fp({"chi": 1}))), 1)
def test_rel_main1_matches_the_oracle_under_drawn_labels(pair, eps):
    # the main1 writer against the oracle's atom products, for Pi and for
    # Sigma, under labels and Gauss atoms that the step itself never uses
    for rep in pair:
        new = _built(_main1_of, rep, eps)
        assert new == _built(oracles.rel_main1, rep, eps)
        assert _sides([new[0]]) == _sides([oracles.rel_main1(rep, eps)])


_PI_PLUS = PeriodAtom("BW", ("Pi", 1))
_CHI_ATOM = PeriodAtom("Gauss", ("chi",))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(atoms, st.integers(-3, 3)), max_size=5),
       st.lists(st.tuples(periods, st.integers(-3, 3)), max_size=3))
# BW(Pi,+) cancels after the first class and comes back with the last, so
# a reduce before the last class would move it behind Gauss(chi)
@example([(_PI_PLUS, 1)],
         [(atom_power(_PI_PLUS), -1), (atom_power(_CHI_ATOM), 1),
          (atom_power(_PI_PLUS), 1)])
def test_a_repeated_atom_adds_up_in_a_relation_side(pairs, classes):
    # _period, which * and ** are built on, against the checked constructor
    # over the same (atom, k*e) pairs: the same period, and its atoms in the
    # order of their first occurrence
    exp = {}
    for a, e in pairs:
        exp[a] = e
    want = FormalPeriod(chain(exp.items(), ((a, k * e) for g, k in classes
                                            for a, e in g._exp.items())))
    got = formal._period(exp.copy(), *((g._exp, k) for g, k in classes))
    assert got == want
    assert list(got._exp) == list(want._exp)


def test_a_main1_step_builds_each_atom_once():
    # equal atoms on the sides of a step's relations are one object
    checked = 0
    for n, w, delta, m, corrupt in product((2, 3, 8, 33), (-2, 0, 1),
                                           (-1, 0, 1, 2), (-3, 0, 2),
                                           (False, True)):
        try:
            res = pa.check_main1_step(n, w, delta, m, corrupt=corrupt)
        except ValueError:
            continue
        held = [a for _, (_, lhs, rhs), _ in res.steps
                for a in chain(lhs, rhs)]
        assert len(set(map(id, held))) == len(set(held)), (n, w, delta, m)
        checked += 1
    assert checked == 112


def test_main1_steps_match_the_oracle_over_a_grid():
    checked = 0
    for n, w, delta, m, corrupt in product(range(2, 14), range(-3, 4),
                                           range(-3, 4), range(-9, 9),
                                           (False, True)):
        try:
            res = pa.check_main1_step(n, w, delta, m, corrupt=corrupt)
        except ValueError:
            continue
        steps = oracles.main1_steps(n, w, delta, m, corrupt)
        assert _sides(res.steps) == _sides(steps), (n, w, delta, m, corrupt)
        assert res.residual == formal.replay(steps)
        checked += 1
    assert checked == 7020


def _cap_inputs():
    """The main1 inputs at every rank up to the CLI's and at its |w|,
    |delta| and --m caps, the rejected ones included."""
    big = 10 ** 35 - 1
    for n in range(2, 257):
        deltas = (n % 2, 10000 - n % 2, n % 2 - 10000)
        for w, delta, m in product((-10000, -1, 0, 1, 10000), deltas,
                                   (1, -1, 10 ** 6, -10 ** 6, big, -big)):
            yield n, w, delta, m


def test_main1_pair_matches_the_checked_oracle_up_to_the_caps():
    # the hypotheses that the step does not check, which its docstring
    # proves of the pair that tests.oracles.main1_pair builds through
    # InfinityType: the pair is balanced and regular, m + 1/2 and m2 + 1/2
    # are critical for it, and -m + 1/2 for its duals
    checked = 0
    half = Fraction(1, 2)
    for n, w, delta, m in _cap_inputs():
        out, warned = _built(pa.check_main1_step, n, w, delta, m)
        if not isinstance(out, pa.CheckResult):
            continue
        where = (n, w, delta, m)
        pair = oracles.main1_pair(n, w, delta, m)
        pi, sigma = (rep.inf for rep in pair)
        assert oracles.is_balanced(pi, sigma), where
        assert oracles.is_regular(pi) and oracles.is_regular(sigma), where
        assert warned == [], where
        cs = arch_l.critical_set(pi, sigma)
        for s0 in (m + half, -m - w - delta + half):
            assert oracles.critical_contains(cs, s0), (where, s0)
        duals = (oracles.global_dual(rep).inf for rep in pair)
        assert oracles.critical_contains(arch_l.critical_set(*duals),
                                         -m + half), where
        checked += 1
    assert checked == 128 * 90 + 127 * 54


def _step_signs(res) -> tuple:
    """(eps, eps', class) as a main1 step wrote them: the signs of its
    main1[Pi] and main1[Sigma] lhs atoms, and the I exponent of its
    duality ratio."""
    bodies = [body for _, body, _ in res.steps]
    (bw_pi,), (bw_sigma,) = bodies[6][1], bodies[5][1]
    return bw_pi.payload[1], bw_sigma.payload[1], bodies[2][2].get(ATOM_I, 0)


def test_main1_step_signs_and_class_match_the_oracle_pair():
    # the step's closed-form signs and epsilon class against
    # raghuram_signs and pair_epsilon_class of the pair built in full, at
    # every input of the caps grid and over small w, delta and m, where
    # w/2 and delta/2 take both parities
    def small():
        for n in range(2, 65):
            for w, dh, m in product(range(-3, 4), (-1, 0, 1), range(-3, 4)):
                yield n, w, n % 2 + 2 * dh, m

    checked = 0
    for n, w, delta, m in chain(_cap_inputs(), small()):
        try:
            res = pa.check_main1_step(n, w, delta, m)
        except ValueError:
            continue
        pi, sigma = oracles.main1_pair(n, w, delta, m)
        want = (*oracles.raghuram_signs(m, pi, sigma),
                oracles.pair_epsilon_class(pi.inf, sigma.inf))
        assert _step_signs(res) == want, (n, w, delta, m)
        checked += 1
    # the small grid: 3 * 3 central points at each even n; none at odd n,
    # where only even w is accepted and w + delta is odd
    assert checked == 128 * 90 + 127 * 54 + 32 * (147 - 9) + 31 * 63


def test_the_functional_equation_drops_the_two_pi_power_of_arch_iparity():
    # The Gamma_C factors of the duality ratio give (2 pi)^k with k the I
    # exponent that arch-iparity writes, (m - m2) n (n - 1)/2: each of the
    # n(n-1)/2 factors gives (s0 + b) - (1 - s0 + b') = 2m + w + delta, as
    # every constituent has the twist (w + delta)/2.  Every Gamma argument
    # is a positive integer at s0, so the rest of the ratio is rational.
    def grid():
        for n in range(2, 33):
            for w, dh, m in product((-3, 0, 2), (-1, 0), (-2, 1)):
                yield n, w, n % 2 + 2 * dh, m
        for n, w, delta, m in ((64, 0, 0, 1), (64, 1, -2, -2), (128, 2, 2, 3),
                               (128, -1, 0, -1), (255, 0, 1, 1),
                               (256, -3, -2, 2)):
            yield n, w, delta, m

    checked = 0
    for n, w, delta, m in grid():
        try:
            res = pa.check_main1_step(n, w, delta, m)
        except ValueError:
            continue
        m2, s0 = -m - w - delta, m + Fraction(1, 2)
        k, args = oracles.functional_equation_gammas(
            oracles.main1_pair(n, w, delta, m), s0)
        assert k == (m - m2) * n * (n - 1) // 2, (n, w, delta, m)
        assert all(a.denominator == 1 and a > 0 for a in args), (n, w,
                                                                 delta, m)
        _, (_, _, rhs), _ = res.steps[4]
        assert rhs.get(ATOM_I, 0) == k % 2, (n, w, delta, m)
        checked += 1
    # one central point at each even rank up to 32, and odd w is rejected
    # at odd rank
    assert checked == 16 * (12 - 1) + 15 * 8 + 6


def _profiled_calls(fn, *args) -> int:
    """The Python-level calls that fn(*args) makes, its own included; the
    collector is off, so that no gc callback of the test run counts."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _pin(count, exact, bound, info):
    """count is exact before Python 3.12, where the pins were measured (on
    3.11); 3.12 inlines comprehensions (PEP 709), so from there count need
    only stay within bound."""
    if sys.version_info < (3, 12):
        assert count == exact, info
    else:
        assert count <= bound, info


def test_a_main1_step_makes_as_many_calls_at_every_rank():
    # the step's cost does not grow with n: one count at every rank, valid
    # or corrupted, exactly that of its written steps (14 calls; 15
    # when derived summed the steps through _period and _reduced dropped
    # zeros with a comprehension, 36 when it built a Relation and two sides
    # for each of its steps, 69 when it built the pair's types and resolved
    # its signs through them)
    for corrupt in (False, True):
        counts = {n: _profiled_calls(pa.check_main1_step, n, 2 - n % 2 * 2,
                                     n % 2, 3, corrupt)
                  for n in (2, 3, 32, 255, 256)}
        assert len(set(counts.values())) == 1, counts
        _pin(counts[2], 14, 17, counts)


def test_corollary_main_builds_a_regular_pi_at_every_n(monkeypatch):
    # check_corollary_main's docstring proves its Pi regular, and the
    # replay builds no type: the Pi that the oracle composition builds in
    # full and hands to its rel_main1, at every n up to the CLI's --n cap
    # of 256 (rank 512), passes the oracle's test with no warning, and the
    # replay is ok
    received = []

    def recording(pi, eps, rel_main1=oracles.rel_main1):
        received.append(pi.inf)
        return rel_main1(pi, eps)

    monkeypatch.setattr(oracles, "rel_main1", recording)
    for n in range(1, 257):
        received.clear()
        _, warned = _built(oracles.corollary_main_steps, n)
        assert warned == [] and pa.check_corollary_main(n).is_ok, n
        (pi,) = received
        assert pi.n == 2 * n and oracles.is_regular(pi), n


def test_corollary_branches():
    assert pa.check_corollary_main(2).is_ok
    assert not pa.check_corollary_main(2, orthogonal=False).is_ok
    assert pa.check_corollary_main(2, chi_expr={"omega_Pi": 1}).is_ok
    assert not pa.check_corollary_main(2, corrupt=True).is_ok


def test_main2_even_nprime_is_identity():
    res = pa.check_theorem_main2(3, 2)
    assert res.is_ok and res.i_parity == 0 and not res.steps


def test_main2_i_parity_and_toggle():
    res = pa.check_theorem_main2(3, 3)
    assert res.is_ok and res.i_parity == 1
    res = pa.check_theorem_main2(3, 3, include_i_power=False)
    assert res.is_ok and res.i_parity == 0
    assert pa.check_theorem_main2(3, 3, eps_num=-1).is_ok
    assert not pa.check_theorem_main2(3, 3, corrupt=True).is_ok


# the chi of check_corollary_main: None, then character exponents over base
# labels, among them omega_Pi, a label no builtin uses, and a zero exponent
CHI_EXPRS = (None, {"chi": 1}, {"eta": 1}, {"omega_Pi": 1}, {"chi": 2},
             {"chi": -1}, {"chi": 1, "omega_Pi": 1}, {"omega_Pi": 2, "x": 1},
             {"chi": 0}, {"chi": 1, "eta": -3})


def _same_replay(res, steps, i_parity=0):
    """res has the oracle's steps, side key orders, residual and parity."""
    assert _sides(res.steps) == _sides(steps)
    assert res.residual == formal.replay(steps)
    assert res.i_parity == i_parity


def test_corollary_main_and_main2_match_the_oracles():
    # the closed forms against today's compositions of checked products,
    # valid and corrupted, over ranks that reach the CLI's --n cap
    for n in (*range(1, 41), 64, 127, 128, 255, 256):
        for chi, orthogonal, corrupt in product(CHI_EXPRS, (True, False),
                                                (False, True)):
            args = (n, orthogonal, chi, corrupt)
            if corrupt and chi == {"chi": 0}:  # no relation to corrupt
                with pytest.raises(ValueError, match="nontrivial chi"):
                    pa.check_corollary_main(*args)
                continue
            res = pa.check_corollary_main(*args)
            _same_replay(res, oracles.corollary_main_steps(*args))
    for n in (*range(1, 20), 64, 128, 256):
        for nprime in (*range(1, 12), 101, 255, 256):
            for eps, ipow, corrupt in product((1, -1), (True, False),
                                              (False, True)):
                args = (n, nprime, ipow, eps, corrupt)
                res = pa.check_theorem_main2(*args)
                if nprime % 2 == 0:
                    assert res == pa.CheckResult(FormalPeriod())
                else:
                    _same_replay(res, *oracles.main2_steps(*args))


def test_an_empty_chi_expr_is_the_trivial_character():
    # only None selects the default chi; {} and {"chi": 0} are both the
    # trivial character
    for n, orthogonal in product((1, 2, 5), (True, False)):
        empty = pa.check_corollary_main(n, orthogonal, {})
        zero = pa.check_corollary_main(n, orthogonal, {"chi": 0})
        default = pa.check_corollary_main(n, orthogonal)
        assert _sides(empty.steps) == _sides(zero.steps)
        assert empty.residual == zero.residual
        assert _sides(default.steps) != _sides(empty.steps)


@pytest.mark.parametrize("nprime", [2, 3])
def test_main2_checks_eps_num_at_its_boundary(nprime):
    # eps_num is a sign, checked before the even-n' return; a bool is not
    # an int (test_a_builtin_int_argument_rejects_a_non_int tests more)
    for bad in (2, 0, -2):
        with pytest.raises(ValueError, match=r"^eps_num must be \+1 or -1$"):
            pa.check_theorem_main2(3, nprime, eps_num=bad)
    with pytest.raises(TypeError, match="^expected an integer, got True$"):
        pa.check_theorem_main2(3, nprime, eps_num=True)


def test_corollary_main_and_main2_make_as_many_calls_at_every_rank():
    # neither replay's cost grows with n: one count at every rank, valid or
    # corrupted, exactly that of their written steps (32 calls for
    # corollary-main, 17 and 30 for main2 at eps = +1 and -1; 33, 18 and 31
    # before derived summed in one loop, 41, 26 and 40 when they built a
    # Relation and two sides for each step, 102-1,128 and 120-145 when they
    # built the rank-2n type and composed with * and **)
    counts = {(n, c): _profiled_calls(pa.check_corollary_main, n, True,
                                      None, c)
              for n in (1, 2, 64, 255, 256) for c in (False, True)}
    assert len(set(counts.values())) == 1, counts
    _pin(counts[1, False], 32, 35, counts)
    for eps, corrupt in product((1, -1), (False, True)):
        counts = {n: _profiled_calls(pa.check_theorem_main2, n, 3, True, eps,
                                     corrupt) for n in (2, 64, 256)}
        assert len(set(counts.values())) == 1, (eps, corrupt, counts)
        _pin(counts[2], {1: 17, -1: 30}[eps], {1: 20, -1: 33}[eps],
             (eps, corrupt, counts))


def test_a_motivic_dual_derivation_makes_as_many_calls_per_hodge_gap():
    # the cost of a derivation is a fixed part and the same count for each
    # of its n // 2 - 1 gaps, valid or corrupted (exactly 2 calls a gap,
    # with each atom built by an explicit call; 16 when three generator
    # expressions built a gap's atoms, 40 when it built a Relation and two
    # sides for each step), plus a fixed 8 calls exactly (9 when _reduced
    # dropped zeros with a comprehension)
    counts = {(n, c): _profiled_calls(pa.check_motivic_dual, n, None, c)
              for n in (4, 64, 255, 256) for c in (False, True)}
    per_gap = {(n, c): (counts[n, c] - counts[4, c]) / (n // 2 - 2)
               for n, c in counts if n > 4}
    assert len(set(per_gap.values())) == 1, counts
    assert counts[4, False] == counts[4, True], counts
    _pin(per_gap[64, False], 2, 4, counts)
    _pin(counts[4, False] - per_gap[64, False], 8, 11, counts)


# each builtin at one input it accepts, with the oracle builder of its steps
VERDICT_ONLY = {
    "main1": (pa.check_main1_step, (8, 0, 0, 3), oracles.main1_steps),
    "corollary-main": (pa.check_corollary_main, (5, True, None),
                       oracles.corollary_main_steps),
    "main2": (pa.check_theorem_main2, (3, 3, True, -1),
              lambda *a: oracles.main2_steps(*a)[0]),
    "motivic-dual": (pa.check_motivic_dual, (9, None),
                     oracles.motivic_dual_steps),
}


@pytest.mark.parametrize("builtin", VERDICT_ONLY)
def test_a_verdict_only_call_builds_no_relation(builtin):
    # a caller that reads the verdict and the script builds no Relation, as
    # neither formal nor the oracles define one; the steps are the oracle's,
    # with its side key orders and residual
    check, args, oracle = VERDICT_ONLY[builtin]
    assert "Relation" not in vars(formal)
    assert not hasattr(oracles, "Relation")
    for corrupt in (False, True):
        res = check(*args, corrupt=corrupt)
        assert res.is_ok is not corrupt
        assert (res.offending_atom() is None) is not corrupt
        script = res.to_script()
        steps = oracle(*args, corrupt)
        assert _sides(res.steps) == _sides(steps)
        assert res.residual == formal.replay(steps)
        assert script == [{"relation": name, "exponent": e}
                          for name, _, e in steps]


def test_motivic_dual_per_index():
    assert pa.check_motivic_dual(6).is_ok
    for idx in (1, 2):
        assert pa.check_motivic_dual(6, i=idx).is_ok
    assert not pa.check_motivic_dual(6, corrupt=True).is_ok
    with pytest.raises(ValueError):
        pa.check_motivic_dual(6, i=3)


def test_motivic_dual_matches_the_yoshida_builders():
    # every rank the CLI accepts, each admissible i at the small ranks;
    # names, citations, key orders and the residual against the derivation
    # rebuilt through yoshida's builders
    from periodcalc.cli import MAX_RANK
    checked = 0
    for n in range(2, MAX_RANK + 1):
        for i in (None, *range(1, n // 2)) if n <= 12 else (None,):
            for corrupt in (False, True):
                res = pa.check_motivic_dual(n, i=i, corrupt=corrupt)
                steps = oracles.motivic_dual_steps(n, i, corrupt)
                assert _sides(res.steps) == _sides(steps), (n, i)
                want = formal.replay(steps)
                assert (list(res.residual._exp.items())
                        == list(want._exp.items())), (n, i, corrupt)
                checked += 1
    assert checked == 2 * (255 + 25)


def test_a_motivic_dual_derivation_builds_each_atom_once():
    # equal atoms on the sides of a derivation's relations are one object
    for n, i, corrupt in product((4, 5, 9, 64, 255, 256), (None, 1),
                                 (False, True)):
        res = pa.check_motivic_dual(n, i=i, corrupt=corrupt)
        held = [a for _, (_, lhs, rhs), _ in res.steps
                for a in chain(lhs, rhs)]
        assert len(set(map(id, held))) == len(set(held)), (n, i, corrupt)
        # 11 atoms in each gap, and delta(M): 127 gaps at n = 256
        gaps = (n // 2 - 1) if i is None else 1
        assert len(set(held)) == 11 * gaps + 1, (n, i, corrupt)
        if (n, i) == (256, None):
            assert len(set(held)) == 1398


def _builtin_derivations():
    """(label, result) of every builtin over a grid of ranks and options;
    inputs a builtin rejects are skipped."""
    for n, w, delta, m in product(range(2, 14), range(-2, 3), range(-2, 3),
                                  range(-2, 3)):
        try:
            yield (f"main1 n={n} w={w} delta={delta} m={m}",
                   pa.check_main1_step(n, w, delta, m))
        except ValueError:
            pass
    for n, chi in product(range(1, 10), (None, {"omega_Pi": 1})):
        yield (f"corollary-main n={n} chi={chi}",
               pa.check_corollary_main(n, chi_expr=chi))
    for n, nprime, eps_num, ipow in product(range(1, 8), range(1, 8),
                                            (1, -1), (True, False)):
        yield (f"main2 n={n} n'={nprime} eps={eps_num} i={ipow}",
               pa.check_theorem_main2(n, nprime, include_i_power=ipow,
                                      eps_num=eps_num))
    for n in range(2, 20):
        for i in (None, *range(1, n // 2)):
            yield f"motivic-dual n={n} i={i}", pa.check_motivic_dual(n, i=i)


def test_every_step_carries_weight():
    # a derivation is minimal: each step is needed, and with exactly its
    # exponent; this generalises the one --corrupt control of each builtin
    for label, res in _builtin_derivations():
        assert res.is_ok, label
        steps = res.steps
        names = [name for name, _, _ in steps]
        assert len(set(names)) == len(names), label
        for k, (name, body, e) in enumerate(steps):
            where = f"{label}: {name} ^ {e}"
            assert e and not formal.replay([(name, body, 1)]).is_trivial, where
            rest = steps[:k] + steps[k + 1:]
            assert not formal.replay(rest).is_trivial, where
            for d in (1, -1):
                assert not formal.replay(
                    rest + ((name, body, e + d),)).is_trivial, where


# ---------------------------------------------------------------------------
# relation database and script replay

def test_relation_db_round_trip_and_script(tmp_path):
    res = pa.check_corollary_main(2)
    db = formal.RelationDB()
    res.register(db)
    path = tmp_path / "relations.json"
    db.save(str(path))
    loaded = formal.RelationDB.load(str(path))
    assert loaded.names() == db.names()
    residual = formal.check_script(loaded, res.to_script())
    assert residual.is_trivial


def test_failed_save_leaves_the_db_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "relations.json"
    db = formal.RelationDB()
    pa.check_corollary_main(2).register(db)
    db.save(str(path))
    before = path.read_bytes()

    held = []

    def failing_replace(src, dst):
        with open(src, encoding="utf-8") as fh:
            held.append(fh.read())
        raise OSError("disk full")

    monkeypatch.setattr(formal.os, "replace", failing_replace)
    with pytest.raises(OSError, match="^disk full$"):
        db.save(str(path))
    assert held and held[0].startswith('{"atoms": [\n')
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["relations.json"]


def _saved(tmp_path, res):
    db = formal.RelationDB()
    res.register(db)
    path = tmp_path / "relations.json"
    db.save(str(path))
    return db, path


def test_saved_db_loads_every_relation_back_one_per_line(tmp_path):
    db, path = _saved(tmp_path, pa.check_motivic_dual(16))
    loaded = formal.RelationDB.load(str(path))
    assert loaded.names() == db.names()
    for name in db.names():
        assert loaded._body(name) == db._body(name)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == '{"atoms": [' and lines[-1] == '], "version": 2}'
    middle = next(i for i, line in enumerate(lines) if line.startswith("]"))
    assert lines[middle].startswith('], "citations": [')
    assert lines[middle].endswith('], "relations": [')
    atoms = [atom_from_json(json.loads(line.rstrip(",")))
             for line in lines[1:middle]]
    citations = json.loads(lines[middle][len('], "citations": '):
                                         -len(', "relations": [')])
    assert len(set(atoms)) == len(atoms)
    assert len(set(citations)) == len(citations)
    assert ([relation_from_json(json.loads(line.rstrip(",")), atoms, citations)
             for line in lines[middle + 1:-1]]
            == [(n, db._body(n), 1) for n in db.names()])


@pytest.mark.parametrize("version", [3, 0, "1", True, None, 1.0])
def test_an_unknown_db_version_is_rejected(tmp_path, version):
    path = tmp_path / "relations.json"
    path.write_text(json.dumps({"atoms": [], "citations": [], "relations": [],
                                "version": version}))
    with pytest.raises(ValueError, match="unknown DB version"):
        formal.RelationDB.load(str(path))


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("derive", [
    lambda c: pa.check_motivic_dual(64, corrupt=c),
    lambda c: pa.check_main1_step(8, 0, 0, 3, corrupt=c)],
    ids=["motivic-dual", "main1"])
def test_a_db_in_the_indented_layout_still_replays(tmp_path, derive, corrupt):
    res = derive(corrupt)
    db, path = _saved(tmp_path, res)
    new = formal.check_script(formal.RelationDB.load(str(path)),
                              res.to_script())
    data = {"relations": [oracles.relation_to_json((n, db._body(n), 1))
                          for n in db.names()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    old = formal.check_script(formal.RelationDB.load(str(path)),
                              res.to_script())
    assert old == new == res.residual


def test_arch_and_l_value_points_are_canonical_text(tmp_path):
    a = PeriodAtom("ArchZ", (Fraction(1, 2), "P"))
    b = PeriodAtom("ArchZ", ("2/4", "P"))
    assert a == b and hash(a) == hash(b)
    assert (PeriodAtom("LVal", (Fraction(3), "P"))
            == PeriodAtom("LVal", ("6/2", "P")))
    _, path = _saved(tmp_path, pa.check_theorem_main2(3, 3, eps_num=-1))
    loaded = formal.RelationDB.load(str(path))
    entries = [p for name in loaded.names()
               for side in loaded._body(name)[1:]
               for atom in side for p in atom.payload]
    assert any(p == "5/2" for p in entries)
    assert all(type(p) in (str, int) for p in entries)


def test_script_detects_corruption(tmp_path):
    res = pa.check_corollary_main(2)
    db = formal.RelationDB()
    res.register(db)
    script = res.to_script()
    script[0]["exponent"] += 1
    assert not formal.check_script(db, script).is_trivial


BUILTINS = {
    "main1": lambda n, c: pa.check_main1_step(n, 0, n % 2, 1, corrupt=c),
    "corollary-main": lambda n, c: pa.check_corollary_main(n, corrupt=c),
    "main2": lambda n, c: pa.check_theorem_main2(n, 3, eps_num=-1, corrupt=c),
    "motivic-dual": lambda n, c: pa.check_motivic_dual(n, corrupt=c),
}


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_db_replay_matches_in_memory(tmp_path, builtin, corrupt):
    path = str(tmp_path / "relations.json")
    for n in range(2, 12):
        res = BUILTINS[builtin](n, corrupt)
        db = formal.RelationDB()
        res.register(db)
        db.save(path)
        replayed = formal.check_script(formal.RelationDB.load(path),
                                       res.to_script())
        assert replayed == res.residual, n


def test_replay_sums_every_builtin_to_the_residual_that_derived_sums():
    # the checked summer against the trusted one on the builtins' own
    # steps, valid and corrupted
    corrupted = ((f"{builtin} n={n} corrupted", BUILTINS[builtin](n, True))
                 for builtin in sorted(BUILTINS) for n in range(2, 12))
    for label, res in chain(_builtin_derivations(), corrupted):
        assert formal.replay(res.steps) == res.residual, label


def test_derived_keeps_a_tuple_of_steps_as_it_is():
    # a builtin that passes a tuple gets that tuple back, with no copy; a
    # list or an iterator of the same steps gives the same result
    steps = pa.check_main1_step(8, 0, 0, 3).steps
    assert type(steps) is tuple
    assert formal.derived(steps).steps is steps
    for other in (list(steps), iter(steps)):
        assert formal.derived(other, 1) == formal.derived(steps, 1)


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_a_results_relations_are_its_written_steps(builtin, corrupt):
    # relations is the steps tuple itself, so a read builds nothing, and its
    # length, which the benchmark tracer counts, is the script's; formal
    # defines no Relation
    assert "Relation" not in vars(formal)
    for n in range(2, 12):
        res = BUILTINS[builtin](n, corrupt)
        assert res.relations is res.steps, n
        assert len(res.relations) == len(res.to_script()), n


def test_a_main1_step_takes_its_bw_atoms_from_the_table():
    # at every rank and at both signs, each BW atom of a step, valid or
    # corrupted, is the table's own object, and the step reaches every
    # entry of the table
    seen = set()
    for n, m, corrupt in product(range(2, 257), (3, 4), (False, True)):
        res = pa.check_main1_step(n, 2 - n % 2 * 2, n % 2, m, corrupt)
        for _, (_, lhs, rhs), _ in res.steps:
            for atom in chain(lhs, rhs):
                if atom[0] == "BW":
                    assert atom is pa._BW[atom[1]], (n, m, corrupt, atom)
                    seen.add(atom[1])
    assert seen == set(pa._BW) == {(label, eps) for eps in (1, -1)
                                   for label in ("Pi", "Pi^v", "Sigma",
                                                 "Sigma^v")}


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_a_step_goes_from_its_writer_to_the_db_as_one_value(builtin,
                                                             corrupt):
    # every step is (name, (citation, lhs, rhs), exponent), and register
    # holds each step's own body object under its name
    assert formal.CheckResult._fields == ("residual", "steps", "i_parity")
    res = BUILTINS[builtin](9, corrupt)
    db = formal.RelationDB()
    res.register(db)
    assert db.names() == sorted(name for name, _, _ in res.steps)
    for step in res.steps:
        name, body, e = step
        citation, lhs, rhs = body
        assert (type(name), type(citation), type(lhs), type(rhs), type(e)
                ) == (str, str, dict, dict, int), step
        assert db._relations[name] is body, name


def test_every_builtin_writes_reduced_steps():
    # a builtin's steps, valid or corrupted, are (str, (str, dict, dict),
    # int), their sides reduced exponent dicts
    results = [res for _, res in _builtin_derivations()]
    results += [BUILTINS[b](n, True) for b in BUILTINS for n in (4, 5, 9)]
    assert all(res.steps for res in results[-12:])
    for res in results:
        for step in res.steps:
            assert oracles.is_written_step(step), step


# a step with a non-trivial quotient, for the DB and script tests
QUAD = oracles.rel_quadratic(gauss_fp({"chi": 1}))


def test_register_rejects_a_name_collision():
    # two written steps under one name with different bodies
    other = written_step(QUAD[0], "different", FormalPeriod(),
                         gauss_fp({"chi": 1}))
    res = formal.derived([QUAD, other])
    with pytest.raises(ValueError, match="already present"):
        res.register(formal.RelationDB())


def test_the_collision_rule_holds_against_bodies_and_kept_records(tmp_path):
    # under a taken name an equal body is accepted, from the oracle's step
    # or a builtin's, and any other body is refused, whether the name holds
    # a registered body, one the oracle wrote or a record that load kept
    res = pa.check_corollary_main(3)
    steps = oracles.corollary_main_steps(3)
    name, (citation, lhs, rhs), e = step = steps[0]
    others = [(name, ("different", lhs, rhs), e), _times_i(step),
              (name, (citation, lhs, {}), e)]
    path = str(tmp_path / "relations.json")
    written = formal.RelationDB()
    _register(written, steps)
    registered = formal.RelationDB()
    res.register(registered)
    registered.save(path)
    for db in written, registered, formal.RelationDB.load(path):
        before = [db._body(n) for n in db.names()]
        res.register(db)
        _register(db, [step])
        for other in others:
            with pytest.raises(ValueError,
                               match=f"^relation {re.escape(repr(name))}"
                                     " already present$"):
                _register(db, [other])
        assert [db._body(n) for n in db.names()] == before


def _write_db(res, path):
    db = formal.RelationDB()
    res.register(db)
    db.save(path)


def test_register_and_save_make_as_many_calls_per_hodge_gap(tmp_path):
    # a motivic-dual derivation goes to its DB file at a fixed count of
    # calls and the same count for each of its gaps, valid or corrupted
    # (exactly 35 calls a gap: a body's line is written straight from its
    # dicts, a held body is not looked up again and an atom's payload is
    # one f-string; 54 when save read every body through _body and wrote
    # each payload with a comprehension, 94 when register read relations
    # and save took each Relation apart); without comprehension frames, as
    # 3.12 would count, it is 19, which is unmeasured there
    path = str(tmp_path / "relations.json")
    _write_db(pa.check_motivic_dual(4), path)
    counts = {(n, c): _profiled_calls(_write_db,
                                      pa.check_motivic_dual(n, None, c), path)
              for n in (4, 64, 255, 256) for c in (False, True)}
    per_gap = {(n, c): (counts[n, c] - counts[4, c]) / (n // 2 - 2)
               for n, c in counts if n > 4}
    assert len(set(per_gap.values())) == 1, counts
    assert counts[4, False] == counts[4, True], counts
    _pin(per_gap[64, False], 35, 37, counts)


def _read_db(path, script):
    return formal.check_script(formal.RelationDB.load(path), script)


def test_load_and_check_script_make_as_many_calls_per_hodge_gap(tmp_path):
    # a motivic-dual DB file is read back and replayed at a fixed count of
    # calls and the same count for each of its gaps, valid or corrupted
    # (exactly 11 calls a gap: load keeps each record after one int pass,
    # and replay sums it by atom index without decoding it); the first read
    # at n = 4 is a warm-up, counted again below
    path, counts = str(tmp_path / "relations.json"), {}
    for n, c in ((4, False), *product((4, 64, 255, 256), (False, True))):
        res = pa.check_motivic_dual(n, None, c)
        _write_db(res, path)
        counts[n, c] = _profiled_calls(_read_db, path, res.to_script())
    per_gap = {(n, c): (counts[n, c] - counts[4, c]) / (n // 2 - 2)
               for n, c in counts if n > 4}
    assert len(set(per_gap.values())) == 1, counts
    assert counts[4, False] == counts[4, True], counts
    _pin(per_gap[64, False], 11, 13, counts)


@pytest.mark.parametrize("builtin", VERDICT_ONLY)
def test_a_db_round_trip_builds_no_relation(builtin, tmp_path):
    # register, save, load, check_script and a save of the loaded DB build
    # no Relation, as formal defines none, and give the in-memory residual
    # and the same bytes; so do a load and replay of the derivation as a
    # version-1 file, and of its version-2 file with a second copy of a
    # record, which the int pass does not keep since its name is taken; a
    # DB filled from the oracle's steps saves those bytes and holds equal
    # bodies
    check, args, oracle = VERDICT_ONLY[builtin]
    path, again = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    v1, copied = str(tmp_path / "v1.json"), str(tmp_path / "copied.json")
    assert "Relation" not in vars(formal)
    for corrupt in (False, True):
        res = check(*args, corrupt=corrupt)
        _write_v1(v1, res.steps, {}, None)
        _write_db(res, copied)
        data = json.loads(_read(copied))
        data["relations"].append(data["relations"][0])
        with open(copied, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        db = formal.RelationDB()
        res.register(db)
        db.save(path)
        loaded = formal.RelationDB.load(path)
        replayed = formal.check_script(loaded, res.to_script())
        in_memory = formal.check_script(db, res.to_script())
        loaded.save(again)
        fallback = [formal.check_script(formal.RelationDB.load(p),
                                        res.to_script()) for p in (v1, copied)]
        assert replayed == in_memory == res.residual
        assert fallback == [res.residual] * 2
        assert _read(again) == _read(path)
        written = formal.RelationDB()
        _register(written, oracle(*args, corrupt))
        written.save(again)
        assert _read(again) == _read(path)
        assert written.names() == db.names() == loaded.names()
        for name in db.names():
            assert written._body(name) == db._body(name) == loaded._body(name)
            assert _sides([(name, written._body(name), 1)]) == _sides(
                [(name, db._body(name), 1)])


@pytest.mark.parametrize("data", [{"kind": "BW", "payload": ["Pi"]},
                                  {"kind": "DCi", "payload": ["M", "x"]},
                                  {"kind": "Nope", "payload": []}])
def test_atom_from_json_rejects_bad_payloads(data):
    with pytest.raises(ValueError):
        atom_from_json(data)


# labels and names with quotes, backslashes, control characters and
# non-ASCII text, and exponents, indices well beyond 64 bits
texts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=6) | st.sampled_from(['"', "\\", "\n\t\x00", "é", "M"])
big = st.integers(-2 ** 70, 2 ** 70)
any_atoms = st.one_of(
    st.builds(PeriodAtom, st.just("BW"),
              st.tuples(texts, st.sampled_from([1, -1]))),
    st.builds(PeriodAtom, st.just("Gauss"), st.tuples(texts)),
    st.builds(PeriodAtom, st.just("ArchZ"), st.tuples(points, texts)),
    st.builds(PeriodAtom, st.just("LVal"), st.tuples(points, texts)),
    st.builds(PeriodAtom, st.just("Delta"), st.tuples(texts)),
    st.builds(PeriodAtom, st.just("DC"),
              st.tuples(texts, st.sampled_from([1, -1]))),
    st.builds(PeriodAtom, st.just("DCi"), st.tuples(texts, big)),
    st.just(ATOM_I), st.just(ATOM_TWO_PI_I),
)
any_periods = st.lists(st.tuples(any_atoms, big), max_size=6).map(FormalPeriod)
any_steps = st.lists(st.builds(written_step, texts, texts, any_periods,
                               any_periods),
                     max_size=5, unique_by=itemgetter(0))


def _save_text(steps) -> str:
    db = formal.RelationDB()
    _register(db, steps)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        db.save(path)
        loaded = formal.RelationDB.load(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    assert loaded.names() == db.names()
    assert all(loaded._body(n) == db._body(n) for n in db.names())
    return text


@settings(max_examples=100, deadline=None)
@given(any_steps)
def test_saved_text_is_json_dumps_of_the_oracle_layout(steps):
    data = oracles.db_to_json(steps)
    atoms, body = ([json.dumps(x, sort_keys=True) for x in data[key]]
                   for key in ("atoms", "relations"))
    want = ('{"atoms": [\n' + ",\n".join(atoms) + '\n], "citations": '
            + json.dumps(data["citations"]) + ', "relations": [\n'
            + ",\n".join(body) + '\n], "version": 2}\n')
    text = _save_text(steps)
    assert text.split("\n") == want.split("\n")
    assert json.loads(text) == data


# version-1 files as (extra fields, indent): unversioned, "version": 1, and
# the older indented layout
V1_LAYOUTS = [({}, None), ({"version": 1}, None), ({}, 2)]


def _write_v1(path, steps, fields, indent):
    data = {"relations": [oracles.relation_to_json(s) for s in steps],
            **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=indent, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(any_steps, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_v1_and_v2_files_load_to_the_same_db(steps, exponents):
    db = formal.RelationDB()
    _register(db, steps)
    script = [{"relation": name, "exponent": e}
              for (name, _, _), e in zip(steps, exponents)]
    in_memory = formal.check_script(db, script)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        db.save(path)
        v2 = formal.RelationDB.load(path)
        for fields, indent in V1_LAYOUTS:
            _write_v1(path, steps, fields, indent)
            v1 = formal.RelationDB.load(path)
            assert v1.names() == v2.names() == db.names()
            assert all(v1._body(n) == v2._body(n) == db._body(n)
                       for n in db.names())
            assert formal.check_script(v1, script) == in_memory
        assert formal.check_script(v2, script) == in_memory


@settings(max_examples=100, deadline=None)
@given(any_steps)
def test_saving_a_loaded_db_writes_the_same_bytes(steps):
    text = _save_text(steps)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        formal.RelationDB.load(path).save(path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text


def _v2(**fields) -> dict:
    """A valid version-2 file of two atoms and r = TwoPiI / 1, with fields
    replaced."""
    return {"atoms": [{"kind": "TwoPiI", "payload": []}, {"kind": "I"}],
            "citations": ["c"], "version": 2,
            "relations": [{"name": "r", "citation": 0, "lhs": [[0, 1]],
                           "rhs": []}], **fields}


def _relation(**fields) -> dict:
    return _v2(relations=[dict(_v2()["relations"][0], **fields)])


@pytest.mark.parametrize("data, message", [
    (_relation(lhs=[[2, 1]]), "bad atom index 2 into a table of 2"),
    (_relation(lhs=[[-1, 1]]), "bad atom index -1"),
    (_relation(lhs=[[True, 1]]), "bad atom index True"),
    (_relation(lhs=[[1.0, 1]]), "bad atom index 1.0"),
    (_relation(lhs=[["0", 1]]), "bad atom index '0'"),
    (_relation(lhs=[[{"kind": "TwoPiI"}, 1]]), "bad atom index {"),
    (_relation(lhs=[[0, 1, 1]]),
     "a pair must be [atom, exponent], got [0, 1, 1]"),
    (_relation(lhs=[0]), "a pair must be [atom, exponent], got 0"),
    (_relation(citation=1), "bad citation index 1 into a table of 1"),
    (_relation(citation="c"), "bad citation index 'c'"),
    (_relation(citation=False), "bad citation index False"),
    (_v2(citations=[7]), "malformed relation record"),
    (_v2(citations=[""]), "relation needs a name and a citation"),
    (_v2(atoms=[["TwoPiI"]]), "malformed atom record"),
    (_v2(atoms=[{"payload": []}]), "malformed atom record"),
    (_v2(atoms=[{"kind": "BW", "payload": ["P", 2]}]), "BW sign"),
    (_v2(atoms={}), "needs an atom and a citation table"),
    (_v2(citations="c"), "needs an atom and a citation table"),
    ({"citations": [], "relations": [], "version": 2},
     "needs an atom and a citation table"),
    ({"atoms": [], "relations": [], "version": 2},
     "needs an atom and a citation table"),
    (_relation(lhs=[[0]]), "a pair must be [atom, exponent], got [0]"),
    # the empty name is named only once both sides decode
    (_relation(name=""), "relation needs a name and a citation"),
    (_relation(name="", rhs=[[5, 1]]), "bad atom index 5 into a table of 2"),
])
def test_a_malformed_version_2_file_is_rejected(tmp_path, data, message):
    path = tmp_path / "relations.json"
    path.write_text(json.dumps(_v2()))
    db = formal.RelationDB.load(str(path))
    assert db._body("r")[1] == {ATOM_TWO_PI_I: 1}
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(message)):
        formal.RelationDB.load(str(path))


_TWO_PI_I = {"kind": "TwoPiI", "payload": []}


@pytest.mark.parametrize("atoms, pairs, bad", [
    (None, [[_TWO_PI_I, 1], [_TWO_PI_I, 1, 1]], "[{'kind': 'TwoPiI', "
                                                "'payload': []}, 1, 1]"),
    (None, [[_TWO_PI_I, 1], [_TWO_PI_I]], "[{'kind': 'TwoPiI', "
                                          "'payload': []}]"),
    ([ATOM_TWO_PI_I], [[0, 1], [0, 1, 1]], "[0, 1, 1]"),
    ([ATOM_TWO_PI_I], [[0, 1], "x"], "'x'"),
], ids=["v1-three", "v1-one", "v2-three", "v2-string"])
def test_a_pair_that_is_not_atom_and_exponent_is_named(atoms, pairs, bad):
    with pytest.raises(ValueError) as exc:
        period_from_json(pairs, atoms)
    assert str(exc.value) == f"a pair must be [atom, exponent], got {bad}"


def test_a_decoder_error_after_a_good_pair_keeps_its_text():
    """Only a pair that does not unpack gets the pair message, even when a
    later pair also has the wrong length."""
    with pytest.raises(ValueError, match=r"^bad atom index 5 into a table "
                                         r"of 1$"):
        period_from_json([[0, 1], [5, 1], [0, 1, 1]], [ATOM_TWO_PI_I])
    with pytest.raises(ValueError, match=r"^unknown atom kind: 'Nope'$"):
        period_from_json([[{"kind": "Nope"}, 1], [_TWO_PI_I]])


# ---------------------------------------------------------------------------
# a version-2 file replayed on its index tables, against the oracle that
# decodes every side first and against the stdlib reader tests/dbcheck.py

# atom records that decode to one atom more than once: I, whose exponent is
# taken mod 2, a point in two spellings, and a BW atom listed twice
_TABLE_ATOMS = [{"kind": "I", "payload": []}, {"kind": "I"},
                {"kind": "TwoPiI", "payload": []},
                {"kind": "ArchZ", "payload": ["1/2", "P"]},
                {"kind": "ArchZ", "payload": ["2/4", "P"]},
                {"kind": "BW", "payload": ["P", 1]},
                {"kind": "BW", "payload": ["P", 1]}]
# values a file may not hold where an index, exponent, name, citation or
# side belongs
_NOT_ALLOWED = [True, 1.0, -1, 99, "0", "", None, [0], [[0, 1, 1]], {}]


@st.composite
def index_files(draw):
    """(file data, script) of a hand-written version-2 file: a table that
    lists atoms more than once, pairs with zero exponents, names repeated
    with an equal body or another one, records that the script does not
    name, and now and then one field given a value the file may not hold."""
    atoms = draw(st.lists(st.sampled_from(_TABLE_ATOMS), min_size=1,
                          max_size=6))
    citations = draw(st.lists(st.sampled_from(["c", "d"]), min_size=1,
                              max_size=2))
    side = st.lists(st.tuples(st.integers(0, len(atoms) - 1),
                              st.integers(-2, 2)).map(list), max_size=4)
    relations = draw(st.lists(st.fixed_dictionaries({
        "name": st.sampled_from("rstu"),
        "citation": st.integers(0, len(citations) - 1),
        "lhs": side, "rhs": side}), max_size=5))
    for rel in draw(st.lists(st.sampled_from(relations), max_size=2)
                    if relations else st.just([])):
        # the same body again, its pairs reversed and a zero pair added
        copy = dict(rel, lhs=rel["lhs"][::-1] + [[0, 0]])
        relations.insert(draw(st.integers(0, len(relations))), copy)
    if relations and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(relations) - 1))
        rel = relations[k] = json.loads(json.dumps(relations[k]))
        fields = ([(citations, j) for j in range(len(citations))]
                  + [(rel, key) for key in rel]
                  + [(rel[key], j) for key in ("lhs", "rhs")
                     for j in range(len(rel[key]))]
                  + [(pair, j) for key in ("lhs", "rhs")
                     for pair in rel[key] for j in (0, 1)])
        node, key = draw(st.sampled_from(fields))
        node[key] = draw(st.sampled_from(_NOT_ALLOWED))
    script = draw(st.lists(st.fixed_dictionaries({
        "relation": st.sampled_from("rstuv"),
        "exponent": st.integers(-2, 2)}), max_size=6))
    return ({"atoms": atoms, "citations": citations, "relations": relations,
             "version": 2}, script)


def _replayed(load, check, path, script):
    """The residual of script against the file at path, or the error that
    the CLI prints as its one schema-error line."""
    try:
        return repr(check(load(path), script))
    except (KeyError, ValueError) as exc:
        return type(exc).__name__, exc.args[0]


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# two I entries whose exponents cancel only once they are merged and taken
# mod 2: within one side, and across two steps
@example(({"atoms": [{"kind": "I"}, {"kind": "I"}, {"kind": "TwoPiI"}],
           "citations": ["c"], "version": 2,
           "relations": [{"name": "r", "citation": 0,
                          "lhs": [[0, 1], [1, 1], [2, 0]], "rhs": [[2, 1]]},
                         {"name": "s", "citation": 0, "lhs": [[1, 3]],
                          "rhs": []},
                         {"name": "t", "citation": 0, "lhs": [[0, 1]],
                          "rhs": [[2, 1]]}]},
          [{"relation": "s", "exponent": 1},
           {"relation": "t", "exponent": 1},
           {"relation": "r", "exponent": -1}]))
@settings(max_examples=300, deadline=None)
@given(index_files())
def test_a_version_2_file_replays_on_its_index_tables_as_the_oracle(case):
    data, script = case
    text = json.dumps(data)
    new = written_step("new", "c", atom_power(ATOM_TWO_PI_I, 2),
                       atom_power(ATOM_I))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got = _replayed(formal.RelationDB.load, formal.check_script, path,
                        script)
        assert got == _replayed(oracles.load_db, oracles.check_script, path,
                                script)
        try:
            want = dbcheck.check(text, json.dumps(script))
        except ValueError:
            want = None
        assert (got if type(got) is str else None) == want
        try:
            ref = oracles.load_db(path)
        except ValueError:
            return
        db = formal.RelationDB.load(path)
        assert db.names() == sorted(ref)
        assert all((name, db._body(name), 1) == step
                   for name, step in ref.items())
        # a body held after load: a new name beside the kept records, an
        # equal body accepted and another one refused
        _register(db, [new])
        for step in list(ref.values())[:1]:
            _register(db, [step])
            with pytest.raises(ValueError, match="already present"):
                _register(db, [_times_i(step)])
        ref["new"] = new
        steps = script + [{"relation": "new", "exponent": 3}]
        assert (_replayed(lambda _: db, formal.check_script, path, steps)
                == _replayed(lambda _: ref, oracles.check_script, path,
                             steps))
        # save of a loaded DB writes what a DB of the decoded relations does
        formal.RelationDB.load(path).save(path)
        saved = _read(path)
        built = formal.RelationDB()
        _register(built, [s for name, s in ref.items() if name != "new"])
        built.save(path)
        assert saved == _read(path)


@st.composite
def kept_files(draw):
    """A version-2 file whose records load keeps: each side's pairs drawn
    over a table that lists atoms more than once, with zero exponents and
    powers of I, so that a decoding adds repeats up, drops zeros and takes
    I mod 2."""
    atoms = draw(st.lists(st.sampled_from(_TABLE_ATOMS), min_size=1,
                          max_size=6))
    side = st.lists(st.tuples(st.integers(0, len(atoms) - 1),
                              st.integers(-2, 2)).map(list), max_size=4)
    names = draw(st.lists(st.sampled_from("rstuvw"), unique=True,
                          max_size=5))
    return {"atoms": atoms, "citations": ["c", "d"], "version": 2,
            "relations": [{"name": name, "citation": draw(st.integers(0, 1)),
                           "lhs": draw(side), "rhs": draw(side)}
                          for name in names]}


@example({"atoms": [{"kind": "I"}, {"kind": "BW", "payload": ["P", 1]},
                    {"kind": "BW", "payload": ["P", 1]}],
          "citations": ["c", "d"], "version": 2,
          "relations": [{"name": "r", "citation": 0, "lhs": [[0, 2]],
                         "rhs": [[1, 1], [2, 1]]},
                        {"name": "s", "citation": 1, "lhs": [[1, 0]],
                         "rhs": [[0, 1], [2, -1]]}]})
@settings(max_examples=200, deadline=None)
@given(kept_files())
def test_saving_a_loaded_db_decodes_every_kept_side_in_order(data):
    # period_from_json decodes each side of each kept record, lhs then rhs
    # in name order, and the bytes are those of a DB of the checked decodings
    table = [atom_from_json(a) for a in data["atoms"]]
    decoded = []

    def counting(pairs, atoms=None):
        decoded.append(pairs)
        return period_from_json(pairs, atoms)

    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        loaded = formal.RelationDB.load(path)
        formal.period_from_json = counting
        try:
            loaded.save(path)
        finally:
            formal.period_from_json = period_from_json
        saved = _read(path)
        built = formal.RelationDB()
        _register(built, [relation_from_json(r, table, data["citations"])
                          for r in data["relations"]])
        built.save(path)
        assert saved == _read(path)
    assert decoded == [r[key] for r in sorted(data["relations"],
                                              key=itemgetter("name"))
                       for key in ("lhs", "rhs")]


def test_a_loaded_version_2_file_replays_without_decoding_a_side(
        tmp_path, monkeypatch):
    res = pa.check_motivic_dual(16, corrupt=True)
    _, path = _saved(tmp_path, res)

    def decode(*args):
        raise AssertionError("a side was decoded")

    built = []
    wrap = FormalPeriod._of_exp.__func__
    monkeypatch.setattr(formal, "period_from_json", decode)
    monkeypatch.setattr(FormalPeriod, "_of_exp", classmethod(
        lambda cls, exp: built.append(exp) or wrap(cls, exp)))
    residual = formal.check_script(formal.RelationDB.load(str(path)),
                                   res.to_script())
    assert residual == res.residual and len(built) == 1


def _golden_replays():
    """(DB text, script) of each golden `check --db F --script S` request,
    of each malformed --db file, and of the hand-written version-2 files of
    tests/smoke.py: a table that lists I twice, whose exponents cancel once
    merged and taken mod 2, and a name repeated with another body."""
    golden = make_cli_corpus.records()
    for _, text, script in make_cli_corpus.db_replays(golden):
        yield text, script
    for text in MALFORMED_DB.values():
        yield text, '[{"relation": "r", "exponent": 1}]'
    for name in ("twice_i.json", "two_bodies.json"):
        yield smoke.FILES[name], smoke.STEP_R


def test_every_golden_and_malformed_db_file_replays_as_the_oracle(tmp_path):
    path = str(tmp_path / "relations.json")
    for text, script in _golden_replays():
        (tmp_path / "relations.json").write_text(text)
        try:
            script = json.loads(script)
        except ValueError:  # the CLI rejects it before it reads the file
            continue
        assert (_replayed(formal.RelationDB.load, formal.check_script, path,
                          script)
                == _replayed(oracles.load_db, oracles.check_script, path,
                             script)), text[:200]


@settings(max_examples=200, deadline=None)
@given(any_atoms)
def test_each_constructed_atom_round_trips_through_the_db(atom):
    _save_text([written_step("r", "c", atom_power(atom, 3), FormalPeriod())])
    assert period_from_json([[atom_to_json(atom), 1]]).atoms() == [atom]


@pytest.mark.parametrize("kind, payload", [
    ("BW", ("Pi", True)), ("DC", ("M", -1.0)), ("DCi", ("M", 2.7)),
    ("DCi", ("M", True)), ("Delta", (7,)), ("Gauss", (b"chi",)),
    ("ArchZ", ("1/2", 3)), ("LVal", (1, None))])
def test_atom_constructors_reject_payloads_the_db_cannot_load(kind, payload):
    with pytest.raises(TypeError, match="^bad [A-Za-z]+ payload: "):
        PeriodAtom(kind, payload)


KINDS = ["BW", "Gauss", "ArchZ", "LVal", "Delta", "DC", "DCi", "TwoPiI", "I"]
payload_entries = st.one_of(
    st.sampled_from([True, False, 1.0, -1.0, 2, 1, -1, 0, "", "M", "2/4",
                     "1/2", "x", None, [], {}]),
    st.integers(), st.text(max_size=3))
records = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(KINDS + ["Nope"]),
                           "payload": st.lists(payload_entries, max_size=3)}),
    st.fixed_dictionaries({"kind": st.sampled_from(KINDS + [["BW"]]),
                           "payload": payload_entries}),
    st.fixed_dictionaries({"kind": st.sampled_from(KINDS)}))


@pytest.mark.parametrize("kind, payload, message", [
    ("BW", ("P", 5), "BW sign must be +1 or -1"),
    ("DC", ("M", 0), "DC sign must be +1 or -1"),
    ("Gauss", ("",), "empty character label"),
    ("LVal", ("1/0", "P"), "not a fraction p/q: '1/0'"),
    ("BW", ("P",), "BW atom needs 2 payload entries, got 1"),
    ("Nope", (), "unknown atom kind: 'Nope'")])
def test_period_atom_checks_every_rule_of_its_kind(kind, payload, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PeriodAtom(kind, payload)


def test_period_atom_keeps_a_point_as_canonical_text():
    assert (PeriodAtom("ArchZ", ("2/4", "P"))
            == PeriodAtom("ArchZ", ("1/2", "P")))
    assert PeriodAtom("LVal", (Fraction(6, 4), "P")).payload == ("3/2", "P")
    assert PeriodAtom("ArchZ", (-2, "P")).payload == ("-2", "P")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KINDS),
                          st.lists(payload_entries, max_size=2),
                          st.integers(-3, 3)), max_size=6),
       st.integers(-2, 2))
@example([("ArchZ", ["2/4", "P"], 1), ("ArchZ", ["1/2", "P"], -1)], 1)
@example([("BW", ["P", 5], 1), ("Gauss", [""], 2)], 1)
def test_any_period_atom_replays_alike_in_memory_and_from_the_db(drawn, k):
    """Atoms drawn through PeriodAtom itself, bad ones left out: a relation
    of them replays to the same residual before and after save + load."""
    pairs = []
    for kind, payload, e in drawn:
        try:
            pairs.append((PeriodAtom(kind, tuple(payload)), e))
        except (TypeError, ValueError):
            continue
    steps = [written_step("r", "c", FormalPeriod(pairs[::2]),
                          FormalPeriod(pairs[1::2]), k)]
    res = formal.derived(steps)
    assert res.residual == formal.replay(steps)
    db = formal.RelationDB()
    res.register(db)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "relations.json")
        db.save(path)
        loaded = formal.RelationDB.load(path)
    assert formal.check_script(loaded, res.to_script()) == res.residual


def _outcome(decode, data):
    try:
        atom = decode(data)
    except Exception as exc:  # the type and text of the error must agree
        return type(exc), str(exc)
    return atom, tuple(map(type, atom.payload)), type(atom)


@settings(max_examples=500, deadline=None)
@given(records)
@example({"kind": "BW", "payload": ["Pi", True]})
@example({"kind": "DC", "payload": ["M", 1.0]})
@example({"kind": "DCi", "payload": ["M"]})
@example({"kind": "Nope", "payload": []})
@example({"kind": "DC", "payload": ["M", 2]})
@example({"kind": "Gauss", "payload": [""]})
@example({"kind": "Delta", "payload": [""]})
@example({"kind": "ArchZ", "payload": ["2/4", "P"]})
@example({"kind": "DCi", "payload": ["M", -3]})
@example({"kind": "I"})
def test_the_decoder_matches_the_checked_path(data):
    assert _outcome(atom_from_json, data) == _outcome(oracles.atom_from_json,
                                                     data)
    assert (_outcome(lambda d: period_from_json([[d, 1]]).atoms()[0], data)
            == _outcome(oracles.atom_from_json, data))


def test_script_rejects_bindings():
    db = formal.RelationDB()
    _register(db, [QUAD])
    with pytest.raises(ValueError):
        formal.check_script(db, [{"relation": QUAD[0],
                                  "bindings": {"x": 1}}])


def test_relation_serialization_round_trip():
    step = name, (citation, lhs, rhs), _ = oracles.rel_main1(PI4, -1)
    atoms, citations = {}, {}
    text = relation_to_json(name, (citation, lhs, rhs), atoms, citations)
    assert list(citations) == [citation]
    assert list(atoms) == [*lhs, *rhs]
    assert (relation_from_json(json.loads(text), list(atoms), list(citations))
            == step)


def test_duplicate_relation_names_need_replace():
    db = formal.RelationDB()
    _register(db, [QUAD])
    _register(db, [oracles.rel_quadratic(gauss_fp({"chi": 1}))])  # identical
    other = written_step(QUAD[0], "different", FormalPeriod(),
                         gauss_fp({"chi": 1}))
    with pytest.raises(ValueError):
        _register(db, [other])
