"""Tests for the formal period group, relation constructors and replays."""

import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodcalc import formal, weil_real
from periodcalc import period_algebra as pa
from periodcalc.formal import (ATOM_I, FormalPeriod, atom_bw, atom_from_json,
                               atom_gauss, atom_lval, gauss_fp,
                               period_from_json, period_to_json,
                               relation_from_json, relation_to_json)
from periodcalc.infinity_types import InfinityType

atoms = st.one_of(
    st.builds(atom_bw, st.sampled_from(["Pi", "Sigma"]),
              st.sampled_from([1, -1])),
    st.builds(atom_gauss, st.sampled_from(["chi", "omega"])),
    st.just(ATOM_I),
)
periods = st.lists(st.tuples(atoms, st.integers(-3, 3)),
                   min_size=0, max_size=5).map(lambda ps: FormalPeriod.of(*ps))


# ---------------------------------------------------------------------------
# group laws

def test_i_squared_is_trivial():
    assert (FormalPeriod.atom(ATOM_I) * FormalPeriod.atom(ATOM_I)).is_trivial


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
    assert period_from_json(period_to_json(p)) == p


def test_offending_atom_names_a_residual_atom():
    p = FormalPeriod.of((atom_gauss("chi"), 2), (atom_bw("Pi", 1), -1))
    assert p.offending_atom() in ("Gauss(chi)", "BW(Pi,+)")
    assert FormalPeriod.unit().offending_atom() is None


# ---------------------------------------------------------------------------
# relation constructors

PI4 = pa.GlobalRep("Pi", InfinityType(4, (21, 11), 1), {"omega_Pi": 1})
SIG3 = pa.GlobalRep("Sigma", InfinityType(3, (15,), 0), {"omega_Sigma": 1})


def test_raghuram_signs_flip_between_adjacent_m():
    e0 = pa.raghuram_signs(0, PI4, SIG3)
    e1 = pa.raghuram_signs(1, PI4, SIG3)
    assert e0[1] == e1[1]                    # fixed sign (n even)
    assert e0[0] == -e1[0]                   # free sign flips


def test_rel_raghuram_requires_critical_and_balanced():
    with pytest.raises(ValueError):
        pa.rel_raghuram(50, PI4, SIG3)       # far outside the critical range
    unbal = pa.GlobalRep("S", InfinityType(3, (31,), 0), {"omega_Sigma": 1})
    with pytest.raises(ValueError):
        pa.rel_raghuram(0, PI4, unbal)


def test_rel_duality_ratio_i_parity_matches_epsilon_class():
    rel = pa.rel_duality_ratio(Fraction(1, 2), PI4, SIG3)
    w, delta, n = PI4.inf.w, SIG3.inf.w, PI4.inf.n
    expected = ((w + delta) * n * (n - 1) // 2) % 2
    assert rel.rhs.i_parity == expected


def test_rel_arch_iparity_identity_and_central_rejection():
    rel = pa.rel_arch_iparity(0, 0, PI4, SIG3)
    assert formal.replay([(rel, 1)]).is_trivial
    center = Fraction(-PI4.inf.w - SIG3.inf.w, 2)
    with pytest.raises(ValueError):
        pa.rel_arch_iparity(center, 0, PI4, SIG3)


def test_rel_twist_zero_is_identity():
    rel = pa.rel_twist(0, PI4, SIG3, 0, 0,
                       twisted_label=pa.pair_label(PI4, SIG3))
    assert formal.replay([(rel, 1)]).is_trivial


def test_rel_rs_twist_rejects_odd_rank():
    pi3 = pa.GlobalRep("P", InfinityType(3, (15,), 0), {"omega": 1})
    with pytest.raises(ValueError):
        pa.rel_rs_twist(pi3, {"chi": 1}, 0, 0, 1, twisted_label="P(x)chi")


def test_rel_rs_twist_trivial_character_is_identity():
    rel = pa.rel_rs_twist(PI4, {}, 0, 0, 1, twisted_label="Pi")
    assert formal.replay([(rel, 1)]).is_trivial


def test_rel_rs_twist_sign_flip():
    rel = pa.rel_rs_twist(PI4, {"chi": -1}, 1, 0, 1, twisted_label="Pi^v")
    assert rel.rhs.exponent(atom_bw("Pi", -1)) == 1
    assert rel.rhs.exponent(atom_gauss("chi")) == -2 * 3  # (n/2)(n-1) = 6


def test_rel_main1_rank_one_trivial_gauss():
    pi1 = pa.GlobalRep("P", InfinityType(1, (), 0), {"omega": 1})
    rel = pa.rel_main1(pi1, 1)
    assert rel.rhs.exponent(atom_gauss("omega")) == 0


def test_rel_main1_warns_on_irregular():
    pi = pa.GlobalRep("P", InfinityType(4, (6, 4), 0), {"omega": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pa.rel_main1(pi, 1)
    assert any("regularity" in str(w.message) for w in caught)


def test_gauss_pair_and_quadratic_relations():
    assert formal.replay([(pa.rel_gauss_pair("chi"), 1)]).is_trivial
    rel = pa.rel_quadratic({"chi": 1, "omega": -1})
    assert rel.lhs == gauss_fp({"chi": 2, "omega": -2})


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
    with pytest.raises(ValueError):
        pa.check_main1_step(4, 0, 0, 0)      # central point
    with pytest.raises(ValueError):
        pa.check_main1_step(4, 0, 0, Fraction(1, 2))


def test_main1_step_negative_control():
    res = pa.check_main1_step(6, 0, 0, 1, corrupt=True)
    assert not res.is_ok
    assert res.offending_atom() == "Gauss(omega_Pi)"


def test_main1_step_at_rank_255_is_fast_and_builds_no_tensor(monkeypatch):
    def refuse(a, b):
        raise AssertionError("the tensor parameter was built")

    monkeypatch.setattr(weil_real, "tensor", refuse)
    pa._critical_set.cache_clear()  # as cold as in a fresh process
    start = time.monotonic()
    assert pa.check_main1_step(255, 0, 1, 1).is_ok
    assert time.monotonic() - start < 0.5


def test_corollary_branches():
    assert pa.check_corollary_main(2).is_ok
    assert not pa.check_corollary_main(2, orthogonal=False).is_ok
    assert pa.check_corollary_main(2, chi_expr={"omega_Pi": 1}).is_ok
    assert not pa.check_corollary_main(2, corrupt=True).is_ok


def test_main2_even_nprime_is_identity():
    res = pa.check_theorem_main2(3, 2)
    assert res.is_ok and res.i_parity == 0 and not res.relations


def test_main2_i_parity_and_toggle():
    res = pa.check_theorem_main2(3, 3)
    assert res.is_ok and res.i_parity == 1
    res = pa.check_theorem_main2(3, 3, include_i_power=False)
    assert res.is_ok and res.i_parity == 0
    assert pa.check_theorem_main2(3, 3, eps_num=-1).is_ok
    assert not pa.check_theorem_main2(3, 3, corrupt=True).is_ok


def test_motivic_dual_per_index():
    assert pa.check_motivic_dual(6).is_ok
    for idx in (1, 2):
        assert pa.check_motivic_dual(6, i=idx).is_ok
    assert not pa.check_motivic_dual(6, corrupt=True).is_ok
    with pytest.raises(ValueError):
        pa.check_motivic_dual(6, i=3)


# ---------------------------------------------------------------------------
# relation database and script replay

def test_relation_db_round_trip_and_script(tmp_path):
    res = pa.check_corollary_main(2)
    db = pa.RelationDB()
    res.register(db)
    path = tmp_path / "relations.json"
    db.save(str(path))
    loaded = pa.RelationDB.load(str(path))
    assert loaded.names() == db.names()
    residual = pa.check_script(loaded, res.to_script())
    assert residual.is_trivial


def test_failed_save_leaves_the_db_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "relations.json"
    db = pa.RelationDB()
    pa.check_corollary_main(2).register(db)
    db.save(str(path))
    before = path.read_bytes()

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"relations": [')
        raise OSError("disk full")

    monkeypatch.setattr(formal.json, "dump", failing_dump)
    with pytest.raises(OSError):
        db.save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["relations.json"]


def test_script_detects_corruption(tmp_path):
    res = pa.check_corollary_main(2)
    db = pa.RelationDB()
    res.register(db)
    script = res.to_script()
    script[0]["exponent"] += 1
    assert not pa.check_script(db, script).is_trivial


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
        db = pa.RelationDB()
        res.register(db)
        db.save(path)
        replayed = pa.check_script(pa.RelationDB.load(path), res.to_script())
        assert replayed == res.residual, n


def test_register_rejects_a_name_collision():
    rel = pa.rel_gauss_pair("chi")
    other = pa.Relation(rel.name, "different", FormalPeriod.unit(),
                        gauss_fp({"chi": 1}))
    res = pa.CheckResult(FormalPeriod.unit(), ((rel, 1), (other, 1)))
    with pytest.raises(ValueError):
        res.register(pa.RelationDB())


@pytest.mark.parametrize("data", [{"kind": "BW", "payload": ["Pi"]},
                                  {"kind": "DCi", "payload": ["M", "x"]},
                                  {"kind": "Nope", "payload": []}])
def test_atom_from_json_rejects_bad_payloads(data):
    with pytest.raises(ValueError):
        atom_from_json(data)


def test_script_rejects_bindings():
    db = pa.RelationDB()
    db.add(pa.rel_gauss_pair("chi"))
    with pytest.raises(ValueError):
        pa.check_script(db, [{"relation": "gauss-pair[chi]",
                              "bindings": {"x": 1}}])


def test_relation_serialization_round_trip():
    rel = pa.rel_main1(PI4, -1)
    assert relation_from_json(relation_to_json(rel)) == rel


def test_duplicate_relation_names_need_replace():
    db = pa.RelationDB()
    db.add(pa.rel_gauss_pair("chi"))
    db.add(pa.rel_gauss_pair("chi"))  # identical: fine
    other = pa.Relation("gauss-pair[chi]", "different", FormalPeriod.unit(),
                        gauss_fp({"chi": 1}))
    with pytest.raises(ValueError):
        db.add(other)
