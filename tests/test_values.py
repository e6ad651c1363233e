"""The value types are namedtuple subclasses checked in __new__: each stays
immutable and hashable, equal builds are equal and hash alike, and reprs
keep the Name(field=value, ...) form."""

import copy
import pickle
from fractions import Fraction

import pytest

from periodcalc import arch_l, formal, period_algebra, weil_real, yoshida
from periodcalc.infinity_types import DominantWeight, InfinityType
from tests import oracles
from tests.oracles import rep


def _omega():
    return formal.gauss_fp({"omega_Pi": 1})


# class -> a function that builds one value of it, afresh on each call
BUILDS = {
    weil_real.ArchCharacter: lambda: weil_real.char(1, "1/2"),
    weil_real.ArchDiscrete: lambda: weil_real.disc(5, Fraction(-3, 2)),
    weil_real.ArchRep: lambda: rep(weil_real.disc(3, 1),
                                             weil_real.char(0, 1)),
    DominantWeight: lambda: DominantWeight((3, 1, 1)),
    InfinityType: lambda: InfinityType(3, [7], 2, 1),
    arch_l.CriticalSet: lambda: arch_l.critical_set(
        InfinityType(2, (4,), 0), InfinityType(1, (), 0)),
    formal.Relation: lambda: formal.Relation(
        "r", "c", _omega(), formal.FormalPeriod.of((formal.ATOM_I, 1))),
    oracles.AdmissibleTypeTag: lambda: oracles.monomial_type(oracles.f_bw(5)),
    yoshida.FundamentalMonomial: lambda: oracles.f_bw(6, eps=1),
    yoshida.MotiveShape: lambda: yoshida.MotiveShape(
        "M", 4, 0, [9, 5], 2, 2),
    oracles.GlobalRep: lambda: oracles.GlobalRep(
        "Pi", InfinityType(2, (4,), 0), _omega()),
    period_algebra.CheckResult: lambda: period_algebra.check_main1_step(
        4, 0, 0, 1),
}


@pytest.mark.parametrize("cls", BUILDS, ids=lambda cls: cls.__name__)
def test_values_are_immutable_and_hash_alike(cls):
    a, b = BUILDS[cls](), BUILDS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert a == b


@pytest.mark.parametrize("cls", BUILDS, ids=lambda cls: cls.__name__)
def test_values_copy_and_pickle(cls):
    a = BUILDS[cls]()
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_reprs_keep_the_field_form():
    assert (repr(InfinityType(2, (4,), 0))
            == "InfinityType(n=2, kappa=(4,), w=0, sign_choice=0)")
    assert (repr(BUILDS[arch_l.CriticalSet]())
            == "CriticalSet(offset=Fraction(3, 2), lo=(-2, -2), hi=(0, 0))")
    assert repr(BUILDS[weil_real.ArchRep]()) == "1|.|^1 + phi_3|.|^1"


def test_normalisation_in_new():
    t = InfinityType(3, [7], 2, 1)
    assert t.kappa == (7,) and isinstance(t.kappa, tuple)
    assert weil_real.char(0, "1/2").twist == Fraction(1, 2)
    assert DominantWeight([3, 1]).entries == (3, 1)
    assert yoshida.FundamentalMonomial(6, 3, 3, mi=[2, 1]).mi == (2, 1)
    a = rep(weil_real.disc(3, 1), weil_real.char(1, 0))
    assert list(a) == [weil_real.char(1, 0), weil_real.disc(3, 1)]
    with pytest.raises(ValueError, match="sign_choice must be 0 or 1"):
        InfinityType(3, (7,), 2, 2)
    with pytest.raises(TypeError, match="not a constituent"):
        rep((0, 1))


# an int field of a public value constructor given a float or a bool, as
# InfinityType.from_json and MotiveShape.from_json reject them
@pytest.mark.parametrize("build", [
    lambda: InfinityType(2, (4.9,), 0), lambda: InfinityType(2, (4,), 0.0),
    lambda: InfinityType(2.0, (4,), 0), lambda: InfinityType(3, (5,), 0, True),
    lambda: DominantWeight((2.5, 1)), lambda: DominantWeight((1, False)),
    lambda: yoshida.MotiveShape("M", 2, 0, (5.5,), 1, 1),
    lambda: yoshida.MotiveShape("M", 2.0, 0, (5,), 1, 1),
    lambda: yoshida.MotiveShape("M", 2, 0.0, (5,), 1, 1),
    lambda: yoshida.MotiveShape("M", 2, 0, (5,), 1.0, 1),
    lambda: yoshida.MotiveShape("M", 2, 0, (5,), 1, True),
    lambda: yoshida.FundamentalMonomial(2, 1, 1, mplus=1.9),
    lambda: yoshida.FundamentalMonomial(2.0, 1, 1),
    lambda: yoshida.FundamentalMonomial(2, True, 1),
    lambda: yoshida.FundamentalMonomial(2, 1, 1.0),
    lambda: yoshida.FundamentalMonomial(2, 1, 1, m0=1.0),
    lambda: yoshida.FundamentalMonomial(2, 1, 1, mminus=False),
    lambda: yoshida.FundamentalMonomial(6, 3, 3, mi=[True, 1])],
    ids=["kappa", "w", "n", "sign", "weight-float", "weight-bool",
         "motive-kappa", "motive-n", "motive-weight", "dplus", "dminus",
         "monomial-mplus", "monomial-n", "monomial-dplus", "monomial-dminus",
         "monomial-m0", "monomial-mminus", "monomial-mi"])
def test_an_int_field_given_a_float_or_a_bool_is_a_type_error(build):
    with pytest.raises(TypeError, match="^expected an integer, got "):
        build()


def test_a_motive_label_that_is_not_a_string_is_a_type_error():
    with pytest.raises(TypeError, match="^expected a string, got 7$"):
        yoshida.MotiveShape(7, 2, 0, (5,), 1, 1)

