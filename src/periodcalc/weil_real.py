"""Exact calculus of semisimple representations of the real Weil group.

A representation is a multiset of irreducible constituents: one-dimensional
characters sgn^d |.|^t and two-dimensional parameters phi_k (x) |.|^t with
k >= 2.  phi_1 is reducible and is always rewritten to 1 + sgn, so multiset
equality of canonical forms is decidable syntactically.

All twists are exact rationals (fractions.Fraction); there is no floating
point anywhere.  Every value is immutable and every operation is pure.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction


_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and strings p or p/q (q nonzero, as
    str(Fraction) writes them) to an exact Fraction; a string with a decimal
    point, exponent, blank or '+' is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _FRACTION.fullmatch(x):
        raise ValueError(f"not a fraction p/q: {x!r}")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class ArchCharacter(namedtuple("ArchCharacter", "sign_parity twist")):
    """The character sgn^sign_parity |.|^twist of R^x (= W_R abelianized)."""

    __slots__ = ()

    def __new__(cls, sign_parity: int, twist):
        if sign_parity not in (0, 1):
            raise ValueError("sign_parity must be 0 or 1")
        return tuple.__new__(cls, (sign_parity, as_fraction(twist)))

    def __repr__(self):
        sgn = "sgn" if self.sign_parity else "1"
        return f"{sgn}|.|^{self.twist}"


class ArchDiscrete(namedtuple("ArchDiscrete", "kappa twist")):
    """The irreducible two-dimensional parameter phi_kappa (x) |.|^twist."""

    __slots__ = ()

    def __new__(cls, kappa: int, twist):
        if not isinstance(kappa, int) or kappa < 2:
            raise ValueError("kappa must be an integer >= 2 in canonical form")
        return tuple.__new__(cls, (kappa, as_fraction(twist)))

    def __repr__(self):
        return f"phi_{self.kappa}|.|^{self.twist}"


# Constituent, in annotations only: an ArchCharacter or an ArchDiscrete


def _sort_key(c: Constituent):
    # characters before discretes; chars by (twist, parity), discs by (twist, kappa)
    if isinstance(c, ArchCharacter):
        return (0, c.twist, c.sign_parity)
    return (1, c.twist, c.kappa)


class ArchRep(namedtuple("ArchRep", "constituents")):
    """A finite multiset of constituents in canonical sorted order.

    The empty multiset (zero representation) is legal; it arises as the
    exterior square of a character.  Iterating yields the constituents.
    """

    __slots__ = ()

    def __new__(cls, constituents):
        norm = tuple(constituents)
        for c in norm:
            if not isinstance(c, (ArchCharacter, ArchDiscrete)):
                raise TypeError(f"not a constituent: {c!r}")
        return tuple.__new__(cls, (tuple(sorted(norm, key=_sort_key)),))

    def __iter__(self):
        return iter(self.constituents)

    def __getnewargs__(self):  # for copy and pickle: tuple's own iterates
        return (self.constituents,)

    def __repr__(self):
        if not self.constituents:
            return "0"
        return " + ".join(repr(c) for c in self.constituents)


def char(sign_parity: int, twist=0) -> ArchCharacter:
    return ArchCharacter(sign_parity, as_fraction(twist))


def disc(kappa: int, twist=0) -> Constituent:
    """phi_kappa (x) |.|^twist; kappa=1 is not constructible directly."""
    return ArchDiscrete(kappa, as_fraction(twist))


def rep(*constituents: Constituent) -> ArchRep:
    """Build the canonical representation with the given constituents."""
    return ArchRep(tuple(constituents))


def _expand_disc(kappa: int, twist: Fraction) -> list:
    """Constituents of phi_kappa (x) |.|^t, reducing phi_1 to 1 + sgn."""
    if kappa == 1:
        return [ArchCharacter(0, twist), ArchCharacter(1, twist)]
    return [ArchDiscrete(kappa, twist)]


def _tensor_pair(x: Constituent, y: Constituent) -> list:
    if isinstance(x, ArchCharacter) and isinstance(y, ArchCharacter):
        return [ArchCharacter((x.sign_parity + y.sign_parity) % 2, x.twist + y.twist)]
    if isinstance(x, ArchCharacter):
        x, y = y, x
    if isinstance(y, ArchCharacter):
        # sgn is absorbed by phi_kappa
        return [ArchDiscrete(x.kappa, x.twist + y.twist)]
    t = x.twist + y.twist
    out = _expand_disc(x.kappa + y.kappa - 1, t)
    out += _expand_disc(abs(x.kappa - y.kappa) + 1, t)
    return out


def tensor(a: ArchRep, b: ArchRep) -> ArchRep:
    out = []
    for x in a:
        for y in b:
            out.extend(_tensor_pair(x, y))
    return ArchRep(tuple(out))


def _sym2_single(x: Constituent) -> list:
    if isinstance(x, ArchCharacter):
        return [ArchCharacter(0, 2 * x.twist)]
    return [ArchDiscrete(2 * x.kappa - 1, 2 * x.twist),
            ArchCharacter((x.kappa - 1) % 2, 2 * x.twist)]


def _wedge2_single(x: Constituent) -> list:
    if isinstance(x, ArchCharacter):
        return []
    return [ArchCharacter(x.kappa % 2, 2 * x.twist)]


def _square_expand(a: ArchRep, diagonal) -> ArchRep:
    cs = a.constituents
    out = []
    for i, x in enumerate(cs):
        out.extend(diagonal(x))
        for y in cs[i + 1:]:
            out.extend(_tensor_pair(x, y))
    return ArchRep(tuple(out))


def sym2(a: ArchRep) -> ArchRep:
    return _square_expand(a, _sym2_single)


def wedge2(a: ArchRep) -> ArchRep:
    return _square_expand(a, _wedge2_single)


def dual(a: ArchRep) -> ArchRep:
    out = []
    for c in a:
        if isinstance(c, ArchCharacter):
            out.append(ArchCharacter(c.sign_parity, -c.twist))
        else:
            out.append(ArchDiscrete(c.kappa, -c.twist))
    return ArchRep(tuple(out))
