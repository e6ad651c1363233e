"""Pure dominant weights, infinity types, and the bijection between them.

An infinity type (kappa_1 > ... > kappa_r >= 2; w) classifies the archimedean
component of a regular algebraic cuspidal representation of GL(n).  For odd n
the pair (kappa; w) does not separate the representation from its sgn-twist,
so a sign_choice bit is part of the type; for even n it is always 0.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction


class DominantWeight(namedtuple("DominantWeight", "entries")):
    __slots__ = ()

    def __new__(cls, entries: tuple):
        e = tuple(map(json_int, entries))
        if not e:
            raise ValueError("rank must be positive")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValueError("weight must be weakly decreasing")
        return tuple.__new__(cls, (e,))

    @property
    def n(self) -> int:
        return len(self.entries)


class InfinityType(namedtuple("InfinityType", "n kappa w sign_choice")):
    __slots__ = ()

    def __new__(cls, n: int, kappa: tuple, w: int, sign_choice: int = 0):
        kappa, w = checked_kappa(n, kappa), json_int(w)
        if n % 2 == 0:
            if any((k - w) % 2 for k in kappa):
                raise ValueError("kappa_i must have the parity of w for even rank")
        else:
            if w % 2:
                raise ValueError("w must be even for odd rank")
            if any(k % 2 == 0 for k in kappa):
                raise ValueError("kappa_i must be odd for odd rank")
        if json_int(sign_choice) not in (0, 1):
            raise ValueError("sign_choice must be 0 or 1")
        # phi_k (x) sgn = phi_k, so at even rank the bit names nothing
        return tuple.__new__(cls, (n, kappa, w, sign_choice if n % 2 else 0))

    @property
    def r(self) -> int:
        return self.n // 2

    def to_json(self) -> dict:
        return {"n": self.n, "kappa": list(self.kappa), "w": self.w,
                "sign": self.sign_choice}

    @classmethod
    def from_json(cls, data: dict) -> "InfinityType":
        return cls(json_int(data["n"]),
                   tuple(map(json_int, json_list(data["kappa"]))),
                   json_int(data["w"]), json_int(data.get("sign", 0)))


def checked_kappa(n: int, kappa) -> tuple:
    """kappa as a tuple of ints, checked against the rules that infinity
    types and motive shapes share: a positive rank n, floor(n/2) entries,
    strictly decreasing, each >= 2."""
    kappa = tuple(map(json_int, kappa))
    if json_int(n) < 1:
        raise ValueError("rank must be positive")
    r = n // 2
    if len(kappa) != r:
        noun = "entry" if r == 1 else "entries"
        raise ValueError(f"kappa must have {r} {noun} for rank {n}")
    if any(kappa[i] <= kappa[i + 1] for i in range(r - 1)):
        raise ValueError("kappa must be strictly decreasing")
    if r and kappa[-1] < 2:
        raise ValueError("kappa entries must be >= 2")
    return kappa


_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def as_fraction(x):
    """An exact point: an int (not a bool) as itself, and a Fraction, bool or
    string p or p/q (q nonzero, as str(Fraction) writes it) as a Fraction; a
    string with a decimal point, exponent, blank or '+' is a ValueError."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _FRACTION.fullmatch(x):
        raise ValueError(f"not a fraction p/q: {x!r}")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def json_int(x) -> int:
    """An integer field of a JSON payload, or an exponent; any other value,
    a bool too, is a TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def json_str(x) -> str:
    """A string field of a JSON payload; any other value is a TypeError."""
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {x!r}")
    return x


def json_list(x) -> list:
    """A list field of a JSON payload; any other value is a TypeError."""
    if type(x) is not list:
        raise TypeError(f"expected a list, got {x!r}")
    return x


def is_pure(mu: DominantWeight) -> bool:
    e, n = mu.entries, mu.n
    s = e[0] + e[-1]
    return all(e[i] + e[n - 1 - i] == s for i in range(n))


def weight_to_infinity(mu: DominantWeight) -> InfinityType:
    """Solve mu = -rho_n + (... (kappa_i - 1 - w)/2 ...) for (kappa; w).
    A pure weakly decreasing mu has kappa_r = mu_r - mu_{n+1-r} + 2, or + 3
    at odd n, so kappa_r >= 2."""
    if not is_pure(mu):
        raise ValueError("weight is not pure")
    e, n = mu.entries, mu.n
    w = -e[0] - e[-1]
    r = n // 2
    kappa = tuple(2 * e[i] + n + 2 - 2 * (i + 1) + w for i in range(r))
    return InfinityType(n, kappa, w)


def infinity_to_weight(t: InfinityType) -> DominantWeight:
    n, w, r = t.n, t.w, t.r
    head = [(t.kappa[i] - n - 2 + 2 * (i + 1) - w) // 2 for i in range(r)]
    mid = [-w // 2] if n % 2 else []
    tail = [-w - head[r - 1 - i] for i in range(r)]
    return DominantWeight(tuple(head + mid + tail))


def signature(t: InfinityType) -> int:
    """The sign (-1)^{r + w/2}, flipped by sign_choice; odd rank only."""
    if t.n % 2 == 0:
        raise ValueError("signature is defined for odd rank only")
    return -1 if (t.r + t.w // 2 + t.sign_choice) % 2 else 1


def interlaces(kappa: tuple, ell: tuple) -> bool:
    """kappa_1 > ell_1 > kappa_2 > ell_2 > ..., for len(ell) <= len(kappa)."""
    return (all(k > l for k, l in zip(kappa, ell))
            and all(l > k for l, k in zip(ell, kappa[1:])))


def character_sign(delta: int, u: int) -> int:
    """eps(chi_inf) = (-1)^(u + delta) for chi_inf = sgn^delta |.|^u."""
    return -1 if (u + delta) % 2 else 1


def to_arch_rep(t: InfinityType):
    from .weil_real import ArchRep, char, disc
    half_w = Fraction(t.w, 2)
    parts = [disc(k, half_w) for k in t.kappa]
    if t.n % 2:
        parts.append(char(t.sign_choice, half_w))
    return ArchRep(tuple(parts))


def self_dual_homs(t: InfinityType, delta: int, u) -> tuple:
    """(dim Hom(Sym^2, chi), dim Hom(Wedge^2, chi)) for the parameter of t
    and chi = sgn^delta |.|^u, read from the type in O(r).

    Every constituent has the twist w/2, and phi_k (x) phi_l holds no
    character for k != l, so the characters come from the diagonal terms
    alone: phi_k gives sgn^(k-1) |.|^w to Sym^2 and sgn^k |.|^w to Wedge^2,
    and at odd rank the sign character gives |.|^w to Sym^2."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if u != t.w:
        return 0, 0
    d_wedge = sum(1 for k in t.kappa if k % 2 == delta)
    return t.r - d_wedge + (t.n % 2 == 1 and delta == 0), d_wedge
