"""Archimedean L-factors as formal Gamma products, epsilon-factor classes
modulo rationals, and critical points of Rankin-Selberg L-functions.

All shift arithmetic is exact; criticality is a pole-ladder predicate on
Gamma_R / Gamma_C factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import weil_real
from .infinity_types import InfinityType, to_arch_rep
from .weil_real import ArchCharacter, ArchRep, as_fraction


@dataclass(frozen=True)
class GammaProduct:
    """A formal product of Gamma_R(s + shift) / Gamma_C(s + shift) factors."""

    factors: tuple  # of ("R"|"C", Fraction)

    def __post_init__(self):
        norm = []
        for kind, shift in self.factors:
            if kind not in ("R", "C"):
                raise ValueError(f"bad Gamma kind: {kind!r}")
            norm.append((kind, as_fraction(shift)))
        object.__setattr__(self, "factors", tuple(sorted(norm)))

    def to_json(self) -> list:
        return [{"kind": k, "shift": str(s)} for k, s in self.factors]


def l_factor(a: ArchRep) -> GammaProduct:
    fs = []
    for c in a:
        if isinstance(c, ArchCharacter):
            fs.append(("R", c.twist + c.sign_parity))
        else:
            fs.append(("C", c.twist + Fraction(c.kappa - 1, 2)))
    return GammaProduct(tuple(fs))


def is_holomorphic_at(g: GammaProduct, s0) -> bool:
    s0 = as_fraction(s0)
    for kind, shift in g.factors:
        x = s0 + shift
        if x.denominator != 1 or x > 0:
            continue
        if kind == "C" or x.numerator % 2 == 0:
            return False
    return True


def epsilon_class(a: ArchRep) -> int:
    """The parity p with epsilon(a) in i^p Q^x (i^2 = -1 lies in Q^x)."""
    parity = 0
    for c in a:
        parity += c.sign_parity if isinstance(c, ArchCharacter) else c.kappa
    return parity % 2


def _tensor_parameter(pi: InfinityType, sigma: InfinityType) -> ArchRep:
    return weil_real.tensor(to_arch_rep(pi), to_arch_rep(sigma))


def central_point(pi: InfinityType, sigma: InfinityType) -> Fraction:
    return Fraction(1 - pi.w - sigma.w, 2)


def critical_points(pi: InfinityType, sigma: InfinityType) -> list:
    """All m0 in Z+(n+n')/2 where L(s) and L(1-s) of the pair are pole-free.

    The window is derived from the Gamma_C pole ladders, which bound the
    critical set on both sides; a pair with no Gamma_C factor at all (only
    possible for rank (1,1)) can have an infinite critical set and is
    rejected.
    """
    param = _tensor_parameter(pi, sigma)
    dual_param = weil_real.dual(param)
    g, g_dual = l_factor(param), l_factor(dual_param)
    c_shifts = [s for k, s in g.factors if k == "C"]
    c_shifts_dual = [s for k, s in g_dual.factors if k == "C"]
    if not c_shifts or not c_shifts_dual:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    # necessary conditions: m0 > -b for every C-shift b of g, and
    # 1-m0 > -b' for every C-shift b' of g_dual
    lo = -min(c_shifts) - 2
    hi = 1 + min(c_shifts_dual) + 2
    offset = Fraction(pi.n + sigma.n, 2)
    out = []
    k = math.ceil(lo - offset)
    while k + offset <= hi:
        m0 = k + offset
        if is_holomorphic_at(g, m0) and is_holomorphic_at(g_dual, 1 - m0):
            out.append(m0)
        k += 1
    return out


def _interlacing_distance(pi: InfinityType, sigma: InfinityType) -> int:
    vals = [abs(k - l) for k in pi.kappa for l in sigma.kappa]
    if sigma.n % 2:
        vals += [abs(k - 1) for k in pi.kappa]
    if not vals:
        raise ValueError("distance d is undefined without kappa entries")
    return min(vals)


def critical_range_closed_form(pi: InfinityType, sigma: InfinityType) -> list:
    """The closed-form critical interval; defined for even rank pi only."""
    if pi.n % 2:
        raise ValueError("closed form requires even rank")
    d = _interlacing_distance(pi, sigma)
    w, u = pi.w, sigma.w
    lo = Fraction(2 - w - u - d, 2)
    hi = Fraction(-w - u + d, 2)
    offset = Fraction(sigma.n, 2)
    out = []
    k = math.ceil(lo - offset)
    while k + offset <= hi:
        out.append(k + offset)
        k += 1
    return out


def central_point_is_critical(pi: InfinityType, sigma: InfinityType) -> bool:
    if pi.n % 2 == 0:
        d = _interlacing_distance(pi, sigma)
        return d >= 1 and (pi.w + sigma.w) % 2 == (pi.n + sigma.n + 1) % 2
    return central_point(pi, sigma) in critical_points(pi, sigma)
