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


@dataclass(frozen=True)
class CriticalSet:
    """The critical points m0 = k + offset of a pair, k an integer.

    Parity p of k has the points lo[p] <= k <= hi[p]: the Gamma_C pole
    ladders bound both parities alike, and a Gamma_R ladder only the points
    of the parity it hits.
    """

    offset: Fraction
    lo: tuple  # (int, int), the least k of each parity
    hi: tuple  # (int, int), the greatest k of each parity

    def __contains__(self, m0) -> bool:
        k = as_fraction(m0) - self.offset
        if k.denominator != 1:
            return False
        p = k.numerator % 2
        return self.lo[p] <= k.numerator <= self.hi[p]

    def points(self) -> list:
        k_min, k_max = min(self.lo), max(self.hi)
        return [k + self.offset for k in range(k_min, k_max + 1)
                if self.lo[k % 2] <= k <= self.hi[k % 2]]


def critical_set(pi: InfinityType, sigma: InfinityType,
                 param: ArchRep = None) -> CriticalSet:
    """All m0 in Z+(n+n')/2 where L(s) and L(1-s) of the pair are pole-free.

    param, if given, is the pair's tensor parameter.  Write m0 = k + offset.
    A factor with shift b of L(s) has a pole at m0 when c + k <= 0 for the
    integer c = offset + b (and c + k is even, for Gamma_R); a factor with
    shift b' of the dual L(1-s) has one when c' - k <= 0 for the integer
    c' = 1 - offset + b' (and c' - k is even, for Gamma_R).  A factor whose
    c or c' is not an integer lies off the lattice and has no pole on it.
    The window is derived from the Gamma_C pole ladders, which bound the
    critical set on both sides; a pair with no Gamma_C factor at all (only
    possible for rank (1,1)) can have an infinite critical set and is
    rejected.
    """
    if param is None:
        param = _tensor_parameter(pi, sigma)
    g, g_dual = l_factor(param), l_factor(weil_real.dual(param))
    c_shifts = [s for k, s in g.factors if k == "C"]
    c_shifts_dual = [s for k, s in g_dual.factors if k == "C"]
    if not c_shifts or not c_shifts_dual:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    n_sum = pi.n + sigma.n
    offset = Fraction(n_sum, 2)
    # necessary conditions: m0 > -b for every C-shift b of g, and
    # 1-m0 > -b' for every C-shift b' of g_dual
    lo = [math.ceil(-min(c_shifts) - 2 - offset)] * 2
    hi = [math.floor(1 + min(c_shifts_dual) + 2 - offset)] * 2
    for kind, shift in g.factors:
        c = _on_lattice(shift, n_sum)
        if c is not None:
            for p in (0, 1) if kind == "C" else (c % 2,):
                lo[p] = max(lo[p], 1 - c)
    for kind, shift in g_dual.factors:
        c = _on_lattice(shift, n_sum)
        if c is not None:
            c += 1 - n_sum  # 1 - offset + shift
            for p in (0, 1) if kind == "C" else (c % 2,):
                hi[p] = min(hi[p], c - 1)
    return CriticalSet(offset, tuple(lo), tuple(hi))


def _on_lattice(shift: Fraction, n_sum: int):
    """shift + n_sum/2 as an int, or None when it is not an integer.

    Only a shift with denominator 1 or 2 can qualify; the test uses int
    arithmetic because Fraction addition would cost most of the pass."""
    if shift.denominator > 2:
        return None
    twice = 2 // shift.denominator * shift.numerator + n_sum
    return None if twice % 2 else twice // 2


def critical_points(pi: InfinityType, sigma: InfinityType) -> list:
    """The critical set of the pair as a sorted list; see critical_set."""
    return critical_set(pi, sigma).points()


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
    return central_point(pi, sigma) in critical_set(pi, sigma)
