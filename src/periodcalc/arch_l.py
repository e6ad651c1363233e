"""Archimedean L-factors as formal Gamma products, epsilon-factor classes
modulo rationals, and critical points of Rankin-Selberg L-functions.

All shift arithmetic is exact; criticality is a pole-ladder predicate on
Gamma_R / Gamma_C factors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .infinity_types import InfinityType, as_fraction


def _gamma(c) -> tuple:
    """The Gamma factor of a constituent c as (kind, b, b_dual): it is
    Gamma_kind(s + b) in L(s, c) and Gamma_kind(s + b_dual) in L(s, dual c).
    The two shifts differ only in the sign of the twist."""
    from .weil_real import ArchCharacter
    if isinstance(c, ArchCharacter):
        return "R", c.sign_parity + c.twist, c.sign_parity - c.twist
    h = Fraction(c.kappa - 1, 2)
    return "C", h + c.twist, h - c.twist


def l_factor(a) -> tuple:
    """The Gamma factors of L(s, a), a sorted tuple of ("R"|"C", shift)."""
    return tuple(sorted((kind, b) for kind, b, _ in map(_gamma, a)))


def is_holomorphic_at(g: tuple, s0) -> bool:
    """Whether the Gamma factors g (as from l_factor) are pole-free at s0."""
    s0 = as_fraction(s0)
    for kind, shift in g:
        x = s0 + shift
        if x.denominator != 1 or x > 0:
            continue
        if kind == "C" or x.numerator % 2 == 0:
            return False
    return True


def central_point(pi: InfinityType, sigma: InfinityType) -> Fraction:
    return Fraction(1 - pi.w - sigma.w, 2)


class CriticalSet(namedtuple("CriticalSet", "offset lo hi")):
    """The critical points m0 = k + offset of a pair, k an integer.

    Parity p of k has the points lo[p] <= k <= hi[p]: the Gamma_C pole
    ladders bound both parities alike, and a Gamma_R ladder only the points
    of the parity it hits.  lo and hi are (int, int), one entry per parity.
    """

    __slots__ = ()

    def has_index(self, k: int) -> bool:
        """Whether k + offset is critical."""
        return self.lo[k % 2] <= k <= self.hi[k % 2]

    def __contains__(self, m0) -> bool:
        # m0 = a/q and offset = b/q in lowest terms give k = (a - b)/q
        m0, q = as_fraction(m0), self.offset.denominator
        if m0.denominator != q:
            return False
        k, rem = divmod(m0.numerator - self.offset.numerator, q)
        return not rem and self.has_index(k)

    def points(self) -> list:
        k_min, k_max = min(self.lo), max(self.hi)
        return [k + self.offset for k in range(k_min, k_max + 1)
                if self.has_index(k)]


def _least_gap(kappa: tuple, ell: tuple) -> tuple:
    """The least nonzero |k - l| over k in kappa and l in ell (None when
    there is none), and whether some k = l: one merge of the two strictly
    decreasing lists, which tests each k against its nearest l on either
    side."""
    least, shared, j, n_ell = None, False, 0, len(ell)
    for k in kappa:
        while j < n_ell and ell[j] > k:
            j += 1
        if j and (least is None or ell[j - 1] - k < least):
            least = ell[j - 1] - k
        below = j
        if j < n_ell and ell[j] == k:
            shared, below = True, j + 1
        if below < n_ell and (least is None or k - ell[below] < least):
            least = k - ell[below]
    return least, shared


def critical_set(pi: InfinityType, sigma: InfinityType) -> CriticalSet:
    """All m0 = k + (n+n')/2, k an integer, where L(s) and L(1-s) of the
    pair are pole-free, read from the two types in O(r + r') int operations.

    Every constituent of the pair's tensor parameter has the twist (w+u)/2.
    With a = w + u + n + n', a Gamma_C factor phi_K has poles at
    k <= (1 - K - a)/2 and, in the dual, at k >= (K + 1 - a)/2, so the least
    such K bounds both parities of k: the least of kappa_min + ell_min - 1,
    the least nonzero |k - l| + 1, and kappa_min (ell_min) when sigma (pi)
    has odd rank.  A Gamma_R factor sgn^p has poles on the ladders
    k = -p - a/2, -p - a/2 - 2, ... and, in the dual, k = p + 1 - a/2,
    p + 3 - a/2, ..., so it bounds one parity of k on each side.  Its
    characters are 1 and sgn where some k = l, and sgn^(s1+s2) when both
    ranks are odd.  The parity rules of infinity types put every pole on the
    lattice.  A pair with no Gamma_C factor (rank (1,1)) is rejected: its
    critical set may be infinite.
    """
    gap, shared = _least_gap(pi.kappa, sigma.kappa)
    kappa_c = [] if gap is None else [gap + 1]
    if pi.kappa and sigma.kappa:
        kappa_c.append(pi.kappa[-1] + sigma.kappa[-1] - 1)
    if sigma.n % 2 and pi.kappa:
        kappa_c.append(pi.kappa[-1])
    if pi.n % 2 and sigma.kappa:
        kappa_c.append(sigma.kappa[-1])
    if not kappa_c:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    kc, a = min(kappa_c), pi.w + sigma.w + pi.n + sigma.n
    lo = [(3 - kc - a) // 2] * 2
    hi = [(kc - 1 - a) // 2] * 2
    chars = {0, 1} if shared else set()
    if pi.n % 2 and sigma.n % 2:
        chars.add((pi.sign_choice + sigma.sign_choice) % 2)
    for p in chars:
        c = p + a // 2
        lo[c % 2] = max(lo[c % 2], 1 - c)
        hi[(c + 1) % 2] = min(hi[(c + 1) % 2], p - a // 2)
    return CriticalSet(Fraction(pi.n + sigma.n, 2), tuple(lo), tuple(hi))


def pair_epsilon_class(pi: InfinityType, sigma: InfinityType) -> int:
    """The parity p with epsilon in i^p Q^x for the pair's tensor parameter
    (i^2 = -1 lies in Q^x), read from the types.  Each constituent adds its
    sign parity (a character) or its kappa (phi_kappa); phi_k (x) phi_l adds
    the even parity (k+l-1) + (|k-l|+1), so only phi_k (x) character
    (parity k) and character (x) character (parity s1 + s2) count."""
    parity = (sigma.n % 2) * sum(pi.kappa) + (pi.n % 2) * sum(sigma.kappa)
    if pi.n % 2 and sigma.n % 2:
        parity += pi.sign_choice + sigma.sign_choice
    return parity % 2


def critical_points(pi: InfinityType, sigma: InfinityType) -> list:
    """The critical set of the pair as a sorted list; see critical_set."""
    return critical_set(pi, sigma).points()
