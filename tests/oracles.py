"""Reference computations the tests check periodcalc against.

Each computes an answer a second way, apart from the fast path it checks:
on the multiset of Weil-group constituents (Hom-dimensions, determinants,
epsilon classes), on their restriction to C^x, or on the Gamma factors of a
pair's tensor parameter (the brute-force lattice scan, one pass over the
factors, and Raghuram's even-rank interval).  No request of the CLI runs
any of them.
"""

import math
from fractions import Fraction

from periodcalc import arch_l, weil_real as wr
from periodcalc.infinity_types import to_arch_rep


# ---------------------------------------------------------------------------
# the constituents of a real Weil-group parameter

def determinant(a: wr.ArchRep) -> wr.ArchCharacter:
    parity, twist = 0, Fraction(0)
    for c in a:
        if isinstance(c, wr.ArchCharacter):
            parity += c.sign_parity
            twist += c.twist
        else:
            parity += c.kappa
            twist += 2 * c.twist
    return wr.ArchCharacter(parity % 2, twist)


def hom_dim(a: wr.ArchRep, chi: wr.ArchCharacter) -> int:
    """Multiplicity of the character chi among the constituents of a."""
    return sum(1 for c in a if c == chi)


def epsilon_class(a: wr.ArchRep) -> int:
    """The parity p with epsilon(a) in i^p Q^x (i^2 = -1 lies in Q^x)."""
    parity = 0
    for c in a:
        parity += (c.sign_parity if isinstance(c, wr.ArchCharacter)
                   else c.kappa)
    return parity % 2


# ---------------------------------------------------------------------------
# restriction to C^x, an exact tensor functor: tensor, Sym^2 and Wedge^2
# computed on constituents must agree with the same operations performed on
# the restricted multisets

def restrict_to_C(a: wr.ArchRep) -> tuple:
    """Restriction to C^x as a sorted multiset of exponent pairs (p, q).

    A character restricts to z -> (z zbar)^t, i.e. the pair (t, t);
    phi_kappa (x) |.|^t restricts to the two characters with exponents
    t +- (kappa-1)/2.
    """
    pairs = []
    for c in a:
        if isinstance(c, wr.ArchCharacter):
            pairs.append((c.twist, c.twist))
        else:
            h = Fraction(c.kappa - 1, 2)
            pairs.append((c.twist + h, c.twist - h))
            pairs.append((c.twist - h, c.twist + h))
    return tuple(sorted(pairs))


def _pair_sum(x, y):
    return (x[0] + y[0], x[1] + y[1])


def restricted_tensor(a, b):
    ra, rb = restrict_to_C(a), restrict_to_C(b)
    return tuple(sorted(_pair_sum(x, y) for x in ra for y in rb))


def restricted_sym2(a):
    ra = restrict_to_C(a)
    return tuple(sorted(_pair_sum(ra[i], ra[j])
                        for i in range(len(ra)) for j in range(i, len(ra))))


def restricted_wedge2(a):
    ra = restrict_to_C(a)
    return tuple(sorted(_pair_sum(ra[i], ra[j])
                        for i in range(len(ra)) for j in range(i + 1, len(ra))))


# ---------------------------------------------------------------------------
# critical sets of a pair of infinity types

def scan_critical_points(pi, sigma, param=None) -> list:
    """The reference for critical_set: test every lattice point between the
    Gamma_C pole ladders (with a slack of 2 on each side) for a pole of L(s)
    or of the dual L(1-s).  param defaults to the pair's tensor parameter."""
    if param is None:
        param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    g, g_dual = arch_l.l_factor(param), arch_l.l_factor(wr.dual(param))
    c_shifts = [s for k, s in g if k == "C"]
    c_shifts_dual = [s for k, s in g_dual if k == "C"]
    if not c_shifts or not c_shifts_dual:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    lo = -min(c_shifts) - 2
    hi = 1 + min(c_shifts_dual) + 2
    offset = Fraction(pi.n + sigma.n, 2)
    out = []
    k = math.ceil(lo - offset)
    while k + offset <= hi:
        m0 = k + offset
        if (arch_l.is_holomorphic_at(g, m0)
                and arch_l.is_holomorphic_at(g_dual, 1 - m0)):
            out.append(m0)
        k += 1
    return out


def tensor_critical_set(pi, sigma, param=None) -> arch_l.CriticalSet:
    """The second reference for critical_set: one pass over the Gamma
    factors of the tensor parameter (param, by default the pair's own).

    Write m0 = k + offset.  A factor with shift b of L(s) has a pole at m0
    when c + k <= 0 for the integer c = offset + b (and c + k is even, for
    Gamma_R); its shift b' in the dual L(1-s) gives one when c' - k <= 0
    for the integer c' = 1 - offset + b' (and c' - k is even, for Gamma_R).
    A factor whose c or c' is not an integer lies off the lattice and has no
    pole on it.  The window starts from the Gamma_C pole ladders with a
    slack of 2, as the scan's does."""
    if param is None:
        param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
    factors = [arch_l._gamma(c) for c in param]
    c_shifts = [(b, b_dual) for kind, b, b_dual in factors if kind == "C"]
    if not c_shifts:
        raise ValueError("critical set may be infinite: no Gamma_C factor")
    n_sum = pi.n + sigma.n
    offset = Fraction(n_sum, 2)
    lo = [math.ceil(-min(b for b, _ in c_shifts) - 2 - offset)] * 2
    hi = [math.floor(1 + min(b for _, b in c_shifts) + 2 - offset)] * 2
    for kind, b, b_dual in factors:
        c = b + offset
        if c.denominator == 1:
            for p in (0, 1) if kind == "C" else (c.numerator % 2,):
                lo[p] = max(lo[p], 1 - c.numerator)
        c = 1 - offset + b_dual
        if c.denominator == 1:
            for p in (0, 1) if kind == "C" else (c.numerator % 2,):
                hi[p] = min(hi[p], c.numerator - 1)
    return arch_l.CriticalSet(offset, tuple(lo), tuple(hi))


def raghuram_interval(pi, sigma) -> list:
    """Raghuram's critical interval for an even-rank pi: the points of
    Z + n'/2 in [(2 - w - u - d)/2, (d - w - u)/2], where d is the least
    |k - l| over the kappa of pi and the kappa of sigma (with l = 1 added
    for an odd-rank sigma)."""
    if pi.n % 2:
        raise ValueError("Raghuram's interval needs an even-rank pi")
    d = min([abs(k - l) for k in pi.kappa for l in sigma.kappa]
            + [k - 1 for k in pi.kappa if sigma.n % 2])
    lo = Fraction(2 - pi.w - sigma.w - d, 2)
    hi = Fraction(d - pi.w - sigma.w, 2)
    offset = Fraction(sigma.n, 2)
    return [k + offset for k in range(math.ceil(lo - offset),
                                      math.floor(hi - offset) + 1)]
