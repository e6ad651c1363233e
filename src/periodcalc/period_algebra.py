"""Relation constructors over the formal period group and mechanical
replays of the period-relation derivations.

Every rel_* function returns a Relation whose lhs/rhs equality holds modulo
algebraic, Galois-natural units; every check_* function multiplies the
instantiated relation quotients exactly as the corresponding derivation does
and returns the residual, which must be the identity.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction

from . import arch_l
from .formal import (ATOM_I, CheckResult, FormalPeriod, PeriodAtom, Relation,
                     RelationDB, atom_archz, atom_bw, atom_dc, atom_dci,
                     atom_delta, atom_lval, check_script, dual_label, gauss_fp,
                     replay, _reduced)
from .infinity_types import (InfinityType, as_fraction, character_sign,
                             is_balanced, is_regular, signature)

__all__ = [
    "FormalPeriod", "PeriodAtom", "Relation", "RelationDB", "check_script",
    "GlobalRep", "pair_label", "rel_rs_twist", "rel_main1",
    "rel_corollary_main", "rel_quadratic", "CheckResult", "check_main1_step",
    "check_corollary_main", "check_theorem_main2", "check_motivic_dual",
]


class GlobalRep(namedtuple("GlobalRep", "label inf omega")):
    """A labeled cuspidal representation: archimedean data plus the Gauss
    class of its central character (see formal.gauss_fp)."""

    __slots__ = ()


def pair_label(pi: GlobalRep, sigma: GlobalRep) -> str:
    return f"{pi.label}x{sigma.label}"


# the central characters of the builtins' Pi and Sigma and of their duals
_OMEGA_PI = gauss_fp({"omega_Pi": 1})
_OMEGA_SIGMA = gauss_fp({"omega_Sigma": 1})
_OMEGA_PI_DUAL, _OMEGA_SIGMA_DUAL = _OMEGA_PI ** -1, _OMEGA_SIGMA ** -1
_CHI = gauss_fp({"chi": 1})  # the builtins' default chi


def _integer_m(m) -> int:
    """The point m of a pair of adjacent ranks, which must be an integer."""
    m = as_fraction(m)
    if m.denominator != 1:
        raise ValueError("m must be an integer for adjacent ranks")
    return m.numerator


def raghuram_signs(m, pi: GlobalRep, sigma: GlobalRep):
    """Resolve (eps_m, eps'_m): the odd-rank member fixes its sign to its
    signature, the other is forced by eps_m * eps'_m = (-1)^{m+n}."""
    free = -1 if (_integer_m(m) + pi.inf.n) % 2 else 1
    if pi.inf.n % 2:
        eps = signature(pi.inf)
        return eps, free * eps
    eps_prime = signature(sigma.inf)
    return free * eps_prime, eps_prime


def _period(atoms, classes=()) -> FormalPeriod:
    """prod a^e over atoms (a, e) times prod g^k over classes (g, k); a
    repeated atom (BW(Pi, eps) when Sigma shares Pi's label) adds up."""
    exp = {}
    for a, e in atoms:
        exp[a] = exp.get(a, 0) + e
    for g, k in classes:
        for a, e in g._exp.items():
            exp[a] = exp.get(a, 0) + k * e
    return FormalPeriod._of_exp(_reduced(exp))


# One builder per relation of a main1 step, which alone calls them with
# checked data: an archimedean point as an int, an L-value point as p/q
# text, signs and an i-parity.
def _raghuram(m, s0: str, pi, sigma, eps, eps_prime) -> Relation:
    pair = pair_label(pi, sigma)
    rhs = _period([(atom_archz(m, pair), 1), (atom_bw(pi.label, eps), 1),
                   (atom_bw(sigma.label, eps_prime), 1)], [(sigma.omega, 1)])
    return Relation(f"raghuram[m={m},{pair}]",
                    "critical-value factorization over a balanced pair",
                    FormalPeriod._of_exp({PeriodAtom("LVal", (s0, pair)): 1}),
                    rhs)


def _duality_ratio(m0: str, dual_m0: str, pi, sigma, dual_pair: str,
                   parity) -> Relation:
    pair = pair_label(pi, sigma)
    rhs = _period([(ATOM_I, parity),
                   (PeriodAtom("LVal", (dual_m0, dual_pair)), 1)],
                  [(pi.omega, sigma.inf.n), (sigma.omega, pi.inf.n)])
    return Relation(f"duality-ratio[m0={m0},{pair}]",
                    "functional-equation ratio under duality",
                    FormalPeriod._of_exp({PeriodAtom("LVal", (m0, pair)): 1}),
                    rhs)


def _arch_iparity(m1, m2, pi, sigma) -> Relation:
    n = pi.inf.n
    exp = (m1 - m2) * (n * (n - 1) // 2)
    assert exp.denominator == 1
    pair = pair_label(pi, sigma)
    return Relation(f"arch-iparity[{m1},{m2},{pair}]",
                    "i-power comparison of archimedean periods",
                    FormalPeriod._of_exp({atom_archz(m1, pair): 1}),
                    _period([(atom_archz(m2, pair), 1),
                             (ATOM_I, exp.numerator)]))


def _twist(m, point, pi, sigma, twisted_label: str) -> Relation:
    pair = pair_label(pi, sigma)
    return Relation(f"arch-twist[{m},{twisted_label}]",
                    "archimedean period comparison under |.|-twists",
                    FormalPeriod._of_exp({atom_archz(m, twisted_label): 1}),
                    FormalPeriod._of_exp({atom_archz(point, pair): 1}))


def rel_rs_twist(pi: GlobalRep, eta: FormalPeriod, eta_delta: int,
                 eta_u: int, eps: int, twisted_label: str) -> Relation:
    """p(Pi (x) eta, eps) = G(eta)^{n(2n-1)} p(Pi, eps * eps(eta_inf))."""
    rank = pi.inf.n
    if rank % 2:
        raise ValueError("character-twist relation requires even rank")
    n = rank // 2
    lhs = FormalPeriod.atom(atom_bw(twisted_label, eps))
    rhs = (eta ** (n * (2 * n - 1)) * FormalPeriod.atom(
        atom_bw(pi.label, eps * character_sign(eta_delta, eta_u))))
    return Relation(f"rs-twist[{twisted_label},{eps:+d}]",
                    "character twist of Betti-Whittaker periods", lhs, rhs)


def rel_main1(pi: GlobalRep, eps: int) -> Relation:
    """p(Pi, eps) = G(omega_Pi)^{n-1} p(Pi^v, eps)."""
    if not is_regular(pi.inf):
        warnings.warn(f"regularity hypotheses unmet for {pi.label}",
                      stacklevel=2)
    return Relation(f"main1[{pi.label},{eps:+d}]",
                    "period relation under duality",
                    FormalPeriod._of_exp({atom_bw(pi.label, eps): 1}),
                    _period([(atom_bw(dual_label(pi.label), eps), 1)],
                            [(pi.omega, pi.inf.n - 1)]))


def rel_corollary_main(label: str, gexp: FormalPeriod) -> Relation:
    """p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -), with gexp the Gauss class
    of chi^n omega_Pi^{-1}."""
    return Relation(f"corollary-main[{label}]",
                    "sign change of Betti-Whittaker periods",
                    FormalPeriod.atom(atom_bw(label, 1)),
                    gexp * FormalPeriod.atom(atom_bw(label, -1)))


def rel_quadratic(g: FormalPeriod) -> Relation:
    """G(chi) class is 2-torsion for a quadratic character chi."""
    char = "*".join(f"{a.payload[0]}^{e}" for a, e in g.items()) or "1"
    return Relation(f"central-character-quadratic[{char}]",
                    "Gauss sum of a quadratic character is algebraic",
                    g ** 2, FormalPeriod.unit())


def _compose(steps, **fields) -> CheckResult:
    return CheckResult(replay(steps), tuple(steps), **fields)


def _corrupted(rel: Relation, factor: FormalPeriod) -> Relation:
    """Negative control: rel with one atom power multiplied into its rhs."""
    return Relation(rel.name + "[corrupted]", rel.citation, rel.lhs,
                    rel.rhs * factor)


def _main1_pair(n: int, w: int, delta: int, m: int):
    """A widely spaced balanced pair whose critical range covers m+1/2, and
    the pair of its duals."""
    r = n // 2
    need = max(abs(2 * m + 1 + w + delta), abs(1 - w - delta - 2 * m), 4)
    gap = 2 * (need + 4)
    kap_par = (w % 2) if n % 2 == 0 else 1
    base = 2 * gap * (r + 1) + 42 - kap_par
    kappa = tuple(base - 2 * gap * i for i in range(r))
    gprime = gap if kap_par == 1 else gap + 1  # keeps ell odd
    ell = tuple(k - gprime for k in kappa[:(n - 1) // 2])
    t, u = InfinityType(n, kappa, w, 0), InfinityType(n - 1, ell, delta, 0)
    # the duals negate w, which the checks of a type read only by its parity
    t_d, u_d = (tuple.__new__(InfinityType, (x.n, x.kappa, -x.w, 0))
                for x in (t, u))
    return (GlobalRep("Pi", t, _OMEGA_PI),
            GlobalRep("Sigma", u, _OMEGA_SIGMA),
            GlobalRep(dual_label("Pi"), t_d, _OMEGA_PI_DUAL),
            GlobalRep(dual_label("Sigma"), u_d, _OMEGA_SIGMA_DUAL))


def check_main1_step(n: int, w: int, delta: int, m,
                     corrupt: bool = False) -> CheckResult:
    """Replay one induction step of the duality period relation at rank n.

    Combines the critical-value factorization at m for (Pi, Sigma) and at -m
    for the duals, the functional-equation ratio at m0 = m + 1/2, the
    archimedean twist and i-parity comparisons, and the rank-(n-1) relation,
    against the rank-n relation as target; each hypothesis is checked once.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if delta % 2 != n % 2:
        raise ValueError("delta must have the parity of n")
    if n % 2 and w % 2:
        raise ValueError("w must be even for odd rank")
    if n == 1:
        return CheckResult(FormalPeriod.unit())
    m = _integer_m(m)
    if 2 * m == -(w + delta):
        raise ValueError("central point excluded")

    pi, sigma, pi_d, sigma_d = _main1_pair(n, w, delta, m)
    if not is_balanced(pi.inf, sigma.inf):  # the duals have the same kappa
        raise ValueError("pair is not balanced")
    # m + 1/2 has index m + 1 - n.  The duals' set is the pair's under
    # s -> 1 - s, and the pair's is symmetric about (1 - w - delta)/2, so
    # -m + 1/2 (duals) and m2 + 1/2 (pair) are critical when m + 1/2 is.
    if not arch_l.critical_set(pi.inf, sigma.inf).has_index(m + 1 - n):
        raise ValueError(f"{2 * m + 1}/2 is not a critical point of "
                         f"{pair_label(pi, sigma)}")
    m2 = -m - w - delta  # the i-parity point, which the twist moves -m to
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    parity = arch_l.pair_epsilon_class(pi.inf, sigma.inf)
    s0, dual_s0 = f"{2 * m + 1}/2", f"{1 - 2 * m}/2"
    dual_pair = pair_label(pi_d, sigma_d)
    steps = [(_raghuram(m, s0, pi, sigma, eps, eps_prime), 1),
             (_raghuram(-m, dual_s0, pi_d, sigma_d, eps, eps_prime), -1),
             (_duality_ratio(s0, dual_s0, pi, sigma, dual_pair, parity), -1),
             (_twist(-m, m2, pi, sigma, dual_pair), -1),
             (_arch_iparity(m, m2, pi, sigma), 1),
             (rel_main1(sigma, eps_prime), 1)]
    target = rel_main1(pi, eps)
    if corrupt:
        # Gauss exponent n-1 -> n-2 on the target
        target = _corrupted(target, pi.omega ** -1)
    return _compose(steps + [(target, 1)])


def check_corollary_main(n: int, orthogonal: bool = True, chi_expr=None,
                         corrupt: bool = False) -> CheckResult:
    """Replay the sign-change relation for a chi-orthogonal Pi of rank 2n:

        p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -)

    from the duality relation, the character twist by chi^{-1} (using
    Pi^v = Pi (x) chi^{-1}), and quadraticity of chi^n omega_Pi^{-1}.
    """
    if n < 1:
        raise ValueError("n must be positive")
    kappa = tuple(8 + 6 * j for j in range(n, 0, -1))
    pi = GlobalRep("Pi", InfinityType(2 * n, kappa, 0, 0), _OMEGA_PI)
    chi = gauss_fp(chi_expr) if chi_expr else _CHI
    q_a = rel_main1(pi, 1)
    q_b = rel_rs_twist(pi, chi ** -1, 1 if orthogonal else 0, 0, 1,
                       twisted_label=dual_label(pi.label))
    gexp = chi ** n * pi.omega ** -1
    target = rel_corollary_main(pi.label, gexp)
    if corrupt:
        target = _corrupted(target, chi)
    steps = [(q_a, 1), (q_b, 1), (target, -1)]
    if not gexp.is_trivial:
        steps.append((rel_quadratic(gexp), -n))
    return _compose(steps)


def check_theorem_main2(n: int, nprime: int, include_i_power: bool = True,
                        eps_num: int = 1, corrupt: bool = False) -> CheckResult:
    """Replay the successive-critical-value ratio for GL(2n) x GL(n'):

        L(m0) / L(m0+1) = i^{nn'} G(chi^n omega_Pi^{-1})^{n'}

    via n' copies of the relative period i^n p(Pi,eps)/p(Pi,-eps) rewritten
    through the sign-change relation.  Even n' is the trivially algebraic
    case.
    """
    if n < 1 or nprime < 1:
        raise ValueError("ranks must be positive")
    if nprime % 2 == 0:
        return CheckResult(FormalPeriod.unit())
    pair = "PixSigma"
    m0 = Fraction(nprime, 2)
    ipow = n if include_i_power else 0
    rel_period = (FormalPeriod.atom(ATOM_I, ipow)
                  * FormalPeriod.atom(atom_bw("Pi", eps_num))
                  * FormalPeriod.atom(atom_bw("Pi", -eps_num), -1))
    q_hr = Relation(f"harder-raghuram[{pair},m0={m0}]",
                    "successive critical values against relative periods",
                    FormalPeriod.atom(atom_lval(m0, pair)),
                    FormalPeriod.atom(atom_lval(m0 + 1, pair))
                    * rel_period ** nprime)
    gexp = _CHI ** n * _OMEGA_PI ** -1
    q_c = rel_corollary_main("Pi", gexp)
    target_rhs = (FormalPeriod.atom(ATOM_I, ipow * nprime)
                  * gexp ** nprime
                  * FormalPeriod.atom(atom_lval(m0 + 1, pair)))
    target = Relation(f"theorem-main2[{pair}]",
                      "ratio of successive critical values",
                      FormalPeriod.atom(atom_lval(m0, pair)), target_rhs)
    if corrupt:
        target = _corrupted(target, _CHI)
    steps = [(q_hr, 1), (target, -1), (q_c, eps_num * nprime)]
    if eps_num == -1:
        steps.append((rel_quadratic(gexp), -nprime))
    return _compose(steps, i_parity=(ipow * nprime) % 2)


def check_motivic_dual(n: int, i: int = None,
                       corrupt: bool = False) -> CheckResult:
    """Replay c_i(M^v) = delta(M)^{-2} c_i(M) through a rank-2 auxiliary N
    in the i-th Hodge gap, for each admissible i (or the one given)."""
    from . import yoshida as y
    if n < 2:
        raise ValueError("rank must be at least 2")
    r = n // 2
    if i is not None and not 1 <= i <= r - 1:
        raise ValueError("i must lie in 1..floor(n/2)-1")
    kappa = tuple(4 * (r - j) + 5 for j in range(r))
    dplus = r + n % 2
    M = y.MotiveShape("M", n, 0, kappa, dplus, n - dplus)
    Md = y.dual_motive(M)
    fp = y.FundamentalMonomial(2, 1, 1, 0, (), 1, 0)
    fm = y.FundamentalMonomial(2, 1, 1, 0, (), 0, 1)
    fdet = y.FundamentalMonomial(2, 1, 1, 1, (), 0, 0)
    steps = []
    for idx in [i] if i is not None else range(1, r):
        N = y.MotiveShape(f"N{idx}", 2, 0, (kappa[idx] + 2,), 1, 1)
        mn = y.tensor_label(M, N)
        q1 = y.rank2_tensor_expansion(M, N, idx, 1)
        q2 = y.rank2_tensor_expansion(Md, y.dual_motive(N), idx, -1)
        q3 = Relation(f"deligne-dual[{mn}]",
                      "duality of c^{+-} for the tensor product",
                      FormalPeriod._of_exp({atom_dc(dual_label(mn), -1): 1}),
                      FormalPeriod._of_exp({atom_delta(mn): -1,
                                            atom_dc(mn, 1): 1}))
        q_delta = y.delta_tensor(M, N)
        if corrupt:
            # delta(M x N) exponent on delta(N) off by one
            q_delta = _corrupted(q_delta,
                                 FormalPeriod.atom(atom_delta(N.label), -1))
        q_dp = y.dual_relation(fp, N)   # rewrites c^-(N^v)
        q_dm = y.dual_relation(fm, N)   # rewrites c^+(N^v)
        q_ddet = y.dual_relation(fdet, N)
        target = Relation(f"motivic-dual[{M.label},{idx}]",
                          "duality of the middle fundamental periods",
                          FormalPeriod._of_exp({atom_dci(Md.label, idx): 1}),
                          FormalPeriod._of_exp({atom_delta(M.label): -2,
                                                atom_dci(M.label, idx): 1}))
        # for odd n, eps = d+ - d- = +1 for this M adds one more q_dp
        steps += [(q1, 1), (q2, -1), (q3, 1), (q_delta, -1), (q_ddet, -idx),
                  (q_dp, -(r - idx) - n % 2), (q_dm, -(r - idx)),
                  (target, -1)]
    return _compose(steps)
