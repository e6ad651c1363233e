"""Relation constructors over the formal period group and mechanical
replays of the period-relation derivations.

Every rel_* function returns a Relation whose lhs/rhs equality holds modulo
algebraic, Galois-natural units; every check_* function multiplies the
instantiated relation quotients exactly as the corresponding derivation does
and returns the residual, which must be the identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import arch_l
from .formal import (ATOM_I, FormalPeriod, PeriodAtom, Relation, RelationDB,
                     atom_archz, atom_bw, atom_dc, atom_dci, atom_delta,
                     atom_lval, char_inv, char_mul, char_pow, check_script,
                     gauss_fp, replay)
from .infinity_types import (InfinityType, is_balanced, is_regular,
                             signature, twist)
from .weil_real import as_fraction
from .yoshida import (FundamentalMonomial, MotiveShape, delta_tensor,
                      dual_label, dual_motive, dual_relation,
                      rank2_tensor_expansion, tensor_label)

__all__ = [
    "FormalPeriod", "PeriodAtom", "Relation", "RelationDB", "check_script",
    "GlobalRep", "pair_label", "rel_raghuram", "rel_duality_ratio",
    "rel_arch_iparity", "rel_twist", "rel_rs_twist", "rel_main1",
    "rel_corollary_main", "rel_gauss_pair", "rel_quadratic", "CheckResult",
    "check_main1_step", "check_corollary_main", "check_theorem_main2",
    "check_motivic_dual",
]


@dataclass(frozen=True)
class GlobalRep:
    """A labeled cuspidal representation: archimedean data plus the central
    character written multiplicatively over base character labels."""

    label: str
    inf: InfinityType
    omega: tuple  # frozen dict items of the central-character expression

    def __post_init__(self):
        if isinstance(self.omega, dict):
            object.__setattr__(self, "omega",
                               tuple(sorted(self.omega.items())))

    @property
    def omega_expr(self) -> dict:
        return dict(self.omega)

    def dual(self) -> "GlobalRep":
        return GlobalRep(dual_label(self.label),
                         twist(self.inf, 0, -self.inf.w),
                         char_inv(self.omega_expr))


def pair_label(pi: GlobalRep, sigma: GlobalRep) -> str:
    return f"{pi.label}x{sigma.label}"


def _char_render(expr: dict) -> str:
    if not expr:
        return "1"
    return "*".join(f"{k}^{v}" for k, v in sorted(expr.items()))


# one check asks five times for the critical set of (Pi, Sigma) and once
# for that of its dual
_critical_set = lru_cache(maxsize=16)(arch_l.critical_set)


def _require_critical(s0, pi: GlobalRep, sigma: GlobalRep):
    if s0 not in _critical_set(pi.inf, sigma.inf):
        raise ValueError(
            f"{s0} is not a critical point of {pair_label(pi, sigma)}")


def raghuram_signs(m, pi: GlobalRep, sigma: GlobalRep):
    """Resolve (eps_m, eps'_m): the odd-rank member fixes its sign to its
    signature, the other is forced by eps_m * eps'_m = (-1)^{m+n}."""
    m = as_fraction(m)
    if m.denominator != 1:
        raise ValueError("m must be an integer for adjacent ranks")
    n = pi.inf.n
    free = -1 if (m.numerator + n) % 2 else 1
    if n % 2:
        eps = signature(pi.inf)
        eps_prime = free * eps
    else:
        eps_prime = signature(sigma.inf)
        eps = free * eps_prime
    return eps, eps_prime


def rel_raghuram(m, pi: GlobalRep, sigma: GlobalRep) -> Relation:
    """L(m+1/2, Pi x Sigma) = p(m, .) G(omega_Sigma) p(Pi,eps) p(Sigma,eps')."""
    if not is_balanced(pi.inf, sigma.inf):
        raise ValueError("pair is not balanced")
    m = as_fraction(m)
    _require_critical(m + Fraction(1, 2), pi, sigma)
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    pair = pair_label(pi, sigma)
    lhs = FormalPeriod.atom(atom_lval(m + Fraction(1, 2), pair))
    rhs = (FormalPeriod.atom(atom_archz(m, pair))
           * gauss_fp(sigma.omega_expr)
           * FormalPeriod.atom(atom_bw(pi.label, eps))
           * FormalPeriod.atom(atom_bw(sigma.label, eps_prime)))
    return Relation(f"raghuram[m={m},{pair}]",
                    "critical-value factorization over a balanced pair",
                    lhs, rhs)


def rel_duality_ratio(m0, pi: GlobalRep, sigma: GlobalRep) -> Relation:
    """L(m0) = i^{eps-class} G(omega_Pi)^{n'} G(omega_Sigma)^n L(1-m0, duals).

    The i-parity is the epsilon class of the pair's tensor parameter, read
    from its infinity types, never stored symbolically.
    """
    m0 = as_fraction(m0)
    _require_critical(m0, pi, sigma)
    parity = arch_l.pair_epsilon_class(pi.inf, sigma.inf)
    pair = pair_label(pi, sigma)
    dual_pair = pair_label(pi.dual(), sigma.dual())
    lhs = FormalPeriod.atom(atom_lval(m0, pair))
    rhs = (FormalPeriod.atom(ATOM_I, parity)
           * gauss_fp(char_pow(pi.omega_expr, sigma.inf.n))
           * gauss_fp(char_pow(sigma.omega_expr, pi.inf.n))
           * FormalPeriod.atom(atom_lval(1 - m0, dual_pair)))
    return Relation(f"duality-ratio[m0={m0},{pair}]",
                    "functional-equation ratio under duality", lhs, rhs)


def rel_arch_iparity(m1, m2, pi: GlobalRep, sigma: GlobalRep) -> Relation:
    """p(m1, .) / p(m2, .) = i^{(m1-m2) n(n-1)/2}; central points excluded."""
    m1, m2 = as_fraction(m1), as_fraction(m2)
    center = Fraction(-pi.inf.w - sigma.inf.w, 2)
    if m1 == center or m2 == center:
        raise ValueError("central point excluded from the i-parity relation")
    _require_critical(m1 + Fraction(1, 2), pi, sigma)
    _require_critical(m2 + Fraction(1, 2), pi, sigma)
    n = pi.inf.n
    exp = (m1 - m2) * n * (n - 1) / 2
    assert exp.denominator == 1
    pair = pair_label(pi, sigma)
    lhs = FormalPeriod.atom(atom_archz(m1, pair))
    rhs = (FormalPeriod.atom(atom_archz(m2, pair))
           * FormalPeriod.atom(ATOM_I, exp.numerator))
    return Relation(f"arch-iparity[{m1},{m2},{pair}]",
                    "i-power comparison of archimedean periods", lhs, rhs)


def rel_twist(m, pi: GlobalRep, sigma: GlobalRep, w1: int, w2: int,
              twisted_label: str) -> Relation:
    """p(m, twisted pair) = p(m + w1 + w2, pair) up to rationals."""
    m = as_fraction(m)
    _require_critical(m + w1 + w2 + Fraction(1, 2), pi, sigma)
    pair = pair_label(pi, sigma)
    lhs = FormalPeriod.atom(atom_archz(m, twisted_label))
    rhs = FormalPeriod.atom(atom_archz(m + w1 + w2, pair))
    return Relation(f"arch-twist[{m},{twisted_label}]",
                    "archimedean period comparison under |.|-twists",
                    lhs, rhs)


def rel_rs_twist(pi: GlobalRep, eta_expr: dict, eta_delta: int, eta_u: int,
                 eps: int, twisted_label: str) -> Relation:
    """p(Pi (x) eta, eps) = G(eta)^{n(2n-1)} p(Pi, eps * eps(eta_inf))."""
    rank = pi.inf.n
    if rank % 2:
        raise ValueError("character-twist relation requires even rank")
    n = rank // 2
    eps_eta = -1 if (eta_u + eta_delta) % 2 else 1
    lhs = FormalPeriod.atom(atom_bw(twisted_label, eps))
    rhs = (gauss_fp(char_pow(eta_expr, n * (2 * n - 1)))
           * FormalPeriod.atom(atom_bw(pi.label, eps * eps_eta)))
    return Relation(f"rs-twist[{twisted_label},{eps:+d}]",
                    "character twist of Betti-Whittaker periods", lhs, rhs)


def rel_main1(pi: GlobalRep, eps: int) -> Relation:
    """p(Pi, eps) = G(omega_Pi)^{n-1} p(Pi^v, eps)."""
    if not is_regular(pi.inf):
        warnings.warn(f"regularity hypotheses unmet for {pi.label}",
                      stacklevel=2)
    n = pi.inf.n
    lhs = FormalPeriod.atom(atom_bw(pi.label, eps))
    rhs = (gauss_fp(char_pow(pi.omega_expr, n - 1))
           * FormalPeriod.atom(atom_bw(dual_label(pi.label), eps)))
    return Relation(f"main1[{pi.label},{eps:+d}]",
                    "period relation under duality", lhs, rhs)


def rel_corollary_main(label: str, gexp: dict) -> Relation:
    """p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -), with gexp the character
    chi^n omega_Pi^{-1} over base labels."""
    return Relation(f"corollary-main[{label}]",
                    "sign change of Betti-Whittaker periods",
                    FormalPeriod.atom(atom_bw(label, 1)),
                    gauss_fp(gexp) * FormalPeriod.atom(atom_bw(label, -1)))


def rel_gauss_pair(label: str) -> Relation:
    """G(chi) G(chi^{-1}) = 1 modulo algebraic units.

    Under the multiplicative Gauss-atom encoding this is trivially satisfied;
    it is kept as a named relation so derivations can cite it.
    """
    lhs = gauss_fp({label: 1}) * gauss_fp({label: -1})
    return Relation(f"gauss-pair[{label}]",
                    "invented - standard Gauss-sum pairing identity",
                    lhs, FormalPeriod.unit())


def rel_quadratic(expr: dict) -> Relation:
    """G(chi) class is 2-torsion for a quadratic character chi."""
    lhs = gauss_fp(char_pow(expr, 2))
    return Relation(f"central-character-quadratic[{_char_render(expr)}]",
                    "Gauss sum of a quadratic character is algebraic",
                    lhs, FormalPeriod.unit())


@dataclass(frozen=True)
class CheckResult:
    residual: FormalPeriod
    relations: tuple = ()
    i_parity: int = 0

    @property
    def is_ok(self) -> bool:
        return self.residual.is_trivial

    def offending_atom(self):
        return self.residual.offending_atom()

    def to_script(self) -> list:
        return [{"relation": rel.name, "exponent": e}
                for rel, e in self.relations]

    def register(self, db: RelationDB):
        for rel, _ in self.relations:
            db.add(rel)


def _compose(steps, **fields) -> CheckResult:
    return CheckResult(replay(steps), tuple(steps), **fields)


def _corrupted(rel: Relation, factor: FormalPeriod) -> Relation:
    """Negative control: rel with one atom power multiplied into its rhs."""
    return Relation(rel.name + "[corrupted]", rel.citation, rel.lhs,
                    rel.rhs * factor)


def _main1_pair(n: int, w: int, delta: int, m: int):
    """A widely spaced balanced pair whose critical range covers m+1/2."""
    r = n // 2
    need = max(abs(2 * m + 1 + w + delta), abs(1 - w - delta - 2 * m), 4)
    gap = 2 * (need + 4)
    kap_par = (w % 2) if n % 2 == 0 else 1
    base = 2 * gap * (r + 1) + 41
    if base % 2 != kap_par:
        base += 1
    kappa = tuple(base - 2 * gap * i for i in range(r))
    gprime = gap if kap_par == 1 else gap + 1  # keeps ell odd
    n_ell = r if n % 2 else r - 1
    ell = tuple(kappa[j] - gprime for j in range(n_ell))
    pi = GlobalRep("Pi", InfinityType(n, kappa, w, 0), {"omega_Pi": 1})
    sigma = GlobalRep("Sigma", InfinityType(n - 1, ell, delta, 0),
                      {"omega_Sigma": 1})
    return pi, sigma


def check_main1_step(n: int, w: int, delta: int, m,
                     corrupt: bool = False) -> CheckResult:
    """Replay one induction step of the duality period relation at rank n.

    Combines the critical-value factorization at m for (Pi, Sigma) and at -m
    for the duals, the functional-equation ratio at m0 = m + 1/2, the
    archimedean twist and i-parity comparisons, and the rank-(n-1) relation,
    against the rank-n relation as target.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    if delta % 2 != n % 2:
        raise ValueError("delta must have the parity of n")
    if n == 1:
        return CheckResult(FormalPeriod.unit())
    if n % 2 and w % 2:
        raise ValueError("w must be even for odd rank")
    m = as_fraction(m)
    if m.denominator != 1:
        raise ValueError("m must be an integer for adjacent ranks")
    m = m.numerator
    if 2 * m == -(w + delta):
        raise ValueError("central point excluded")

    pi, sigma = _main1_pair(n, w, delta, m)
    pi_d, sigma_d = pi.dual(), sigma.dual()
    q1 = rel_raghuram(m, pi, sigma)
    q2 = rel_raghuram(-m, pi_d, sigma_d)
    assert raghuram_signs(m, pi, sigma) == raghuram_signs(-m, pi_d, sigma_d)
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    q3 = rel_duality_ratio(m + Fraction(1, 2), pi, sigma)
    q4 = rel_twist(-m, pi, sigma, -w, -delta,
                   twisted_label=pair_label(pi_d, sigma_d))
    q5 = rel_arch_iparity(m, -m - w - delta, pi, sigma)
    q6 = rel_main1(sigma, eps_prime)
    q7 = rel_gauss_pair("omega_Sigma")
    target = rel_main1(pi, eps)
    if corrupt:
        # Gauss exponent n-1 -> n-2 on the target
        target = _corrupted(target, gauss_fp(char_inv(pi.omega_expr)))
    return _compose([(q1, 1), (q2, -1), (q3, -1), (q4, -1), (q5, 1),
                     (q6, 1), (q7, 1), (target, 1)])


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
    pi = GlobalRep("Pi", InfinityType(2 * n, kappa, 0, 0), {"omega_Pi": 1})
    chi = dict(chi_expr) if chi_expr else {"chi": 1}
    eta_delta = 1 if orthogonal else 0
    q_a = rel_main1(pi, 1)
    q_b = rel_rs_twist(pi, char_inv(chi), eta_delta, 0, 1,
                       twisted_label=dual_label(pi.label))
    gexp = char_mul(char_pow(chi, n), char_inv(pi.omega_expr))
    q_quad = rel_quadratic(gexp)
    target = rel_corollary_main(pi.label, gexp)
    if corrupt:
        target = _corrupted(target, gauss_fp(chi))
    return _compose([(q_a, 1), (q_b, 1), (target, -1), (q_quad, -n)])


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
    chi, omega = {"chi": 1}, {"omega_Pi": 1}
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
    gexp = char_mul(char_pow(chi, n), char_inv(omega))
    q_c = rel_corollary_main("Pi", gexp)
    q_quad = rel_quadratic(gexp)
    target_rhs = (FormalPeriod.atom(ATOM_I, ipow * nprime)
                  * gauss_fp(char_pow(gexp, nprime))
                  * FormalPeriod.atom(atom_lval(m0 + 1, pair)))
    target = Relation(f"theorem-main2[{pair}]",
                      "ratio of successive critical values",
                      FormalPeriod.atom(atom_lval(m0, pair)), target_rhs)
    if corrupt:
        target = _corrupted(target, gauss_fp(chi))
    steps = [(q_hr, 1), (target, -1), (q_c, eps_num * nprime)]
    if eps_num == -1:
        steps.append((q_quad, -nprime))
    return _compose(steps, i_parity=(ipow * nprime) % 2)


def check_motivic_dual(n: int, i: int = None,
                       corrupt: bool = False) -> CheckResult:
    """Replay c_i(M^v) = delta(M)^{-2} c_i(M) through a rank-2 auxiliary N
    in the i-th Hodge gap, for each admissible i (or the one given)."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    r = n // 2
    if i is not None and not 1 <= i <= r - 1:
        raise ValueError("i must lie in 1..floor(n/2)-1")
    kappa = tuple(4 * (r - j) + 5 for j in range(r))
    dplus = r + n % 2
    M = MotiveShape("M", n, 0, kappa, dplus, n - dplus)
    Md = dual_motive(M)
    fp = FundamentalMonomial(2, 1, 1, 0, (), 1, 0)
    fm = FundamentalMonomial(2, 1, 1, 0, (), 0, 1)
    fdet = FundamentalMonomial(2, 1, 1, 1, (), 0, 0)
    steps = []
    for idx in [i] if i is not None else range(1, r):
        N = MotiveShape(f"N{idx}", 2, 0, (kappa[idx] + 2,), 1, 1)
        mn = tensor_label(M, N)
        q1 = rank2_tensor_expansion(M, N, idx, 1)
        q2 = rank2_tensor_expansion(Md, dual_motive(N), idx, -1)
        q3 = Relation(f"deligne-dual[{mn}]",
                      "duality of c^{+-} for the tensor product",
                      FormalPeriod.atom(atom_dc(dual_label(mn), -1)),
                      FormalPeriod.atom(atom_delta(mn), -1)
                      * FormalPeriod.atom(atom_dc(mn, 1)))
        q_delta = delta_tensor(M, N)
        if corrupt:
            # delta(M x N) exponent on delta(N) off by one
            q_delta = _corrupted(q_delta,
                                 FormalPeriod.atom(atom_delta(N.label), -1))
        q_dp = dual_relation(fp, N)   # rewrites c^-(N^v)
        q_dm = dual_relation(fm, N)   # rewrites c^+(N^v)
        q_ddet = dual_relation(fdet, N)
        target = Relation(f"motivic-dual[{M.label},{idx}]",
                          "duality of the middle fundamental periods",
                          FormalPeriod.atom(atom_dci(Md.label, idx)),
                          FormalPeriod.atom(atom_delta(M.label), -2)
                          * FormalPeriod.atom(atom_dci(M.label, idx)))
        steps += [(q1, 1), (q2, -1), (q3, 1), (q_delta, -1), (q_ddet, -idx),
                  (q_dp, -(r - idx)), (q_dm, -(r - idx))]
        if n % 2:  # eps = d+ - d- = +1 for this M
            steps.append((q_dp, -1))
        steps.append((target, -1))
    return _compose(steps)
