"""Relation constructors over the formal period group and mechanical
replays of the period-relation derivations.

Every rel_* function returns a Relation whose lhs/rhs equality holds modulo
algebraic, Galois-natural units; every check_* function multiplies the
instantiated relation quotients exactly as the corresponding derivation does
and returns the residual, which must be the identity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import arch_l
from .formal import (ATOM_I, CheckResult, FormalPeriod, PeriodAtom, Relation,
                     RelationDB, check_script, dual_label, gauss_fp,
                     replay, _period)
from .infinity_types import (InfinityType, as_fraction, character_sign,
                             json_int, signature)

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


# the central characters of the builtins' Pi and Sigma
_OMEGA_PI = gauss_fp({"omega_Pi": 1})
_OMEGA_SIGMA = gauss_fp({"omega_Sigma": 1})
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


def rel_rs_twist(pi: GlobalRep, eta: FormalPeriod, eta_delta: int,
                 eta_u: int, eps: int, twisted_label: str) -> Relation:
    """p(Pi (x) eta, eps) = G(eta)^{n(2n-1)} p(Pi, eps * eps(eta_inf))."""
    rank = pi.inf.n
    if rank % 2:
        raise ValueError("character-twist relation requires even rank")
    n = rank // 2
    lhs = FormalPeriod.atom(PeriodAtom("BW", (twisted_label, eps)))
    rhs = (eta ** (n * (2 * n - 1)) * FormalPeriod.atom(PeriodAtom(
        "BW", (pi.label, eps * character_sign(eta_delta, eta_u)))))
    return Relation(f"rs-twist[{twisted_label},{eps:+d}]",
                    "character twist of Betti-Whittaker periods", lhs, rhs)


def rel_main1(pi: GlobalRep, eps: int) -> Relation:
    """p(Pi, eps) = G(omega_Pi)^{n-1} p(Pi^v, eps).

    The relation holds for regular Pi.  Both callers build Pi from a closed
    form that is regular, as their docstrings show, so Pi is not tested."""
    bw = PeriodAtom("BW", (pi.label, eps))
    return Relation(f"main1[{pi.label},{eps:+d}]",
                    "period relation under duality",
                    FormalPeriod._of_exp({bw: 1}),
                    _period({PeriodAtom("BW", (dual_label(pi.label), eps)): 1},
                            (pi.omega, pi.inf.n - 1)))


def rel_corollary_main(label: str, gexp: FormalPeriod) -> Relation:
    """p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -), with gexp the Gauss class
    of chi^n omega_Pi^{-1}."""
    return Relation(f"corollary-main[{label}]",
                    "sign change of Betti-Whittaker periods",
                    FormalPeriod.atom(PeriodAtom("BW", (label, 1))),
                    gexp * FormalPeriod.atom(PeriodAtom("BW", (label, -1))))


def rel_quadratic(g: FormalPeriod) -> Relation:
    """G(chi) class is 2-torsion for a quadratic character chi."""
    char = "*".join(f"{a.payload[0]}^{e}" for a, e in g.items()) or "1"
    return Relation(f"central-character-quadratic[{char}]",
                    "Gauss sum of a quadratic character is algebraic",
                    g ** 2, FormalPeriod())


def _compose(steps, **fields) -> CheckResult:
    return CheckResult(replay(steps), tuple(steps), **fields)


def _corrupted(rel: Relation, factor: FormalPeriod) -> Relation:
    """Negative control: rel with one atom power multiplied into its rhs."""
    return Relation(rel.name + "[corrupted]", rel.citation, rel.lhs,
                    rel.rhs * factor)


def _main1_pair(n: int, w: int, delta: int, m: int):
    """A widely spaced balanced pair whose critical range covers m+1/2.

    Both types are built trusted, with tuple.__new__, from the ints that
    check_main1_step has checked: n >= 2, delta = n mod 2, w even at odd
    rank, m an integer.  Their closed forms keep every rule of InfinityType.
    kappa strictly decreases in steps of 2*gap (gap >= 16), and its last
    entry is 4*gap + 42 - kap_par >= 4*gap + 41.  kappa = kap_par mod 2,
    which is w's parity at even rank and odd at odd rank.  ell = kappa -
    gprime (gprime = gap + 1 - kap_par) strictly decreases, ends above
    3*gap, and is odd, which Sigma's rank n - 1 needs: odd at odd n - 1,
    and delta's parity at even n - 1, where delta = n mod 2 is odd.
    Sigma's w = delta is even when n - 1 is odd.
    Balance: ell_j = kappa_j - gprime, 0 < gprime < 2*gap, lies strictly
    between kappa_{j+1} = kappa_j - 2*gap and kappa_j.  Criticality: with
    t = 2m + 1 + w + delta (2k + a in arch_l.critical_set), m + 1/2 and
    m2 + 1/2 have t and 2 - t, each critical when 3 - kc <= t <= kc - 1;
    and kc >= gap = 2*need + 8 >= 2*max(|t|, |2 - t|) + 8, since the least
    |kappa_i - ell_j| is min(gprime, 2*gap - gprime) >= gap - 1, while
    kappa_min + ell_min - 1, kappa_min and ell_min are larger; no Gamma_R
    character occurs, as no kappa_i = ell_j and adjacent ranks are never
    both odd.  By s -> 1 - s, -m + 1/2 is critical for the duals.
    Regularity: kappa and ell step down by 2*gap >= 32, and end at
    4*gap + 42 - kap_par >= 105 and at least 3*gap + 41, which pass the gap
    test (>= 6) and the last-entry test (>= 3, or >= 5 at odd rank).
    test_main1_pair_matches_the_checked_oracle_up_to_the_caps tests all three,
    and compares the pair with tests.oracles.main1_pair's checked build.
    """
    r = n // 2
    need = max(abs(2 * m + 1 + w + delta), abs(1 - w - delta - 2 * m), 4)
    gap = 2 * (need + 4)
    kap_par = (w % 2) if n % 2 == 0 else 1
    base = 2 * gap * (r + 1) + 42 - kap_par
    step = 2 * gap
    kappa = tuple(range(base, base - step * r, -step))
    gprime = gap if kap_par == 1 else gap + 1  # keeps ell odd
    ell = tuple(range(base - gprime, base - step * ((n - 1) // 2), -step))
    new = tuple.__new__
    return (GlobalRep("Pi", new(InfinityType, (n, kappa, w, 0)), _OMEGA_PI),
            GlobalRep("Sigma", new(InfinityType, (n - 1, ell, delta, 0)),
                      _OMEGA_SIGMA))


def require_main1_hypotheses(n: int, w: int, delta: int) -> None:
    """The rank and parity hypotheses of a main1 step, which check_main1_step
    checks first, before the point m; each is an int, not a bool."""
    n, w, delta = map(json_int, (n, w, delta))
    if n < 1:
        raise ValueError("rank must be positive")
    if delta % 2 != n % 2:
        raise ValueError("delta must have the parity of n")
    if n % 2 and w % 2:
        raise ValueError("w must be even for odd rank")


def check_main1_step(n: int, w: int, delta: int, m,
                     corrupt: bool = False) -> CheckResult:
    """Replay one induction step of the duality period relation at rank n.

    Combines the critical-value factorization at m for (Pi, Sigma) and at -m
    for the duals, the functional-equation ratio at m0 = m + 1/2, the
    archimedean twist and i-parity comparisons, and the rank-(n-1) relation,
    against the rank-n relation as target.  The input is checked once, the
    pair's hypotheses hold by construction, and each atom is built once.
    """
    require_main1_hypotheses(n, w, delta)
    m = _integer_m(m)
    if n == 1:
        return CheckResult(FormalPeriod())
    if 2 * m == -(w + delta):
        raise ValueError("central point excluded")

    pi, sigma = _main1_pair(n, w, delta, m)
    m2 = -m - w - delta  # the i-parity point, which the twist moves -m to
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    parity = arch_l.pair_epsilon_class(pi.inf, sigma.inf)
    q_sigma, target = rel_main1(sigma, eps_prime), rel_main1(pi, eps)
    # Each distinct atom is built once from checked data, so equal atoms
    # of the step are one object.  The BW atoms are those of the two main1
    # relations: p(X, e) on the lhs, p(X^v, e) first on the rhs.
    (bw_s,), (bw_p,) = q_sigma.lhs._exp, target.lhs._exp
    bw_sd, bw_pd = next(iter(q_sigma.rhs._exp)), next(iter(target.rhs._exp))
    pair = pair_label(pi, sigma)
    dual_pair = f"{dual_label(pi.label)}x{dual_label(sigma.label)}"
    s0, new = f"{2 * m + 1}/2", tuple.__new__
    lval = new(PeriodAtom, ("LVal", (s0, pair)))
    lval_d = new(PeriodAtom, ("LVal", (f"{1 - 2 * m}/2", dual_pair)))
    archz = new(PeriodAtom, ("ArchZ", (str(m), pair)))
    archz2 = new(PeriodAtom, ("ArchZ", (str(m2), pair)))
    archz_d = new(PeriodAtom, ("ArchZ", (str(-m), dual_pair)))
    raghuram_cite = "critical-value factorization over a balanced pair"
    steps = [
        (Relation(f"raghuram[m={m},{pair}]", raghuram_cite,
                  FormalPeriod._of_exp({lval: 1}),
                  _period({archz: 1, bw_p: 1, bw_s: 1}, (sigma.omega, 1))), 1),
        # the class of Sigma^v's central character is Sigma's inverted
        (Relation(f"raghuram[m={-m},{dual_pair}]", raghuram_cite,
                  FormalPeriod._of_exp({lval_d: 1}),
                  _period({archz_d: 1, bw_pd: 1, bw_sd: 1},
                          (sigma.omega, -1))), -1),
        (Relation(f"duality-ratio[m0={s0},{pair}]",
                  "functional-equation ratio under duality",
                  FormalPeriod._of_exp({lval: 1}),
                  _period({ATOM_I: parity, lval_d: 1}, (pi.omega, n - 1),
                          (sigma.omega, n))), -1),
        (Relation(f"arch-twist[{-m},{dual_pair}]",
                  "archimedean period comparison under |.|-twists",
                  FormalPeriod._of_exp({archz_d: 1}),
                  FormalPeriod._of_exp({archz2: 1})), -1),
        (Relation(f"arch-iparity[{m},{m2},{pair}]",
                  "i-power comparison of archimedean periods",
                  FormalPeriod._of_exp({archz: 1}),
                  _period({archz2: 1,
                           ATOM_I: (m - m2) * (n * (n - 1) // 2)})), 1),
        (q_sigma, 1)]
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
    Pi's kappa_j = 8 + 6j with w = 0 has gaps of exactly 6 and last entry
    14, so Pi is regular at every n.
    """
    if json_int(n) < 1:
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
    if json_int(n) < 1 or json_int(nprime) < 1:
        raise ValueError("ranks must be positive")
    if nprime % 2 == 0:
        return CheckResult(FormalPeriod())
    pair = "PixSigma"
    m0 = Fraction(nprime, 2)
    ipow = n if include_i_power else 0
    rel_period = (FormalPeriod.atom(ATOM_I, ipow)
                  * FormalPeriod.atom(PeriodAtom("BW", ("Pi", eps_num)))
                  * FormalPeriod.atom(PeriodAtom("BW", ("Pi", -eps_num)), -1))
    q_hr = Relation(f"harder-raghuram[{pair},m0={m0}]",
                    "successive critical values against relative periods",
                    FormalPeriod.atom(PeriodAtom("LVal", (m0, pair))),
                    FormalPeriod.atom(PeriodAtom("LVal", (m0 + 1, pair)))
                    * rel_period ** nprime)
    gexp = _CHI ** n * _OMEGA_PI ** -1
    q_c = rel_corollary_main("Pi", gexp)
    target_rhs = (FormalPeriod.atom(ATOM_I, ipow * nprime)
                  * gexp ** nprime
                  * FormalPeriod.atom(PeriodAtom("LVal", (m0 + 1, pair))))
    target = Relation(f"theorem-main2[{pair}]",
                      "ratio of successive critical values",
                      FormalPeriod.atom(PeriodAtom("LVal", (m0, pair))),
                      target_rhs)
    if corrupt:
        target = _corrupted(target, _CHI)
    steps = [(q_hr, 1), (target, -1), (q_c, eps_num * nprime)]
    if eps_num == -1:
        steps.append((rel_quadratic(gexp), -nprime))
    return _compose(steps, i_parity=(ipow * nprime) % 2)


def check_motivic_dual(n: int, i: int = None,
                       corrupt: bool = False) -> CheckResult:
    """Replay c_i(M^v) = delta(M)^{-2} c_i(M) through a rank-2 auxiliary N
    in the i-th Hodge gap, for each admissible i (or the one given).

    M has rank n, weight 0, kappa_j = 4(r - j) + 5 and d+ = r + n mod 2,
    and N = N{i} has rank 2, weight 0, kappa (kappa_i + 2) and d+ = d- = 1.
    Each distinct atom of a gap is built once: the gap's relations are
    those of yoshida's rank-2 expansion (of M (x) N and of M^v (x) N^v),
    determinant and duality builders, written straight from one table."""
    if json_int(n) < 2:
        raise ValueError("rank must be at least 2")
    r = n // 2
    if i is not None and not 1 <= json_int(i) <= r - 1:
        raise ValueError("i must lie in 1..floor(n/2)-1")
    # for odd n, eps = d+ - d- = +1 for this M adds one more c^+(N) to the
    # expansion of c^+(M (x) N), one more c^-(N^v) to that of
    # c^-(M^v (x) N^v), and one more step of dual[N,0,1,0]
    odd, new, p = n % 2, tuple.__new__, FormalPeriod._of_exp
    delta_m, md = new(PeriodAtom, ("Delta", ("M",))), dual_label("M")
    expand = "rank-2 auxiliary tensor expansion of c^{+-}"
    dual = "duality of fundamental periods"
    steps = []
    for idx in [i] if i is not None else range(1, r):
        nl, mn = f"N{idx}", f"M(x)N{idx}"
        nd, mnd = dual_label(nl), dual_label(mn)  # mnd: M^v (x) N^v
        dci, dci_d = (new(PeriodAtom, ("DCi", (lbl, idx)))
                      for lbl in ("M", md))
        d_n, d_nd, d_mn = (new(PeriodAtom, ("Delta", (lbl,)))
                           for lbl in (nl, nd, mn))
        c_np, c_nm, c_ndp, c_ndm, c_mn, c_mnd = (
            new(PeriodAtom, ("DC", pay)) for pay in (
                (nl, 1), (nl, -1), (nd, 1), (nd, -1), (mn, 1), (mnd, -1)))
        # the corrupted control lowers the delta(N) exponent by one
        tag = "[corrupted]" if corrupt else ""
        steps += [
            (Relation(f"rank2-expansion[{mn},{idx},+1]", expand, p({c_mn: 1}),
                      p({dci: 1, d_n: idx, c_np: r - idx + odd,
                         c_nm: r - idx})), 1),
            (Relation(f"rank2-expansion[{mnd},{idx},-1]", expand,
                      p({c_mnd: 1}), p({dci_d: 1, d_nd: idx, c_ndp: r - idx,
                                        c_ndm: r - idx + odd})), -1),
            (Relation(f"deligne-dual[{mn}]",
                      "duality of c^{+-} for the tensor product",
                      p({c_mnd: 1}), p({d_mn: -1, c_mn: 1})), 1),
            (Relation(f"delta-tensor[{mn}]{tag}",
                      "determinant period of a tensor product", p({d_mn: 1}),
                      p({delta_m: 2, d_n: n - 1 if corrupt else n})), -1),
            (Relation(f"dual[{nl},1,0,0]", dual, p({d_nd: 1}), p({d_n: -1})),
             -idx),
            # rewrite c^-(N^v) and c^+(N^v)
            (Relation(f"dual[{nl},0,1,0]", dual, p({c_ndm: 1}),
                      p({c_np: 1, d_n: -1})), -(r - idx) - odd),
            (Relation(f"dual[{nl},0,0,1]", dual, p({c_ndp: 1}),
                      p({c_nm: 1, d_n: -1})), -(r - idx)),
            (Relation(f"motivic-dual[M,{idx}]",
                      "duality of the middle fundamental periods",
                      p({dci_d: 1}), p({delta_m: -2, dci: 1})), -1)]
    return _compose(steps)
