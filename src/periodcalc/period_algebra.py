"""Mechanical replays of the period-relation derivations: each check_*
function multiplies the quotients of its relations exactly as the
derivation does and returns the residual, which must be the identity.

Each relation kind has one writer, which writes a step (name, (citation,
lhs, rhs), exponent), its body as a RelationDB holds it and its sides
exponent dicts of checked atoms; formal.derived sums the steps into the
residual, and lhs = rhs holds modulo algebraic, Galois-natural units.
"""

from __future__ import annotations

from .formal import (ATOM_I, CheckResult, FormalPeriod, PeriodAtom, derived,
                     dual_label, gauss_fp, _period)
from .infinity_types import as_fraction, json_bool, json_int

__all__ = [
    "FormalPeriod", "PeriodAtom", "CheckResult", "check_main1_step",
    "check_corollary_main", "check_theorem_main2", "check_motivic_dual",
]


# the Gauss atoms of the central character of the builtins' Pi, of Sigma's
# in a main1 step and of the builtins' default chi
_G_PI = PeriodAtom("Gauss", ("omega_Pi",))
_G_SIGMA = PeriodAtom("Gauss", ("omega_Sigma",))
_G_CHI = PeriodAtom("Gauss", ("chi",))
# the builtins' BW atoms p(X, eps), keyed by (X, eps)
_BW = {(label, eps): PeriodAtom("BW", (label, eps))
       for label in ("Pi", "Pi^v", "Sigma", "Sigma^v") for eps in (1, -1)}
# the labels of a main1 step's pair and of its duals
_PAIR, _DUAL_PAIR = "PixSigma", f"{dual_label('Pi')}x{dual_label('Sigma')}"


def _integer_m(m) -> int:
    """The point m of a pair of adjacent ranks, which must be an integer."""
    m = as_fraction(m)
    if m.denominator != 1:
        raise ValueError("m must be an integer for adjacent ranks")
    return m.numerator


def _main1(bw, bw_dual, gauss, g: int, e: int, tag: str = "") -> tuple:
    """The step p(Pi, eps) = G(omega_Pi)^{n-1} p(Pi^v, eps) to the power e,
    from the BW atoms bw of p(Pi, eps) and bw_dual of p(Pi^v, eps), the
    Gauss atom of omega_Pi and its exponent g, n - 1 unless a corrupted
    control lowers it, dropped when 0.  The relation holds for regular Pi;
    each caller's docstring shows its Pi regular."""
    label, eps = bw[1]
    return (f"main1[{label},{'+1' if eps == 1 else '-1'}]{tag}",
            ("period relation under duality", {bw: 1},
             {bw_dual: 1, gauss: g} if g else {bw_dual: 1}), e)


def _corollary(gexp: dict, e: int, *corrupt) -> tuple:
    """The step p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -) to the power e,
    with gexp the Gauss exponents of chi^n omega_Pi^{-1}; the corrupted
    control multiplies the one class (g, k) of corrupt into its rhs."""
    return ("corollary-main[Pi]" + ("[corrupted]" if corrupt else ""),
            ("sign change of Betti-Whittaker periods", {_BW["Pi", 1]: 1},
             _period({**gexp, _BW["Pi", -1]: 1}, *corrupt)._exp), e)


def _quadratic(g: dict, e: int) -> tuple:
    """The step G(chi)^2 = 1 to the power e, for a quadratic character chi
    of Gauss exponents g."""
    char = "*".join(f"{a[1][0]}^{k}"
                    for a, k in FormalPeriod._of_exp(g).items())
    return (f"central-character-quadratic[{char}]",
            ("Gauss sum of a quadratic character is algebraic",
             _period({}, (g, 2))._exp, {}), e)


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
    against the rank-n relation as target.  The input is checked once, at
    the boundary; the step then builds no type, reads its signs from the
    checked ints, builds its five atoms that depend on m and, with four BW
    atoms from the module's table, writes the seven relations' sides.

    The pair is Pi = (kappa; w) of rank n and Sigma = (ell; delta) of rank
    n - 1, both with sign_choice 0 (tests.oracles.main1_pair builds it in
    full).  With need = max(|2m + 1 + w + delta|, |1 - w - delta - 2m|, 4),
    gap = 2*need + 8 >= 16, kap_par = w mod 2 at even rank and 1 at odd
    rank, and gprime = gap + 1 - kap_par: kappa_j = 2*gap*(r + 2 - j) + 42
    - kap_par for j = 1..r = floor(n/2), and ell_j = kappa_j - gprime for
    j = 1..floor((n-1)/2).  The step has checked n >= 2, delta = n mod 2, w
    even at odd rank and m an integer, and the closed forms keep every rule
    of InfinityType.  kappa strictly decreases, its last entry is
    4*gap + 42 - kap_par >= 4*gap + 41, and kappa = kap_par mod 2.  ell
    strictly decreases, ends above 3*gap, and is odd, which Sigma's rank
    n - 1 needs: odd at odd n - 1, and delta's parity at even n - 1, where
    delta = n mod 2 is odd.  Sigma's w = delta is even when n - 1 is odd.
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
    test_main1_pair_matches_the_checked_oracle_up_to_the_caps tests all three.

    Signs: the odd-rank member's sign is its signature (-1)^{r + w/2}, so
    eps = (-1)^{(n-1)/2 + w/2} at odd n and eps' = (-1)^{(n-2)/2 + delta/2}
    at even n; the other sign is (-1)^{m+n} times that one.  The duals'
    signs are the pair's, as negating w keeps w/2 mod 2 and
    (-1)^{-m+n} = (-1)^{m+n}.  The epsilon class of the pair (i^class in the
    duality ratio) sums the kappa of the even-rank member, since only
    phi_k (x) character adds k: ((n-1)/2) mod 2 at odd n, as ell's (n-1)/2
    entries are odd, and (n/2)(w mod 2) mod 2 at even n.
    """
    require_main1_hypotheses(n, w, delta)
    json_bool(corrupt)
    m = _integer_m(m)
    if n == 1:
        return CheckResult(FormalPeriod())
    if 2 * m == -(w + delta):
        raise ValueError("central point excluded")

    m2 = -m - w - delta  # the i-parity point, which the twist moves -m to
    flip = -1 if (m + n) % 2 else 1
    if n % 2:
        eps = -1 if ((n - 1) // 2 + w // 2) % 2 else 1
        eps_prime, parity = flip * eps, (n - 1) // 2 % 2
    else:
        eps_prime = -1 if ((n - 2) // 2 + delta // 2) % 2 else 1
        eps, parity = flip * eps_prime, n // 2 * (w % 2) % 2
    # BW atoms from the table, and each atom that depends on m built once
    # from checked data, so equal atoms of the step are one object
    bw_p, bw_pd = _BW["Pi", eps], _BW["Pi^v", eps]
    bw_s, bw_sd = _BW["Sigma", eps_prime], _BW["Sigma^v", eps_prime]
    s0, new = f"{2 * m + 1}/2", tuple.__new__
    lval = new(PeriodAtom, ("LVal", (s0, _PAIR)))
    lval_d = new(PeriodAtom, ("LVal", (f"{1 - 2 * m}/2", _DUAL_PAIR)))
    archz = new(PeriodAtom, ("ArchZ", (str(m), _PAIR)))
    archz2 = new(PeriodAtom, ("ArchZ", (str(m2), _PAIR)))
    archz_d = new(PeriodAtom, ("ArchZ", (str(-m), _DUAL_PAIR)))
    # zero exponents are dropped, as formal._period drops them
    ratio = {ATOM_I: 1, lval_d: 1, _G_PI: n - 1, _G_SIGMA: n}
    if not parity:
        del ratio[ATOM_I]
    iparity = {archz2: 1, ATOM_I: 1}
    if (m - m2) * (n * (n - 1) // 2) % 2 == 0:
        del iparity[ATOM_I]
    raghuram_cite = "critical-value factorization over a balanced pair"
    return derived((
        (f"raghuram[m={m},{_PAIR}]", (raghuram_cite, {lval: 1},
         {archz: 1, bw_p: 1, bw_s: 1, _G_SIGMA: 1}), 1),
        # the class of Sigma^v's central character is Sigma's inverted
        (f"raghuram[m={-m},{_DUAL_PAIR}]", (raghuram_cite, {lval_d: 1},
         {archz_d: 1, bw_pd: 1, bw_sd: 1, _G_SIGMA: -1}), -1),
        (f"duality-ratio[m0={s0},{_PAIR}]",
         ("functional-equation ratio under duality", {lval: 1}, ratio), -1),
        (f"arch-twist[{-m},{_DUAL_PAIR}]",
         ("archimedean period comparison under |.|-twists", {archz_d: 1},
          {archz2: 1}), -1),
        (f"arch-iparity[{m},{m2},{_PAIR}]",
         ("i-power comparison of archimedean periods", {archz: 1}, iparity),
         1),
        _main1(bw_s, bw_sd, _G_SIGMA, n - 2, 1),
        # the corrupted control lowers the exponent of G(omega_Pi) by one
        _main1(bw_p, bw_pd, _G_PI, n - 2 if corrupt else n - 1, 1,
               "[corrupted]" if corrupt else "")))


def check_corollary_main(n: int, orthogonal: bool = True, chi_expr=None,
                         corrupt: bool = False) -> CheckResult:
    """Replay the sign-change relation for a chi-orthogonal Pi of rank 2n:

        p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -)

    from the duality relation, the character twist by chi^{-1} (using
    Pi^v = Pi (x) chi^{-1}), and quadraticity of chi^n omega_Pi^{-1}.
    Pi's kappa_j = 8 + 6j with w = 0 has gaps of exactly 6 and last entry
    14, so Pi is regular at every n; the replay builds no type, as its
    relations read only the rank 2n of Pi.  chi is chi_expr's Gauss class,
    or the default chi when chi_expr is None; the corrupted control needs a
    nontrivial chi.
    """
    if json_int(n) < 1:
        raise ValueError("n must be positive")
    json_bool(orthogonal)
    json_bool(corrupt)
    chi = {_G_CHI: 1} if chi_expr is None else gauss_fp(chi_expr)._exp
    if corrupt and not chi:
        raise ValueError("corrupt needs a nontrivial chi; the trivial "
                         "character has no relation to corrupt")
    gexp = _period({}, (chi, n), ({_G_PI: 1}, -1))._exp
    # p(Pi^v, +) = G(chi^{-1})^{n(2n-1)} p(Pi, eps(chi^{-1}_inf)), where
    # eps(sgn^delta) = (-1)^delta and delta = 1 for a chi-orthogonal Pi
    sign = {_BW["Pi", -1 if orthogonal else 1]: 1}
    steps = [_main1(_BW["Pi", 1], _BW["Pi^v", 1], _G_PI, 2 * n - 1, 1),
             ("rs-twist[Pi^v,+1]", ("character twist of Betti-Whittaker "
              "periods", {_BW["Pi^v", 1]: 1},
              _period({}, (chi, -n * (2 * n - 1)), (sign, 1))._exp), 1),
             _corollary(gexp, -1, (chi, 1)) if corrupt
             else _corollary(gexp, -1)]
    if gexp:
        steps.append(_quadratic(gexp, -n))
    return derived(steps)


def check_theorem_main2(n: int, nprime: int, include_i_power: bool = True,
                        eps_num: int = 1,
                        corrupt: bool = False) -> CheckResult:
    """Replay the successive-critical-value ratio for GL(2n) x GL(n'):

        L(m0) / L(m0+1) = i^{nn'} G(chi^n omega_Pi^{-1})^{n'}

    via n' copies of the relative period i^n p(Pi,eps)/p(Pi,-eps) rewritten
    through the sign-change relation.  Even n' is the trivially algebraic
    case.  At odd n', m0 = n'/2 and i^{nn'} has the parity of n.
    """
    if json_int(n) < 1 or json_int(nprime) < 1:
        raise ValueError("ranks must be positive")
    if json_int(eps_num) not in (1, -1):
        raise ValueError("eps_num must be +1 or -1")
    json_bool(include_i_power)
    json_bool(corrupt)
    if nprime % 2 == 0:
        return CheckResult(FormalPeriod())
    ipar = n % 2 if include_i_power else 0
    lval, lval1 = (tuple.__new__(PeriodAtom, ("LVal", (f"{k}/2", _PAIR)))
                   for k in (nprime, nprime + 2))
    hr = {lval1: 1, ATOM_I: 1, _BW["Pi", eps_num]: nprime,
          _BW["Pi", -eps_num]: -nprime}
    # the corrupted control multiplies one more G(chi) into the target
    ratio = {ATOM_I: 1, _G_CHI: n * nprime + 1 if corrupt else n * nprime,
             _G_PI: -nprime, lval1: 1}
    if not ipar:  # zero exponents are dropped, as formal._period drops them
        del hr[ATOM_I], ratio[ATOM_I]
    gexp = {_G_CHI: n, _G_PI: -1}
    tag = "[corrupted]" if corrupt else ""
    steps = [(f"harder-raghuram[{_PAIR},m0={nprime}/2]",
              ("successive critical values against relative periods",
               {lval: 1}, hr), 1),
             (f"theorem-main2[{_PAIR}]{tag}",
              ("ratio of successive critical values", {lval: 1}, ratio), -1),
             _corollary(gexp, eps_num * nprime)]
    if eps_num == -1:
        steps.append(_quadratic(gexp, -nprime))
    return derived(steps, ipar)


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
    json_bool(corrupt)
    # for odd n, eps = d+ - d- = +1 for this M adds one more c^+(N) to the
    # expansion of c^+(M (x) N), one more c^-(N^v) to that of
    # c^-(M^v (x) N^v), and one more step of dual[N,0,1,0]
    odd, new = n % 2, tuple.__new__
    delta_m, md = new(PeriodAtom, ("Delta", ("M",))), dual_label("M")
    expand = "rank-2 auxiliary tensor expansion of c^{+-}"
    dual = "duality of fundamental periods"
    steps = []
    for idx in [i] if i is not None else range(1, r):
        nl, mn = f"N{idx}", f"M(x)N{idx}"
        nd, mnd = dual_label(nl), dual_label(mn)  # mnd: M^v (x) N^v
        dci = new(PeriodAtom, ("DCi", ("M", idx)))
        dci_d = new(PeriodAtom, ("DCi", (md, idx)))
        d_n = new(PeriodAtom, ("Delta", (nl,)))
        d_nd = new(PeriodAtom, ("Delta", (nd,)))
        d_mn = new(PeriodAtom, ("Delta", (mn,)))
        c_np = new(PeriodAtom, ("DC", (nl, 1)))
        c_nm = new(PeriodAtom, ("DC", (nl, -1)))
        c_ndp = new(PeriodAtom, ("DC", (nd, 1)))
        c_ndm = new(PeriodAtom, ("DC", (nd, -1)))
        c_mn = new(PeriodAtom, ("DC", (mn, 1)))
        c_mnd = new(PeriodAtom, ("DC", (mnd, -1)))
        # the corrupted control lowers the delta(N) exponent by one
        tag = "[corrupted]" if corrupt else ""
        steps += [
            (f"rank2-expansion[{mn},{idx},+1]", (expand, {c_mn: 1},
             {dci: 1, d_n: idx, c_np: r - idx + odd, c_nm: r - idx}), 1),
            (f"rank2-expansion[{mnd},{idx},-1]", (expand, {c_mnd: 1},
             {dci_d: 1, d_nd: idx, c_ndp: r - idx, c_ndm: r - idx + odd}),
             -1),
            (f"deligne-dual[{mn}]", ("duality of c^{+-} for the tensor "
             "product", {c_mnd: 1}, {d_mn: -1, c_mn: 1}), 1),
            (f"delta-tensor[{mn}]{tag}",
             ("determinant period of a tensor product", {d_mn: 1},
              {delta_m: 2, d_n: n - 1 if corrupt else n}), -1),
            (f"dual[{nl},1,0,0]", (dual, {d_nd: 1}, {d_n: -1}), -idx),
            # rewrite c^-(N^v) and c^+(N^v)
            (f"dual[{nl},0,1,0]", (dual, {c_ndm: 1}, {c_np: 1, d_n: -1}),
             -(r - idx) - odd),
            (f"dual[{nl},0,0,1]", (dual, {c_ndp: 1}, {c_nm: 1, d_n: -1}),
             -(r - idx)),
            (f"motivic-dual[M,{idx}]",
             ("duality of the middle fundamental periods", {dci_d: 1},
              {delta_m: -2, dci: 1}), -1)]
    return derived(steps)
