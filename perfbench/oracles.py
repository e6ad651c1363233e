"""Answers computed apart from periodcalc, used to check its outputs.

Nothing here imports periodcalc.  A real Weil-group parameter is a list of
constituents: ("c", parity, t) for the character sgn^parity |.|^t and
("d", k, t) for phi_k (x) |.|^t, with t an exact Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def arch_param(n: int, kappa, w: int, sign: int = 0) -> list:
    """The archimedean parameter of an infinity type (kappa; w) of rank n."""
    t = Fraction(w, 2)
    out = [("d", k, t) for k in kappa]
    if n % 2:
        out.append(("c", sign, t))
    return out


def _phi(k: int, t: Fraction) -> list:
    # phi_1 (x) |.|^t is reducible: |.|^t + sgn|.|^t
    return [("c", 0, t), ("c", 1, t)] if k == 1 else [("d", k, t)]


def _tensor_pair(x, y) -> list:
    t = x[2] + y[2]
    if x[0] == "c" and y[0] == "c":
        return [("c", (x[1] + y[1]) % 2, t)]
    if x[0] == "c" or y[0] == "c":
        k = y[1] if x[0] == "c" else x[1]
        return [("d", k, t)]
    return _phi(x[1] + y[1] - 1, t) + _phi(abs(x[1] - y[1]) + 1, t)


def tensor(a: list, b: list) -> list:
    return [z for x in a for y in b for z in _tensor_pair(x, y)]


def _ladders(param: list):
    """Lowest shift b per residue class of the Gamma factors of L(s, param).

    Gamma_C(s + b) has poles at s = -b, -b-1, ...; Gamma_R(s + b) at
    s = -b, -b-2, ....  A point lies on some ladder of a class exactly when
    it lies on the ladder of that class's lowest shift.
    """
    c_min, r_min = {}, {}
    for kind, a, t in param:
        if kind == "d":
            b = t + Fraction(a - 1, 2)
            key = b % 1
            c_min[key] = min(b, c_min.get(key, b))
        else:
            b = t + a
            key = b % 2
            r_min[key] = min(b, r_min.get(key, b))
    return c_min, r_min


def _is_pole(s0: Fraction, c_min: dict, r_min: dict) -> bool:
    b = c_min.get(-s0 % 1)
    if b is not None and s0 + b <= 0:
        return True
    b = r_min.get(-s0 % 2)
    return b is not None and s0 + b <= 0


def critical_points(pi, sigma) -> list:
    """Critical points of L(s, pi x sigma) by the Gamma-factor pole ladders.

    pi and sigma are (n, kappa, w) triples.  m0 in Z + (n + n')/2 is critical
    when neither L(s) at m0 nor the dual L-function at 1 - m0 has a pole.
    """
    param = tensor(arch_param(*pi), arch_param(*sigma))
    dual = [(kind, a, -t) for kind, a, t in param]
    lad, lad_dual = _ladders(param), _ladders(dual)
    offset = Fraction(pi[0] + sigma[0], 2) % 1
    # the Gamma_C ladders on the lattice bound the set on both sides
    b = lad[0].get(-offset % 1)
    b_dual = lad_dual[0].get((offset - 1) % 1)
    if b is None or b_dual is None:
        raise ValueError("critical set is unbounded")
    lo, hi = -b, 1 + b_dual
    out, s0 = [], lo + 1
    while s0 < hi:
        if not _is_pole(s0, *lad) and not _is_pole(1 - s0, *lad_dual):
            out.append(s0)
        s0 += 1
    return out


def critical_interval(pi, sigma) -> list:
    """Raghuram's closed form for even rank n: with d the least distance
    |kappa_i - l_j| (l = 1 counts for the character of an odd-rank sigma),
    the critical points are the m0 in Z + n'/2 with
    1 - (w + u + d)/2 <= m0 <= (d - w - u)/2."""
    (n, kappa, w), (n2, ell, u) = pi, sigma
    if n % 2:
        raise ValueError("the closed form needs even rank")
    d = min(abs(k - l) for k in kappa for l in list(ell) + [1] * (n2 % 2))
    lo, hi = 1 - Fraction(w + u + d, 2), Fraction(d - w - u, 2)
    out, s0 = [], lo
    if (s0 - Fraction(n2, 2)) % 1:
        s0 += Fraction(1, 2)
    while s0 <= hi:
        out.append(s0)
        s0 += 1
    return out


def hom_tensor_square(n: int, kappa, w: int, delta: int, u) -> int:
    """dim Hom(V (x) V, sgn^delta |.|^u) for V the parameter of (kappa; w)."""
    v = arch_param(n, kappa, w)
    u = Fraction(u)
    return sum(1 for x in v for y in v for z in _tensor_pair(x, y)
               if z == ("c", delta % 2, u))


def weight_of(n: int, kappa, w: int) -> list:
    """The pure dominant weight of an infinity type:
    mu_i = (kappa_i - n - 2 + 2i - w)/2 for i <= n/2, mu_{n+1-i} = -w - mu_i,
    and -w/2 in the middle for odd n."""
    r = n // 2
    head = [(kappa[i] - n - 2 + 2 * (i + 1) - w) // 2 for i in range(r)]
    mid = [-w // 2] if n % 2 else []
    return head + mid + [-w - x for x in reversed(head)]


def asai_type(k1: int, w1: int, k2: int, w2: int):
    """Infinity type of the GL(4) tensor transfer of two GL(2) types."""
    return [k1 + k2 - 1, abs(k1 - k2) + 1], w1 + w2 + 1


def _bw_atoms(label: str, n: int, eps=None) -> dict:
    """Atoms of prod_i c_i(X) * c^eps(X) (n even) or * c^+ c^- (n odd > 1)."""
    out = {f"DCi({label},{i})": 1 for i in range(1, n // 2)}
    if n % 2 == 0:
        out[f"DC({label},{'+' if eps == 1 else '-'})"] = 1
    elif n > 1:
        out[f"DC({label},+)"] = out[f"DC({label},-)"] = 1
    return out


def deligne_relation(m: dict, nn: dict, sign: int):
    """c^sign(M (x) N) = delta(N) f_BW(X_M) f_BW(X_N) for N of rank n-1.

    The odd-rank member carries c^+ c^-; the even-rank member carries
    c^eps, with eps = sign * (d+ - d-) of the odd-rank member.  Returns
    (lhs, rhs) as {atom: exponent} maps.
    """
    n = m["n"]
    odd = m if n % 2 else nn
    eps = sign * (odd["dplus"] - odd["dminus"])
    rhs = {f"Delta({nn['label']})": 1}
    rhs.update(_bw_atoms(m["label"], n, eps))
    rhs.update(_bw_atoms(nn["label"], n - 1, eps))
    lhs = {f"DC({m['label']}(x){nn['label']},{'+' if sign == 1 else '-'})": 1}
    return lhs, rhs


def corrupt_residual(builtin: str, n: int, i=None, chi: str = "chi") -> dict:
    """The residual a negative control must leave: each corruption moves
    one exponent by one, so exactly that atom survives to the first power.

    main1 lowers the Gauss(omega_Pi) exponent of the rank-n target;
    corollary-main and main2 put one extra Gauss(chi) on the target;
    motivic-dual lowers the delta(N_i) exponent of delta(M (x) N_i) for every
    index i it replays.
    """
    if builtin == "main1":
        return {"Gauss(omega_Pi)": 1}
    if builtin == "corollary-main":
        return {f"Gauss({chi})": 1}
    if builtin == "main2":
        return {"Gauss(chi)": 1}
    indices = [i] if i is not None else range(1, n // 2)
    return {f"Delta(N{j})": -1 for j in indices}


def parse_period(text: str) -> dict:
    """Read a rendered formal period 'A^e * B^f' (or '1') as {atom: e}."""
    if text == "1":
        return {}
    out = {}
    for part in text.split(" * "):
        atom, _, e = part.rpartition("^")
        out[atom] = int(e)
    return out
