"""Admissible-polynomial period calculus for regular pure motives.

Fundamental periods delta(M), c^{+-}(M), c_i(M) are evaluations of the
generator polynomials det, f^{+-}, f_i at the period matrix of M; the period
matrix itself is never materialized, only exponent identities between the
fundamental-period atoms are produced (as Relation records over the formal
period group).
"""

from __future__ import annotations

from collections import namedtuple

from .formal import (ATOM_TWO_PI_I, FormalPeriod, PeriodAtom, Relation,
                     dual_label, _period)
from .infinity_types import (checked_kappa, interlaces, json_int, json_list,
                             json_str)


AdmissibleTypeTag = namedtuple("AdmissibleTypeTag", "a kplus kminus")


class FundamentalMonomial(namedtuple(
        "FundamentalMonomial", "n dplus dminus m0 mi mplus mminus")):
    """det^m0 * prod f_i^mi * (f^+)^mplus * (f^-)^mminus on rank n."""

    __slots__ = ()

    def __new__(cls, n: int, dplus: int, dminus: int, m0: int = 0,
                mi: tuple = (), mplus: int = 0, mminus: int = 0):
        mi = tuple(map(json_int, mi))
        m0, mplus, mminus = json_int(m0), json_int(mplus), json_int(mminus)
        if (json_int(dplus) + json_int(dminus) != json_int(n)
                or abs(dplus - dminus) > 1):
            raise ValueError("d+ + d- must equal n with |d+ - d-| <= 1")
        if len(mi) != max(n // 2 - 1, 0):
            raise ValueError("mi must have floor(n/2)-1 entries")
        return tuple.__new__(cls, (n, dplus, dminus, m0, mi, mplus, mminus))


def monomial_type(m: FundamentalMonomial) -> AdmissibleTypeTag:
    """The type (a; k+, k-) of m, summed in one pass over its exponents;
    the generators have the types
        det    (1^n; 1, 1)
        f^+    (1^{d+} 0^{n-d+}; 1, 0)
        f^-    (1^{d-} 0^{n-d-}; 0, 1)
        f_i    (2^i 1^{n-2i} 0^i; 1, 1)
    so f_i^e adds e to a_j (j from 0) for j < i, and again for j < n - i.
    """
    a = tuple(m.m0 + m.mplus * (j < m.dplus) + m.mminus * (j < m.dminus)
              + sum(e * ((j < i) + (j < m.n - i))
                    for i, e in enumerate(m.mi, start=1))
              for j in range(m.n))
    k = m.m0 + sum(m.mi)
    return AdmissibleTypeTag(a, k + m.mplus, k + m.mminus)


def dual_monomial(m: FundamentalMonomial) -> FundamentalMonomial:
    return FundamentalMonomial(m.n, m.dplus, m.dminus, m.m0, m.mi,
                               m.mminus, m.mplus)


def f_bw(n: int, eps: int = None, dplus: int = None,
         dminus: int = None) -> FundamentalMonomial:
    """The monomial prod f_i * f^eps (n even) or prod f_i * f^+ f^- (n odd)."""
    if n % 2 == 0:
        if eps not in (1, -1):
            raise ValueError("even rank needs eps in {+1, -1}")
        dplus = n // 2 if dplus is None else dplus
        dminus = n // 2 if dminus is None else dminus
        mp, mm = (1, 0) if eps == 1 else (0, 1)
    else:
        if eps is not None:
            raise ValueError("odd rank admits no eps choice")
        dplus = (n + 1) // 2 if dplus is None else dplus
        dminus = n // 2 if dminus is None else dminus
        mp, mm = (0, 0) if n == 1 else (1, 1)
    mi = (1,) * max(n // 2 - 1, 0)
    return FundamentalMonomial(n, dplus, dminus, 0, mi, mp, mm)


class MotiveShape(namedtuple("MotiveShape",
                             "label n weight kappa dplus dminus")):
    __slots__ = ()

    def __new__(cls, label: str, n: int, weight: int, kappa: tuple,
                dplus: int, dminus: int):
        if not json_str(label):
            raise ValueError("motive needs a label")
        kappa, weight = checked_kappa(n, kappa), json_int(weight)
        if n % 2 and weight % 2:
            raise ValueError("weight must be even for odd rank")
        if any((k - weight - 1) % 2 for k in kappa):
            raise ValueError("kappa_i must have parity opposite to the weight")
        # at even n this forces d+ = d-
        if json_int(dplus) + json_int(dminus) != n or abs(dplus - dminus) > 1:
            raise ValueError("d+ + d- must equal n with |d+ - d-| <= 1")
        return tuple.__new__(cls, (label, n, weight, kappa, dplus, dminus))

    @classmethod
    def from_json(cls, data: dict) -> "MotiveShape":
        return cls(json_str(data["label"]), json_int(data["n"]),
                   json_int(data["weight"]),
                   tuple(map(json_int, json_list(data["kappa"]))),
                   json_int(data["dplus"]), json_int(data["dminus"]))


def tate_twist_motive(M: MotiveShape, t: int) -> MotiveShape:
    # Hodge types shift by (-t, -t); kappa is unchanged
    return MotiveShape(f"{M.label}({t})", M.n, M.weight - 2 * t, M.kappa,
                       M.dplus, M.dminus)


def tensor_label(M: MotiveShape, N: MotiveShape) -> str:
    # the tensor of two duals is the dual of the tensor; normalizing the
    # label here lets duality relations connect across tensor products
    if M.label.endswith("^v") and N.label.endswith("^v"):
        return dual_label(f"{M.label[:-2]}(x){N.label[:-2]}")
    # a lone dual N^v is bracketed, so M (x) N^v never reads as (M (x) N)^v
    if N.label.endswith("^v"):
        return f"{M.label}(x)({N.label})"
    return f"{M.label}(x){N.label}"


def _monomial_exp(m: FundamentalMonomial, label: str, dual=False) -> dict:
    """The nonzero exponents of m (or of its dual) at the motive label."""
    mplus, mminus = (m.mminus, m.mplus) if dual else (m.mplus, m.mminus)
    exp = {PeriodAtom("DCi", (label, i)): e
           for i, e in enumerate(m.mi, start=1) if e}
    for e, kind, payload in ((m.m0, "Delta", (label,)),
                             (mplus, "DC", (label, 1)),
                             (mminus, "DC", (label, -1))):
        if e:
            exp[PeriodAtom(kind, payload)] = e
    return exp


def monomial_atoms(m: FundamentalMonomial, M: MotiveShape) -> FormalPeriod:
    """Evaluate a generator monomial at the period matrix of M, as atoms."""
    return FormalPeriod._of_exp(_monomial_exp(m, M.label))


def tensor_deligne(M: MotiveShape, N: MotiveShape, sign: int) -> Relation:
    """c^sign(M (x) N) = delta(N) * f_BW^eps(X_M) * f_BW^eps'(X_N)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if M.n != N.n + 1:
        raise ValueError("ranks must differ by exactly 1 (M = N + 1)")
    if not interlaces(M.kappa, N.kappa):
        raise ValueError("motives are not in good position")
    n = M.n
    if n % 2:
        eps = M.dplus - M.dminus
        eps_prime = sign * eps
        fm = f_bw(n, dplus=M.dplus, dminus=M.dminus)
        fn = f_bw(n - 1, eps=eps_prime, dplus=N.dplus, dminus=N.dminus)
    else:
        eps_prime = N.dplus - N.dminus
        eps = sign * eps_prime
        fm = f_bw(n, eps=eps, dplus=M.dplus, dminus=M.dminus)
        fn = f_bw(n - 1, dplus=N.dplus, dminus=N.dminus)
    lhs = FormalPeriod.atom(PeriodAtom("DC", (tensor_label(M, N), sign)))
    rhs = _period({PeriodAtom("Delta", (N.label,)): 1},
                  (monomial_atoms(fm, M), 1), (monomial_atoms(fn, N), 1))
    return Relation(f"tensor-deligne[{tensor_label(M, N)},{sign:+d}]",
                    "balanced tensor Deligne-period factorization",
                    lhs, rhs)


def dual_relation(m: FundamentalMonomial, M: MotiveShape) -> Relation:
    """f^dual(X_{M^v}) = delta(M)^{-(k+ + k-)} * f(X_M), where m has
    k+ + k- = 2(m0 + sum mi) + m+ + m-, as monomial_type sums it."""
    delta = FormalPeriod.atom(PeriodAtom("Delta", (M.label,)))
    k = 2 * (m.m0 + sum(m.mi)) + m.mplus + m.mminus
    exps = ",".join(map(str, (m.m0, *m.mi, m.mplus, m.mminus)))
    return Relation(f"dual[{M.label},{exps}]", "duality of fundamental periods",
                    FormalPeriod._of_exp(_monomial_exp(m, dual_label(M.label),
                                                       dual=True)),
                    _period(_monomial_exp(m, M.label), (delta, -k)))


def tate_twist_relation(m: FundamentalMonomial, M: MotiveShape,
                        t: int) -> Relation:
    """f(X_{M(t)}) = (2 pi i)^{t(k+ d+ + k- d-)} * f or f^dual (X_M)."""
    tag = monomial_type(m)
    exp = t * (tag.kplus * M.dplus + tag.kminus * M.dminus)
    base = m if t % 2 == 0 else dual_monomial(m)
    lhs = monomial_atoms(m, tate_twist_motive(M, t))
    rhs = _period({ATOM_TWO_PI_I: exp}, (monomial_atoms(base, M), 1))
    return Relation(f"tate-twist[{M.label},{t}]",
                    "Tate twist of fundamental periods", lhs, rhs)


def delta_tensor(M: MotiveShape, N: MotiveShape) -> Relation:
    """delta(M (x) N) = delta(M)^{rank N} * delta(N)^{rank M}."""
    label = tensor_label(M, N)
    dm, dn = (PeriodAtom("Delta", (X.label,)) for X in (M, N))
    return Relation(f"delta-tensor[{label}]",
                    "determinant period of a tensor product",
                    FormalPeriod._of_exp({PeriodAtom("Delta", (label,)): 1}),
                    FormalPeriod(((dm, N.n), (dn, M.n))))


def rank2_tensor_expansion(M: MotiveShape, N: MotiveShape, i: int,
                           sign: int) -> Relation:
    """Expansion of c^sign(M (x) N) for a rank-2 N in the i-th Hodge gap:

        c^sign(M (x) N) = c_i(M) * delta(N)^i * (c^+(N) c^-(N))^{r-i}
                          * c^{sign*eps}(N)   [last factor for odd rank M]
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if N.n != 2:
        raise ValueError("auxiliary motive must have rank 2")
    r = M.n // 2
    if not 1 <= i <= r - 1:
        raise ValueError("i must lie in 1..floor(n/2)-1")
    ell = N.kappa[0]
    if not M.kappa[i] < ell < M.kappa[i - 1]:
        raise ValueError("N is not in the i-th Hodge gap of M")
    # at odd rank eps = d+ - d- is +-1, and c^{sign*eps}(N) occurs once more
    rhs = [(PeriodAtom("DCi", (M.label, i)), 1),
           (PeriodAtom("Delta", (N.label,)), i),
           (PeriodAtom("DC", (N.label, 1)), r - i),
           (PeriodAtom("DC", (N.label, -1)), r - i)]
    if M.n % 2:
        eps = M.dplus - M.dminus
        rhs.append((PeriodAtom("DC", (N.label, sign * eps)), 1))
    label = tensor_label(M, N)
    return Relation(f"rank2-expansion[{label},{i},{sign:+d}]",
                    "rank-2 auxiliary tensor expansion of c^{+-}",
                    FormalPeriod._of_exp({PeriodAtom("DC", (label, sign)): 1}),
                    FormalPeriod(rhs))
