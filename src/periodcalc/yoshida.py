"""Admissible-polynomial period calculus for regular pure motives.

Fundamental periods delta(M), c^{+-}(M), c_i(M) are evaluations of the
generator polynomials det, f^{+-}, f_i at the period matrix of M; the period
matrix itself is never materialized, only exponent identities between the
fundamental-period atoms are produced (as Relation records over the formal
period group).  Each relation is written in closed form from the shapes and
the monomial's exponents; tests/oracles.py keeps the general calculus of
admissible types and monomials that the closed forms are tested against.
"""

from __future__ import annotations

from collections import namedtuple

from .formal import (ATOM_TWO_PI_I, FormalPeriod, PeriodAtom, Relation,
                     dual_label, _period)
from .infinity_types import (checked_kappa, interlaces, json_int, json_list,
                             json_str)


def _require_signature(n: int, dplus: int, dminus: int) -> None:
    """d+ + d- = n with |d+ - d-| <= 1, so d+ = d- at even rank n."""
    if (json_int(dplus) + json_int(dminus) != json_int(n)
            or abs(dplus - dminus) > 1):
        raise ValueError("d+ + d- must equal n with |d+ - d-| <= 1")


class FundamentalMonomial(namedtuple(
        "FundamentalMonomial", "n dplus dminus m0 mi mplus mminus")):
    """det^m0 * prod f_i^mi * (f^+)^mplus * (f^-)^mminus on rank n."""

    __slots__ = ()

    def __new__(cls, n: int, dplus: int, dminus: int, m0: int = 0,
                mi: tuple = (), mplus: int = 0, mminus: int = 0):
        mi = tuple(map(json_int, mi))
        m0, mplus, mminus = json_int(m0), json_int(mplus), json_int(mminus)
        _require_signature(n, dplus, dminus)
        if len(mi) != max(n // 2 - 1, 0):
            raise ValueError("mi must have floor(n/2)-1 entries")
        return tuple.__new__(cls, (n, dplus, dminus, m0, mi, mplus, mminus))


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
        _require_signature(n, dplus, dminus)
        return tuple.__new__(cls, (label, n, weight, kappa, dplus, dminus))

    @classmethod
    def from_json(cls, data: dict) -> "MotiveShape":
        return cls(json_str(data["label"]), json_int(data["n"]),
                   json_int(data["weight"]),
                   tuple(map(json_int, json_list(data["kappa"]))),
                   json_int(data["dplus"]), json_int(data["dminus"]))


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


def _bw_exp(X: MotiveShape, eps: int) -> dict:
    """The atoms of f_BW^eps(X): prod_{i<r} c_i(X) times c^eps(X) at even
    rank, or times c^+(X) c^-(X) at odd rank above 1, where eps is unread."""
    exp = {PeriodAtom("DCi", (X.label, i)): 1 for i in range(1, X.n // 2)}
    for s in (eps,) if X.n % 2 == 0 else (1, -1) if X.n > 1 else ():
        exp[PeriodAtom("DC", (X.label, s))] = 1
    return exp


def tensor_deligne(M: MotiveShape, N: MotiveShape, sign: int) -> Relation:
    """c^sign(M (x) N) = delta(N) * f_BW^eps(X_M) * f_BW^eps'(X_N): the
    odd-rank factor X of the two has eps(X) = d+(X) - d-(X), and the
    even-rank one takes sign * eps(X)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if M.n != N.n + 1:
        raise ValueError("ranks must differ by exactly 1 (M = N + 1)")
    if not interlaces(M.kappa, N.kappa):
        raise ValueError("motives are not in good position")
    if M.label == N.label:  # M and N have different ranks
        raise ValueError(f"M and N share the label {M.label!r}")
    odd = M if M.n % 2 else N
    eps = sign * (odd.dplus - odd.dminus)
    lhs = FormalPeriod.atom(PeriodAtom("DC", (tensor_label(M, N), sign)))
    rhs = FormalPeriod([(PeriodAtom("Delta", (N.label,)), 1),
                        *_bw_exp(M, eps).items(), *_bw_exp(N, eps).items()])
    return Relation(f"tensor-deligne[{tensor_label(M, N)},{sign:+d}]",
                    "balanced tensor Deligne-period factorization",
                    lhs, rhs)


def dual_relation(m: FundamentalMonomial, M: MotiveShape) -> Relation:
    """f^dual(X_{M^v}) = delta(M)^{-(k+ + k-)} * f(X_M), where m has
    k+ + k- = 2(m0 + sum mi) + m+ + m-."""
    delta = {PeriodAtom("Delta", (M.label,)): 1}
    k = 2 * (m.m0 + sum(m.mi)) + m.mplus + m.mminus
    exps = ",".join(map(str, (m.m0, *m.mi, m.mplus, m.mminus)))
    return Relation(f"dual[{M.label},{exps}]", "duality of fundamental periods",
                    FormalPeriod._of_exp(_monomial_exp(m, dual_label(M.label),
                                                       dual=True)),
                    _period(_monomial_exp(m, M.label), (delta, -k)))


def tate_twist_relation(m: FundamentalMonomial, M: MotiveShape,
                        t: int) -> Relation:
    """f(X_{M(t)}) = (2 pi i)^{t(k+ d+ + k- d-)} * f or f^dual (X_M), the
    dual at odd t, where k^{+-} = m0 + sum mi + m^{+-}."""
    t = json_int(t)
    k = m.m0 + sum(m.mi)
    exp = t * ((k + m.mplus) * M.dplus + (k + m.mminus) * M.dminus)
    return Relation(f"tate-twist[{M.label},{t}]",
                    "Tate twist of fundamental periods",
                    FormalPeriod._of_exp(_monomial_exp(m, f"{M.label}({t})")),
                    _period({ATOM_TWO_PI_I: exp,
                             **_monomial_exp(m, M.label, dual=t % 2 == 1)}))


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
