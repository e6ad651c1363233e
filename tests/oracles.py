"""Reference computations the tests check periodcalc against.

Each computes an answer a second way, apart from the fast path it checks:
on the multiset of Weil-group constituents (Hom-dimensions, determinants,
epsilon classes), on their restriction to C^x, or on the Gamma factors of a
pair's tensor parameter (the brute-force lattice scan, one pass over the
factors, and Raghuram's even-rank interval); the library's written step
with its sides composed from checked periods (written_step, checked, and
corrupted, the one negative-control writer); the relation DB records as
dicts and their checked decoding, and a DB file loaded by decoding every
side, its script replayed by the group operations; the Yoshida relations as
products of checked periods, built through the general calculus of
admissible types and fundamental monomials (f_bw, monomial_type,
dual_monomial) that yoshida's closed forms are tested against; and the
Hodge types and the motive of an infinity type, against which the tests
hold MotiveShape's rules; and the relations of a main1 step as products of
atoms, with the duals built by twisting the types and each critical point
tested by a Fraction subtraction, every point coerced to a Fraction by the
reference as_fraction; the balance and regularity tests of a main1 pair,
which its closed form makes hold, and the pair's signs and epsilon class
read from its types (signature, raghuram_signs, pair_epsilon_class), which
the step writes in closed form; the corollary-main and main2 derivations
composed from checked products over a Pi built in full; and the
motivic-dual derivation through yoshida's relation builders. No request of
the CLI runs any of them.
"""

import json
import math
import re
import warnings
from collections import namedtuple
from fractions import Fraction

from periodcalc import arch_l, formal, weil_real as wr
from periodcalc import period_algebra as pa
from periodcalc import yoshida as y
from periodcalc.formal import (ATOM_I, ATOM_TWO_PI_I, FormalPeriod,
                               PeriodAtom, dual_label, gauss_fp)
from periodcalc.infinity_types import (InfinityType, character_sign,
                                       interlaces, json_int, json_list,
                                       json_str, to_arch_rep)


# ---------------------------------------------------------------------------
# exact points: the coercion that infinity_types.as_fraction must agree with,
# which returns a Fraction for an int as well

_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and strings p or p/q (q nonzero, as
    str(Fraction) writes them) to an exact Fraction; a string with a decimal
    point, exponent, blank or '+' is a ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _FRACTION.fullmatch(x):
        raise ValueError(f"not a fraction p/q: {x!r}")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# the constituents of a real Weil-group parameter

def rep(*constituents) -> wr.ArchRep:
    """The canonical representation with the given constituents."""
    return wr.ArchRep(constituents)


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


def dim(a: wr.ArchRep) -> int:
    return sum(1 if isinstance(c, wr.ArchCharacter) else 2 for c in a)


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


def signature(t: InfinityType) -> int:
    """The sign (-1)^{r + w/2}, flipped by sign_choice; odd rank only."""
    if t.n % 2 == 0:
        raise ValueError("signature is defined for odd rank only")
    return -1 if (t.r + t.w // 2 + t.sign_choice) % 2 else 1


def pair_epsilon_class(pi: InfinityType, sigma: InfinityType) -> int:
    """epsilon_class of the pair's tensor parameter, read from the types.
    Each constituent adds its sign parity (a character) or its kappa
    (phi_kappa); phi_k (x) phi_l adds the even parity (k+l-1) + (|k-l|+1),
    so only phi_k (x) character (parity k) and character (x) character
    (parity s1 + s2) count."""
    parity = (sigma.n % 2) * sum(pi.kappa) + (pi.n % 2) * sum(sigma.kappa)
    if pi.n % 2 and sigma.n % 2:
        parity += pi.sign_choice + sigma.sign_choice
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


def critical_contains(cs: arch_l.CriticalSet, m0) -> bool:
    """m0 in cs, by subtracting the offset as Fractions."""
    k = as_fraction(m0) - cs.offset
    if k.denominator != 1:
        return False
    p = k.numerator % 2
    return cs.lo[p] <= k.numerator <= cs.hi[p]


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


# ---------------------------------------------------------------------------
# the written step (name, (citation, lhs, rhs), exponent) that the library
# writes, its sides reduced exponent dicts: the oracle builders compose each
# side as a period with the checked FormalPeriod.of, * and **, and write the
# step that holds the period's dict

def written_step(name: str, citation: str, lhs: FormalPeriod,
                 rhs: FormalPeriod, e: int = 1) -> tuple:
    """The step lhs = rhs to the power e."""
    return name, (citation, lhs._exp, rhs._exp), e


def checked(step, e: int = None) -> tuple:
    """step with both sides rebuilt by the checked constructor, to the
    power e, or to its own power if e is None."""
    name, (citation, lhs, rhs), k = step
    return written_step(name, citation, FormalPeriod(lhs.items()),
                        FormalPeriod(rhs.items()), k if e is None else e)


def corrupted(step, factor: FormalPeriod) -> tuple:
    """Negative control: step with factor multiplied into its rhs."""
    name, (citation, lhs, rhs), e = step
    return (name + "[corrupted]",
            (citation, lhs, (FormalPeriod(rhs.items()) * factor)._exp), e)


# ---------------------------------------------------------------------------
# the relation DB layouts as dicts. Version 1, which RelationDB.load still
# reads, holds json.dumps(relation_to_json(step), sort_keys=True) for each
# step; RelationDB.save writes version 2 (db_to_json below), line for line

def atom_to_json(atom) -> dict:
    return {"kind": atom.kind, "payload": list(atom.payload)}


def period_to_json(side: dict) -> list:
    return [[atom_to_json(a), e] for a, e in sorted(side.items())]


def relation_to_json(step) -> dict:
    name, (citation, lhs, rhs), _ = step
    return {"name": name, "citation": citation,
            "lhs": period_to_json(lhs), "rhs": period_to_json(rhs)}


def db_to_json(steps) -> dict:
    """The version-2 layout: each distinct atom and citation once, numbered
    in order of first use over the steps sorted by name, each side of a
    step as [atom index, exponent] pairs in its dict's own order."""
    atoms, citations = {}, {}

    def side(exp):
        return [[atoms.setdefault(a, len(atoms)), e] for a, e in exp.items()]

    # a dict display evaluates its values in order: lhs numbers before rhs
    records = [{"name": name,
                "citation": citations.setdefault(citation, len(citations)),
                "lhs": side(lhs), "rhs": side(rhs)}
               for name, (citation, lhs, rhs), _ in sorted(
                   steps, key=lambda step: step[0])]
    return {"atoms": [atom_to_json(a) for a in atoms],
            "citations": list(citations), "relations": records, "version": 2}


# kind -> payload coercions, as read from JSON
_CHECKED_ATOMS = {
    "BW": (json_str, json_int), "Gauss": (json_str,),
    "ArchZ": (json_str, json_str), "LVal": (json_str, json_str),
    "Delta": (json_str,), "DC": (json_str, json_int),
    "DCi": (json_str, json_int), "TwoPiI": (), "I": (),
}


def atom_from_json(data: dict):
    """The checked decoding of an atom record: the payload through
    json_list, every entry through json_str or json_int, then
    PeriodAtom."""
    kind, payload = data["kind"], data.get("payload", [])
    if kind not in _CHECKED_ATOMS:
        raise ValueError(f"unknown atom kind: {kind!r}")
    types = _CHECKED_ATOMS[kind]
    try:
        json_list(payload)
    except TypeError as exc:
        raise ValueError(f"bad {kind} payload: {exc}") from exc
    if len(payload) != len(types):
        raise ValueError(f"{kind} atom needs {len(types)} payload entries, "
                         f"got {len(payload)}")
    try:
        return PeriodAtom(kind, tuple(t(p) for t, p in zip(types, payload)))
    except TypeError as exc:
        raise ValueError(f"bad {kind} payload: {exc}") from exc


# ---------------------------------------------------------------------------
# a relation DB file read by decoding every side of every record, and a
# script replayed over the decoded periods by the group operations: the way
# RelationDB.load and check_script worked before load kept the index pairs
# of a version-2 file

def load_db(path: str) -> dict:
    """{name: step} of a version-1 or version-2 file, every record decoded
    by relation_from_json and checked; the errors, and their order, are
    those of RelationDB.load."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path} is nested too deeply") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from exc
    entries = data.get("relations", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path} does not hold a relation database")
    version = data.get("version", 1)
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"{path} has an unknown DB version {version!r}")
    atoms = citations = None
    if version == 2:
        atoms, citations = data.get("atoms"), data.get("citations")
        if type(atoms) is not list or type(citations) is not list:
            raise ValueError(f"{path} needs an atom and a citation table")
        try:
            atoms = [formal.atom_from_json(a) for a in atoms]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed atom record: {exc!r}") from exc
    db = {}
    for entry in entries:
        step = checked(formal.relation_from_json(entry, atoms, citations))
        if db.setdefault(step[0], step) != step:
            raise ValueError(f"relation {step[0]!r} already present")
        db[step[0]] = step  # an equal body read later replaces the first
    return db


def check_script(db: dict, script) -> FormalPeriod:
    """The product of (lhs / rhs)^exponent over the script's steps, each
    step checked as formal.check_script checks it, in the same order."""
    residual = FormalPeriod()
    for entry in script:
        if (not isinstance(entry, dict)
                or set(entry) != {"relation", "exponent"}
                or not isinstance(entry["relation"], str)
                or type(entry["exponent"]) is not int):
            raise ValueError("a script entry needs exactly a str 'relation' "
                             f"and an int 'exponent', got {entry!r}")
        if entry["relation"] not in db:
            raise KeyError(f"unknown relation: {entry['relation']!r}")
        _, (_, lhs, rhs), _ = db[entry["relation"]]
        quotient = FormalPeriod(lhs.items()) * FormalPeriod(rhs.items()) ** -1
        residual = residual * quotient ** entry["exponent"]
    return residual


# ---------------------------------------------------------------------------
# Yoshida relations as products of periods built by the checked
# FormalPeriod.of, through the general calculus of admissible types and
# fundamental monomials, with the dual and twisted motives built in full

AdmissibleTypeTag = namedtuple("AdmissibleTypeTag", "a kplus kminus")


def monomial_type(m: y.FundamentalMonomial) -> AdmissibleTypeTag:
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


def dual_monomial(m: y.FundamentalMonomial) -> y.FundamentalMonomial:
    return y.FundamentalMonomial(m.n, m.dplus, m.dminus, m.m0, m.mi,
                                 m.mminus, m.mplus)


def f_bw(n: int, eps: int = None, dplus: int = None,
         dminus: int = None) -> y.FundamentalMonomial:
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
    return y.FundamentalMonomial(n, dplus, dminus, 0, mi, mp, mm)


def dual_motive(M):
    """M^v, unchecked: M's checks read the weight only through its parity."""
    return tuple.__new__(y.MotiveShape, (dual_label(M.label), M.n, -M.weight,
                                         M.kappa, M.dplus, M.dminus))


def tate_twist_motive(M: y.MotiveShape, t: int) -> y.MotiveShape:
    # Hodge types shift by (-t, -t); kappa is unchanged
    return y.MotiveShape(f"{M.label}({t})", M.n, M.weight - 2 * t, M.kappa,
                         M.dplus, M.dminus)


def monomial_atoms(m, M) -> FormalPeriod:
    """m evaluated at the period matrix of M, its atoms in the order
    c_i, delta, c^+, c^-, as yoshida writes them."""
    pairs = [(PeriodAtom("DCi", (M.label, i)), e)
             for i, e in enumerate(m.mi, start=1)]
    pairs += [(PeriodAtom("Delta", (M.label,)), m.m0),
              (PeriodAtom("DC", (M.label, 1)), m.mplus),
              (PeriodAtom("DC", (M.label, -1)), m.mminus)]
    return FormalPeriod.of(*pairs)


def tensor_deligne(M, N, sign: int) -> tuple:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if M.n != N.n + 1:
        raise ValueError("ranks must differ by exactly 1 (M = N + 1)")
    if not interlaces(M.kappa, N.kappa):
        raise ValueError("motives are not in good position")
    if M.label == N.label:  # M and N have different ranks
        raise ValueError(f"M and N share the label {M.label!r}")
    n = M.n
    if n % 2:
        eps = M.dplus - M.dminus
        fm = f_bw(n, dplus=M.dplus, dminus=M.dminus)
        fn = f_bw(n - 1, eps=sign * eps, dplus=N.dplus, dminus=N.dminus)
    else:
        eps_prime = N.dplus - N.dminus
        fm = f_bw(n, eps=sign * eps_prime, dplus=M.dplus, dminus=M.dminus)
        fn = f_bw(n - 1, dplus=N.dplus, dminus=N.dminus)
    label = y.tensor_label(M, N)
    lhs = atom_power(PeriodAtom("DC", (label, sign)))
    rhs = (atom_power(PeriodAtom("Delta", (N.label,)))
           * monomial_atoms(fm, M) * monomial_atoms(fn, N))
    return written_step(f"tensor-deligne[{label},{sign:+d}]",
                        "balanced tensor Deligne-period factorization",
                        lhs, rhs)


def tate_twist_relation(m, M, t: int) -> tuple:
    tag = monomial_type(m)
    exp = t * (tag.kplus * M.dplus + tag.kminus * M.dminus)
    base = m if t % 2 == 0 else dual_monomial(m)
    lhs = monomial_atoms(m, tate_twist_motive(M, t))
    rhs = atom_power(ATOM_TWO_PI_I, exp) * monomial_atoms(base, M)
    return written_step(f"tate-twist[{M.label},{t}]",
                        "Tate twist of fundamental periods", lhs, rhs)


def dual_relation(m, M) -> tuple:
    tag = monomial_type(m)
    lhs = monomial_atoms(dual_monomial(m), dual_motive(M))
    rhs = (atom_power(PeriodAtom("Delta", (M.label,)),
                      -(tag.kplus + tag.kminus))
           * monomial_atoms(m, M))
    exps = ",".join(map(str, (m.m0, *m.mi, m.mplus, m.mminus)))
    return written_step(f"dual[{M.label},{exps}]",
                        "duality of fundamental periods", lhs, rhs)


def delta_tensor(M, N) -> tuple:
    lhs = atom_power(PeriodAtom("Delta", (y.tensor_label(M, N),)))
    rhs = FormalPeriod.of((PeriodAtom("Delta", (M.label,)), N.n),
                          (PeriodAtom("Delta", (N.label,)), M.n))
    return written_step(f"delta-tensor[{y.tensor_label(M, N)}]",
                        "determinant period of a tensor product", lhs, rhs)


def rank2_tensor_expansion(M, N, i: int, sign: int) -> tuple:
    if M.label == N.label:  # N has rank 2 and M does not
        raise ValueError(f"M and N share the label {M.label!r}")
    r = M.n // 2
    pairs = [(PeriodAtom("DCi", (M.label, i)), 1),
             (PeriodAtom("Delta", (N.label,)), i),
             (PeriodAtom("DC", (N.label, 1)), r - i),
             (PeriodAtom("DC", (N.label, -1)), r - i)]
    if M.n % 2:
        pairs.append((PeriodAtom("DC", (N.label,
                                        sign * (M.dplus - M.dminus))), 1))
    lhs = atom_power(PeriodAtom("DC", (y.tensor_label(M, N), sign)))
    return written_step(
        f"rank2-expansion[{y.tensor_label(M, N)},{i},{sign:+d}]",
        "rank-2 auxiliary tensor expansion of c^{+-}", lhs,
        FormalPeriod.of(*pairs))


# ---------------------------------------------------------------------------
# the motive of an infinity type

def hodge_types(M) -> tuple:
    out = []
    for k in M.kappa:
        p = (1 - k + M.weight) // 2
        q = (k - 1 + M.weight) // 2
        out.extend([(p, q), (q, p)])
    if M.n % 2:
        out.append((M.weight // 2, M.weight // 2))
    return tuple(sorted(out))


def motive_from_infinity(t, label: str):
    weight = -t.w - t.n + 1
    if t.n % 2 == 0:
        dplus = dminus = t.n // 2
    else:
        sig = signature(t)
        dplus = (t.n + sig) // 2
        dminus = (t.n - sig) // 2
    return y.MotiveShape(label, t.n, weight, t.kappa, dplus, dminus)


# ---------------------------------------------------------------------------
# the main1 relations as products of periods built by FormalPeriod.of, *
# and **, each side's factors in the order in which check_main1_step writes
# the side's atoms; each critical point is tested against a fresh
# critical_set

def pair_label(pi, sigma) -> str:
    return f"{pi.label}x{sigma.label}"


def raghuram_signs(m, pi, sigma):
    """Resolve (eps_m, eps'_m): the odd-rank member fixes its sign to its
    signature, the other is forced by eps_m * eps'_m = (-1)^{m+n}."""
    free = -1 if (pa._integer_m(m) + pi.inf.n) % 2 else 1
    if pi.inf.n % 2:
        eps = signature(pi.inf)
        return eps, free * eps
    eps_prime = signature(sigma.inf)
    return free * eps_prime, eps_prime


def is_balanced(pi: InfinityType, sigma: InfinityType) -> bool:
    """Interlacing of the infinity types of a pair of adjacent ranks."""
    if pi.n != sigma.n + 1:
        raise ValueError("ranks must differ by exactly 1 (pi = sigma + 1)")
    return interlaces(pi.kappa, sigma.kappa)


def is_regular(t: InfinityType) -> bool:
    """The duality theorem's regularity: kappa_r >= 3 (n even) or 5 (n odd),
    and every gap kappa_i - kappa_{i+1} >= 4, or 6 when n and w are even."""
    gap = 6 if t.n % 2 == 0 and t.w % 2 == 0 else 4
    return ((not t.kappa or t.kappa[-1] >= (3 if t.n % 2 == 0 else 5))
            and all(a - b >= gap for a, b in zip(t.kappa, t.kappa[1:])))


def _require_critical(s0, pi, sigma):
    if not critical_contains(arch_l.critical_set(pi.inf, sigma.inf), s0):
        raise ValueError(
            f"{s0} is not a critical point of {pair_label(pi, sigma)}")


def twist(t, delta: int, u: int):
    """Twist by sgn^delta |.|^u: w shifts by 2u; sgn flips the odd-rank bit."""
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    sign = t.sign_choice
    if t.n % 2:
        sign = (sign + delta) % 2
    return InfinityType(t.n, t.kappa, t.w + 2 * u, sign)


class GlobalRep(namedtuple("GlobalRep", "label inf omega")):
    """A labeled cuspidal representation: archimedean data plus the Gauss
    class of its central character (see formal.gauss_fp)."""

    __slots__ = ()


def global_dual(rep):
    """The contragredient: dual label, w negated, inverse Gauss class."""
    return GlobalRep(dual_label(rep.label),
                        twist(rep.inf, 0, -rep.inf.w), rep.omega ** -1)


def rel_raghuram(m, pi, sigma, e: int = 1) -> tuple:
    if not is_balanced(pi.inf, sigma.inf):
        raise ValueError("pair is not balanced")
    m = as_fraction(m)
    _require_critical(m + Fraction(1, 2), pi, sigma)
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    pair = pair_label(pi, sigma)
    lhs = atom_power(PeriodAtom("LVal", (m + Fraction(1, 2), pair)))
    rhs = (atom_power(PeriodAtom("ArchZ", (m, pair)))
           * atom_power(PeriodAtom("BW", (pi.label, eps)))
           * atom_power(PeriodAtom("BW", (sigma.label, eps_prime)))
           * sigma.omega)
    return written_step(f"raghuram[m={m},{pair}]",
                        "critical-value factorization over a balanced pair",
                        lhs, rhs, e)


def rel_duality_ratio(m0, pi, sigma, e: int = 1) -> tuple:
    m0 = as_fraction(m0)
    _require_critical(m0, pi, sigma)
    parity = pair_epsilon_class(pi.inf, sigma.inf)
    pair = pair_label(pi, sigma)
    dual_pair = f"{dual_label(pi.label)}x{dual_label(sigma.label)}"
    lhs = atom_power(PeriodAtom("LVal", (m0, pair)))
    rhs = (atom_power(ATOM_I, parity)
           * atom_power(PeriodAtom("LVal", (1 - m0, dual_pair)))
           * pi.omega ** sigma.inf.n
           * sigma.omega ** pi.inf.n)
    return written_step(f"duality-ratio[m0={m0},{pair}]",
                        "functional-equation ratio under duality", lhs, rhs, e)


def rel_arch_iparity(m1, m2, pi, sigma, e: int = 1) -> tuple:
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
    lhs = atom_power(PeriodAtom("ArchZ", (m1, pair)))
    rhs = (atom_power(PeriodAtom("ArchZ", (m2, pair)))
           * atom_power(ATOM_I, exp.numerator))
    return written_step(f"arch-iparity[{m1},{m2},{pair}]",
                        "i-power comparison of archimedean periods", lhs, rhs,
                        e)


def rel_twist(m, pi, sigma, w1: int, w2: int, twisted_label: str,
              e: int = 1) -> tuple:
    m = as_fraction(m)
    _require_critical(m + w1 + w2 + Fraction(1, 2), pi, sigma)
    pair = pair_label(pi, sigma)
    lhs = atom_power(PeriodAtom("ArchZ", (m, twisted_label)))
    rhs = atom_power(PeriodAtom("ArchZ", (m + w1 + w2, pair)))
    return written_step(f"arch-twist[{m},{twisted_label}]",
                        "archimedean period comparison under |.|-twists",
                        lhs, rhs, e)


def rel_main1(pi, eps: int, e: int = 1) -> tuple:
    if not is_regular(pi.inf):
        warnings.warn(f"regularity hypotheses unmet for {pi.label}",
                      stacklevel=2)
    n = pi.inf.n
    lhs = atom_power(PeriodAtom("BW", (pi.label, eps)))
    rhs = (atom_power(PeriodAtom("BW", (dual_label(pi.label), eps)))
           * pi.omega ** (n - 1))
    return written_step(f"main1[{pi.label},{eps:+d}]",
                        "period relation under duality", lhs, rhs, e)


def main1_pair(n: int, w: int, delta: int, m: int):
    """The balanced pair of check_main1_step, each type built in full."""
    r = n // 2
    need = max(abs(2 * m + 1 + w + delta), abs(1 - w - delta - 2 * m), 4)
    gap = 2 * (need + 4)
    kap_par = (w % 2) if n % 2 == 0 else 1
    base = 2 * gap * (r + 1) + 41
    if base % 2 != kap_par:
        base += 1
    kappa = tuple(base - 2 * gap * i for i in range(r))
    gprime = gap if kap_par == 1 else gap + 1
    n_ell = r if n % 2 else r - 1
    ell = tuple(kappa[j] - gprime for j in range(n_ell))
    pi = GlobalRep("Pi", InfinityType(n, kappa, w, 0),
                      gauss_fp({"omega_Pi": 1}))
    sigma = GlobalRep("Sigma", InfinityType(n - 1, ell, delta, 0),
                         gauss_fp({"omega_Sigma": 1}))
    return pi, sigma


def functional_equation_gammas(pair, s0) -> tuple:
    """(k, args): L_inf(1 - s0, Pi^v x Sigma^v) / L_inf(s0, Pi x Sigma) of a
    main1 pair, from the Gamma factors of weil_real.tensor of its types and
    of its duals' types.  Each factor is a Gamma_C(s) = 2 (2 pi)^{-s}
    Gamma(s), so the ratio is (2 pi)^k times the Gamma values at args, with
    k the sum of the arguments below less the sum of those above; a
    Gamma_R factor, which no pair of adjacent ranks without a shared kappa
    has, is a ValueError."""
    duals = [global_dual(rep).inf for rep in pair]
    below = [arch_l._gamma(c)[:2] for c in wr.tensor(
        *(to_arch_rep(rep.inf) for rep in pair))]
    above = [arch_l._gamma(c)[:2]
             for c in wr.tensor(*map(to_arch_rep, duals))]
    if any(kind != "C" for kind, _ in below + above):
        raise ValueError("a Gamma_R factor")
    args_below = [s0 + b for _, b in below]
    args_above = [1 - s0 + b for _, b in above]
    return sum(args_below) - sum(args_above), args_below + args_above


def main1_steps(n: int, w: int, delta: int, m: int,
                corrupt: bool = False) -> list:
    """The written steps of check_main1_step for an input it accepts at
    rank n >= 2, built in the step's order, so that a failed guard raises
    as the step's own does.  Its rel_main1 still tests regularity and
    warns, which the step's pair never trips."""
    pi, sigma = main1_pair(n, w, delta, m)
    pi_d, sigma_d = global_dual(pi), global_dual(sigma)
    eps, eps_prime = raghuram_signs(m, pi, sigma)
    steps = [rel_raghuram(m, pi, sigma),
             rel_raghuram(-m, pi_d, sigma_d, -1),
             rel_duality_ratio(m + Fraction(1, 2), pi, sigma, -1),
             rel_twist(-m, pi, sigma, -w, -delta, pair_label(pi_d, sigma_d),
                       -1),
             rel_arch_iparity(m, -m - w - delta, pi, sigma),
             rel_main1(sigma, eps_prime), rel_main1(pi, eps)]
    if corrupt:
        steps[-1] = corrupted(steps[-1], pi.omega ** -1)
    return steps


# ---------------------------------------------------------------------------
def atom_power(atom, e: int = 1) -> FormalPeriod:
    """The period atom^e, built by the checked FormalPeriod.of."""
    return FormalPeriod.of((atom, e))


def is_written_step(step) -> bool:
    """Whether step is a written step (str, (str, dict, dict), int), each
    side a reduced exponent dict: atoms, nonzero int exponents, and the
    exponent of I taken mod 2."""
    if not (type(step) is tuple and len(step) == 3):
        return False
    name, body, e = step
    if not (type(name) is str and type(e) is int and type(body) is tuple
            and len(body) == 3 and type(body[0]) is str):
        return False
    return all(type(side) is dict and side.get(ATOM_I, 1) == 1
               and all(type(a) is PeriodAtom and type(k) is int and k
                       for a, k in side.items())
               for side in body[1:])


# the corollary-main and main2 derivations composed from checked products,
# with the corollary's Pi built in full

def rel_rs_twist(pi, eta: FormalPeriod, eta_delta: int, eta_u: int,
                 eps: int, twisted_label: str, e: int = 1) -> tuple:
    """p(Pi (x) eta, eps) = G(eta)^{n(2n-1)} p(Pi, eps * eps(eta_inf))."""
    rank = pi.inf.n
    if rank % 2:
        raise ValueError("character-twist relation requires even rank")
    n = rank // 2
    lhs = atom_power(PeriodAtom("BW", (twisted_label, eps)))
    rhs = (eta ** (n * (2 * n - 1)) * atom_power(PeriodAtom(
        "BW", (pi.label, eps * character_sign(eta_delta, eta_u)))))
    return written_step(f"rs-twist[{twisted_label},{eps:+d}]",
                        "character twist of Betti-Whittaker periods", lhs,
                        rhs, e)


def rel_corollary_main(label: str, gexp: FormalPeriod, e: int = 1) -> tuple:
    """p(Pi, +) = G(chi^n omega_Pi^{-1}) p(Pi, -), with gexp the Gauss class
    of chi^n omega_Pi^{-1}."""
    return written_step(f"corollary-main[{label}]",
                        "sign change of Betti-Whittaker periods",
                        atom_power(PeriodAtom("BW", (label, 1))),
                        gexp * atom_power(PeriodAtom("BW", (label, -1))), e)


def rel_quadratic(g: FormalPeriod, e: int = 1) -> tuple:
    """G(chi) class is 2-torsion for a quadratic character chi."""
    char = "*".join(f"{a.payload[0]}^{k}" for a, k in g.items()) or "1"
    return written_step(f"central-character-quadratic[{char}]",
                        "Gauss sum of a quadratic character is algebraic",
                        g ** 2, FormalPeriod(), e)


def corollary_main_steps(n: int, orthogonal: bool = True, chi_expr=None,
                         corrupt: bool = False) -> list:
    """The written steps of check_corollary_main, composed with
    the checked * and ** over its chi-orthogonal Pi of rank 2n built in
    full (kappa_j = 8 + 6j, w = 0); rel_main1 warns if that Pi is not
    regular.  chi_expr None is the default chi."""
    kappa = tuple(8 + 6 * j for j in range(n, 0, -1))
    pi = GlobalRep("Pi", InfinityType(2 * n, kappa, 0, 0),
                   gauss_fp({"omega_Pi": 1}))
    chi = gauss_fp({"chi": 1} if chi_expr is None else chi_expr)
    q_a = rel_main1(pi, 1)
    q_b = rel_rs_twist(pi, chi ** -1, 1 if orthogonal else 0, 0, 1,
                       twisted_label=dual_label(pi.label))
    gexp = chi ** n * pi.omega ** -1
    target = rel_corollary_main(pi.label, gexp, -1)
    if corrupt:
        target = corrupted(target, chi)
    steps = [q_a, q_b, target]
    if not gexp.is_trivial:
        steps.append(rel_quadratic(gexp, -n))
    return steps


def main2_steps(n: int, nprime: int, include_i_power: bool = True,
                eps_num: int = 1, corrupt: bool = False) -> tuple:
    """(steps, i_parity) of check_theorem_main2 at an odd n', composed with
    the checked * and ** and Fraction points."""
    pair = "PixSigma"
    m0 = Fraction(nprime, 2)
    ipow = n if include_i_power else 0
    rel_period = (atom_power(ATOM_I, ipow)
                  * atom_power(PeriodAtom("BW", ("Pi", eps_num)))
                  * atom_power(PeriodAtom("BW", ("Pi", -eps_num)), -1))
    q_hr = written_step(f"harder-raghuram[{pair},m0={m0}]",
                        "successive critical values against relative "
                        "periods",
                        atom_power(PeriodAtom("LVal", (m0, pair))),
                        atom_power(PeriodAtom("LVal", (m0 + 1, pair)))
                        * rel_period ** nprime)
    chi, omega = gauss_fp({"chi": 1}), gauss_fp({"omega_Pi": 1})
    gexp = chi ** n * omega ** -1
    target_rhs = (atom_power(ATOM_I, ipow * nprime)
                  * gexp ** nprime
                  * atom_power(PeriodAtom("LVal", (m0 + 1, pair))))
    target = written_step(f"theorem-main2[{pair}]",
                          "ratio of successive critical values",
                          atom_power(PeriodAtom("LVal", (m0, pair))),
                          target_rhs, -1)
    if corrupt:
        target = corrupted(target, chi)
    steps = [q_hr, target, rel_corollary_main("Pi", gexp, eps_num * nprime)]
    if eps_num == -1:
        steps.append(rel_quadratic(gexp, -nprime))
    return steps, (ipow * nprime) % 2


# ---------------------------------------------------------------------------
# the motivic-dual derivation through yoshida's builders, one auxiliary
# motive N and its dual built in full for each Hodge gap

def motivic_dual_steps(n: int, i: int = None, corrupt: bool = False) -> list:
    """The written steps of check_motivic_dual, each gap's relations built
    by y.rank2_tensor_expansion, y.delta_tensor and y.dual_relation on a
    checked MotiveShape N, for an input it accepts."""
    r = n // 2
    kappa = tuple(4 * (r - j) + 5 for j in range(r))
    dplus = r + n % 2
    M = y.MotiveShape("M", n, 0, kappa, dplus, n - dplus)
    Md = dual_motive(M)
    fp = y.FundamentalMonomial(2, 1, 1, 0, (), 1, 0)
    fm = y.FundamentalMonomial(2, 1, 1, 0, (), 0, 1)
    fdet = y.FundamentalMonomial(2, 1, 1, 1, (), 0, 0)
    steps = []
    for idx in [i] if i is not None else range(1, r):
        N = y.MotiveShape(f"N{idx}", 2, 0, (kappa[idx] + 2,), 1, 1)
        mn = y.tensor_label(M, N)
        q3 = written_step(f"deligne-dual[{mn}]",
                          "duality of c^{+-} for the tensor product",
                          atom_power(PeriodAtom("DC", (dual_label(mn), -1))),
                          FormalPeriod.of((PeriodAtom("Delta", (mn,)), -1),
                                          (PeriodAtom("DC", (mn, 1)), 1)))
        q_delta = checked(y.delta_tensor(M, N), -1)
        if corrupt:
            q_delta = corrupted(q_delta, atom_power(
                PeriodAtom("Delta", (N.label,)), -1))
        target = written_step(f"motivic-dual[{M.label},{idx}]",
                              "duality of the middle fundamental periods",
                              atom_power(PeriodAtom("DCi", (Md.label, idx))),
                              FormalPeriod.of(
                                  (PeriodAtom("Delta", (M.label,)), -2),
                                  (PeriodAtom("DCi", (M.label, idx)), 1)),
                              -1)
        steps += [checked(y.rank2_tensor_expansion(M, N, idx, 1)),
                  checked(y.rank2_tensor_expansion(Md, dual_motive(N), idx,
                                                   -1), -1),
                  q3, q_delta,
                  checked(y.dual_relation(fdet, N), -idx),
                  checked(y.dual_relation(fp, N), -(r - idx) - n % 2),
                  checked(y.dual_relation(fm, N), -(r - idx)),
                  target]
    return steps
