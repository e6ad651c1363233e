"""The formal period group: a free abelian group on period atoms modulo
i^2 = -1, plus relation records and a persistent relation database.

Atoms carry a kind tag and a payload:
    BW(label, sign)    Betti-Whittaker period p(Pi, eps), sign in {+1, -1}
    Gauss(label)       Gauss sum of a base Hecke character; products of
                       characters are decomposed over base labels, so Gauss
                       is multiplicative by construction
    ArchZ(m, pair)     archimedean period p(m, Pi x Sigma)
    LVal(s0, pair)     L-value class L(s0, Pi x Sigma)
    Delta(label)       fundamental period delta(M)
    DC(label, sign)    fundamental period c^{+-}(M)
    DCi(label, i)      fundamental period c_i(M)
    TwoPiI             2*pi*i
    I                  i, with exponent mod 2
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .infinity_types import json_int, json_str
from .weil_real import as_fraction


@dataclass(frozen=True)
class PeriodAtom:
    kind: str
    payload: tuple = ()

    def __post_init__(self):
        if self.kind not in _ATOMS:
            raise ValueError(f"unknown atom kind: {self.kind!r}")

    def render(self) -> str:
        if not self.payload:
            return self.kind
        parts = []
        for p in self.payload:
            if isinstance(p, int) and self.kind in ("BW", "DC"):
                parts.append("+" if p > 0 else "-")
            else:
                parts.append(str(p))
        return f"{self.kind}({','.join(parts)})"

    def _key(self):
        return (self.kind, tuple(str(p) for p in self.payload))

    def __lt__(self, other):
        return self._key() < other._key()


def atom_bw(label: str, sign: int) -> PeriodAtom:
    if sign not in (1, -1):
        raise ValueError("BW sign must be +1 or -1")
    return PeriodAtom("BW", (label, sign))


def atom_gauss(label: str) -> PeriodAtom:
    if not label:
        raise ValueError("empty character label")
    return PeriodAtom("Gauss", (label,))


def atom_archz(m, pair: str) -> PeriodAtom:
    return PeriodAtom("ArchZ", (as_fraction(m), pair))


def atom_lval(s0, pair: str) -> PeriodAtom:
    return PeriodAtom("LVal", (as_fraction(s0), pair))


def atom_delta(label: str) -> PeriodAtom:
    return PeriodAtom("Delta", (label,))


def atom_dc(label: str, sign: int) -> PeriodAtom:
    if sign not in (1, -1):
        raise ValueError("DC sign must be +1 or -1")
    return PeriodAtom("DC", (label, sign))


def atom_dci(label: str, i: int) -> PeriodAtom:
    return PeriodAtom("DCi", (label, int(i)))


# kind -> (constructor, payload types as read from JSON); the constructors
# of ArchZ and LVal read their str point with as_fraction
_ATOMS = {
    "BW": (atom_bw, (json_str, json_int)),
    "Gauss": (atom_gauss, (json_str,)),
    "ArchZ": (atom_archz, (json_str, json_str)),
    "LVal": (atom_lval, (json_str, json_str)),
    "Delta": (atom_delta, (json_str,)),
    "DC": (atom_dc, (json_str, json_int)),
    "DCi": (atom_dci, (json_str, json_int)),
    "TwoPiI": (lambda: ATOM_TWO_PI_I, ()),
    "I": (lambda: ATOM_I, ()),
}

ATOM_TWO_PI_I = PeriodAtom("TwoPiI")
ATOM_I = PeriodAtom("I")


class FormalPeriod:
    """Element of the free abelian group on atoms, I reduced mod 2."""

    __slots__ = ("_exp",)

    def __init__(self, pairs=()):
        """Accumulate (atom, exponent) pairs; repeated atoms add up."""
        exp = {}
        for atom, e in pairs:
            if not isinstance(atom, PeriodAtom):
                raise TypeError(f"not an atom: {atom!r}")
            exp[atom] = exp.get(atom, 0) + int(e)
        if ATOM_I in exp:
            exp[ATOM_I] %= 2
        self._exp = {a: e for a, e in exp.items() if e}

    @classmethod
    def unit(cls) -> "FormalPeriod":
        return cls()

    @classmethod
    def atom(cls, atom: PeriodAtom, e: int = 1) -> "FormalPeriod":
        return cls(((atom, e),))

    @classmethod
    def of(cls, *pairs) -> "FormalPeriod":
        return cls(pairs)

    def exponent(self, atom: PeriodAtom) -> int:
        return self._exp.get(atom, 0)

    def atoms(self):
        return sorted(self._exp)

    def items(self):
        return sorted(self._exp.items())

    @property
    def i_parity(self) -> int:
        return self._exp.get(ATOM_I, 0)

    def __mul__(self, other: "FormalPeriod") -> "FormalPeriod":
        return FormalPeriod(chain(self._exp.items(), other._exp.items()))

    def __pow__(self, k: int) -> "FormalPeriod":
        k = int(k)
        return FormalPeriod((a, k * e) for a, e in self._exp.items())

    @property
    def is_trivial(self) -> bool:
        return not self._exp

    def offending_atom(self):
        """Render the first non-cancelling atom, or None if trivial."""
        if self.is_trivial:
            return None
        return min(self._exp).render()

    def __eq__(self, other):
        return isinstance(other, FormalPeriod) and self._exp == other._exp

    def __hash__(self):
        return hash(frozenset(self._exp.items()))

    def __repr__(self):
        if not self._exp:
            return "1"
        return " * ".join(f"{a.render()}^{e}" for a, e in self.items())


def gauss_fp(expr: dict) -> FormalPeriod:
    """Gauss-sum class of a character written multiplicatively over base
    labels, e.g. {"chi": n, "omega_Pi": -1} for G(chi^n omega_Pi^{-1})."""
    return FormalPeriod((atom_gauss(lbl), e) for lbl, e in expr.items())


def char_mul(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def char_inv(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def char_pow(a: dict, n: int) -> dict:
    return {k: n * v for k, v in a.items() if n * v}


@dataclass(frozen=True)
class Relation:
    name: str
    citation: str
    lhs: FormalPeriod
    rhs: FormalPeriod

    def __post_init__(self):
        if not self.name or not self.citation:
            raise ValueError("relation needs a name and a citation")


def replay(steps) -> FormalPeriod:
    """The product of the quotients lhs/rhs of (relation, exponent) steps,
    summed in one pass; a valid derivation leaves the identity."""
    return FormalPeriod((atom, sign * e * k)
                        for rel, e in steps
                        for sign, side in ((1, rel.lhs), (-1, rel.rhs))
                        for atom, k in side._exp.items())


# ---------------------------------------------------------------------------
# serialization

def _payload_to_json(atom: PeriodAtom) -> list:
    return [str(p) if isinstance(p, Fraction) else p for p in atom.payload]


def atom_to_json(atom: PeriodAtom) -> dict:
    return {"kind": atom.kind, "payload": _payload_to_json(atom)}


def atom_from_json(data: dict) -> PeriodAtom:
    kind, payload = data["kind"], data.get("payload", [])
    if kind not in _ATOMS:
        raise ValueError(f"unknown atom kind: {kind!r}")
    make, types = _ATOMS[kind]
    if len(payload) != len(types):
        raise ValueError(f"{kind} atom needs {len(types)} payload entries, "
                         f"got {len(payload)}")
    try:
        return make(*(t(p) for t, p in zip(types, payload)))
    except TypeError as exc:
        raise ValueError(f"bad {kind} payload: {exc}") from exc


def period_to_json(p: FormalPeriod) -> list:
    return [[atom_to_json(a), e] for a, e in p.items()]


def period_from_json(data) -> FormalPeriod:
    return FormalPeriod((atom_from_json(a), json_int(e)) for a, e in data)


def relation_to_json(r: Relation) -> dict:
    return {"name": r.name, "citation": r.citation,
            "lhs": period_to_json(r.lhs), "rhs": period_to_json(r.rhs)}


def relation_from_json(data: dict) -> Relation:
    try:
        return Relation(json_str(data["name"]), json_str(data["citation"]),
                        period_from_json(data["lhs"]),
                        period_from_json(data["rhs"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed relation record: {exc!r}") from exc


class RelationDB:
    """Named relation store; read-mostly, persisted as structured text."""

    def __init__(self):
        self._relations = {}

    def add(self, relation: Relation):
        if relation.name in self._relations:
            if self._relations[relation.name] != relation:
                raise ValueError(f"relation {relation.name!r} already present")
        self._relations[relation.name] = relation

    def get(self, name: str) -> Relation:
        if name not in self._relations:
            raise KeyError(f"unknown relation: {name!r}")
        return self._relations[name]

    def names(self):
        return sorted(self._relations)

    def save(self, path: str):
        """Write the database to path; a failed write leaves path as it was."""
        data = {"relations": [relation_to_json(self._relations[n])
                              for n in self.names()]}
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "RelationDB":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"{path} is nested too deeply") from exc
        entries = data.get("relations", []) if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f"{path} does not hold a relation database")
        db = cls()
        for entry in entries:
            db.add(relation_from_json(entry))
        return db


def check_script(db: RelationDB, script) -> FormalPeriod:
    """Replay {"relation": name, "exponent": int} entries against the
    relations stored in db; the residual of a valid derivation is the
    identity."""
    steps = []
    for entry in script:
        if (not isinstance(entry, dict)
                or set(entry) != {"relation", "exponent"}
                or not isinstance(entry["relation"], str)
                or type(entry["exponent"]) is not int):
            raise ValueError("a script entry needs exactly a str 'relation' "
                             f"and an int 'exponent', got {entry!r}")
        steps.append((db.get(entry["relation"]), entry["exponent"]))
    return replay(steps)
