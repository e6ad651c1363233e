"""The formal period group: a free abelian group on period atoms modulo
i^2 = -1, plus relation records and a persistent relation database.

Atoms carry a kind tag and a payload:
    BW(label, sign)    Betti-Whittaker period p(Pi, eps), sign in {+1, -1}
    Gauss(label)       Gauss sum of a base Hecke character; products of
                       characters are decomposed over base labels, so Gauss
                       is multiplicative by construction
    ArchZ(m, pair)     archimedean period p(m, Pi x Sigma), m as p/q text
    LVal(s0, pair)     L-value class L(s0, Pi x Sigma), s0 as p/q text
    Delta(label)       fundamental period delta(M)
    DC(label, sign)    fundamental period c^{+-}(M)
    DCi(label, i)      fundamental period c_i(M)
    TwoPiI             2*pi*i
    I                  i, with exponent mod 2
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_text
from operator import itemgetter

from .infinity_types import as_fraction, json_int, json_str


class PeriodAtom(tuple):
    """The pair (kind, payload); a tuple, so hashing and equality run in C."""

    __slots__ = ()

    def __new__(cls, kind: str, payload: tuple = ()):
        if kind not in _ATOMS:
            raise ValueError(f"unknown atom kind: {kind!r}")
        if tuple(map(type, payload)) != _ATOMS[kind][1]:  # for every atom
            raise TypeError(f"bad {kind} payload: {payload!r}")
        return tuple.__new__(cls, (kind, payload))

    kind = property(itemgetter(0))
    payload = property(itemgetter(1))

    def __getnewargs__(self):  # for copy and pickle
        return self.kind, self.payload

    def __repr__(self):
        return f"PeriodAtom(kind={self.kind!r}, payload={self.payload!r})"

    def render(self) -> str:
        parts = list(map(str, self[1]))
        if self[0] in ("BW", "DC"):  # (label, sign)
            parts[1] = "+" if self[1][1] > 0 else "-"
        return f"{self[0]}({','.join(parts)})" if parts else self[0]

    def _key(self):
        return self[0], tuple(map(str, self[1]))

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
    return PeriodAtom("ArchZ", (str(as_fraction(m)), pair))


def atom_lval(s0, pair: str) -> PeriodAtom:
    return PeriodAtom("LVal", (str(as_fraction(s0)), pair))


def atom_delta(label: str) -> PeriodAtom:
    return PeriodAtom("Delta", (label,))


def atom_dc(label: str, sign: int) -> PeriodAtom:
    if sign not in (1, -1):
        raise ValueError("DC sign must be +1 or -1")
    return PeriodAtom("DC", (label, sign))


def atom_dci(label: str, i: int) -> PeriodAtom:
    return PeriodAtom("DCi", (label, i))


# kind -> (constructor, payload types); labels and points are str, signs and
# indices int, and ArchZ and LVal keep their point as canonical p/q text
_ATOMS = {
    "BW": (atom_bw, (str, int)),
    "Gauss": (atom_gauss, (str,)),
    "ArchZ": (atom_archz, (str, str)),
    "LVal": (atom_lval, (str, str)),
    "Delta": (atom_delta, (str,)),
    "DC": (atom_dc, (str, int)),
    "DCi": (atom_dci, (str, int)),
    "TwoPiI": (lambda: ATOM_TWO_PI_I, ()),
    "I": (lambda: ATOM_I, ()),
}

ATOM_TWO_PI_I = PeriodAtom("TwoPiI")
ATOM_I = PeriodAtom("I")


def _reduced(exp: dict) -> dict:
    """exp with the I exponent taken mod 2 and zero exponents dropped."""
    if ATOM_I in exp:
        exp[ATOM_I] %= 2
    if 0 in exp.values():
        exp = {a: e for a, e in exp.items() if e}
    return exp


class FormalPeriod:
    """Element of the free abelian group on atoms, I reduced mod 2; public
    construction checks atoms, and the group operations trust them."""

    __slots__ = ("_exp",)

    def __init__(self, pairs=()):
        """Accumulate (atom, exponent) pairs; repeated atoms add up."""
        exp = {}
        for atom, e in pairs:
            if not isinstance(atom, PeriodAtom):
                raise TypeError(f"not an atom: {atom!r}")
            exp[atom] = exp.get(atom, 0) + int(e)
        self._exp = _reduced(exp)

    @classmethod
    def _of_exp(cls, exp: dict) -> "FormalPeriod":
        """Wrap a reduced dict of checked atoms that no other period holds."""
        p = object.__new__(cls)
        p._exp = exp
        return p

    @classmethod
    def unit(cls) -> "FormalPeriod":
        return cls()

    @classmethod
    def atom(cls, atom: PeriodAtom, e: int = 1) -> "FormalPeriod":
        if not isinstance(atom, PeriodAtom):
            raise TypeError(f"not an atom: {atom!r}")
        return cls._of_exp(_reduced({atom: int(e)}))

    @classmethod
    def of(cls, *pairs) -> "FormalPeriod":
        return cls(pairs)

    def exponent(self, atom: PeriodAtom) -> int:
        return self._exp.get(atom, 0)

    def atoms(self):
        return sorted(self._exp, key=PeriodAtom._key)

    def items(self):
        return sorted(self._exp.items(), key=lambda item: item[0]._key())

    def __mul__(self, other: "FormalPeriod") -> "FormalPeriod":
        exp = self._exp.copy()
        for a, e in other._exp.items():
            exp[a] = exp.get(a, 0) + e
        return FormalPeriod._of_exp(_reduced(exp))

    def __pow__(self, k: int) -> "FormalPeriod":
        k = int(k)
        exp = {a: k * e for a, e in self._exp.items()} if k else {}
        return FormalPeriod._of_exp(_reduced(exp))

    @property
    def is_trivial(self) -> bool:
        return not self._exp

    def offending_atom(self):
        """Render the first non-cancelling atom, or None if trivial."""
        if self.is_trivial:
            return None
        return min(self._exp, key=PeriodAtom._key).render()

    def __eq__(self, other):
        return isinstance(other, FormalPeriod) and self._exp == other._exp

    def __hash__(self):
        return hash(frozenset(self._exp.items()))

    def __repr__(self):
        if not self._exp:
            return "1"
        return " * ".join(f"{a.render()}^{e}" for a, e in self.items())


def dual_label(label: str) -> str:
    return label + "^v"


def gauss_fp(expr: dict) -> FormalPeriod:
    """Gauss-sum class of a character over base labels, e.g. {"chi": n,
    "omega_Pi": -1} for G(chi^n omega_Pi^{-1}); G is multiplicative, so
    characters multiply, invert and take powers as their classes do."""
    return FormalPeriod((atom_gauss(lbl), e) for lbl, e in expr.items())


class Relation(namedtuple("Relation", "name citation lhs rhs")):
    """The cited identity lhs = rhs of two formal periods."""

    __slots__ = ()

    def __new__(cls, name: str, citation: str, lhs: FormalPeriod,
                rhs: FormalPeriod):
        if not name or not citation:
            raise ValueError("relation needs a name and a citation")
        return tuple.__new__(cls, (name, citation, lhs, rhs))


def replay(steps) -> FormalPeriod:
    """The product of the quotients lhs/rhs of (relation, exponent) steps,
    summed in one pass; a valid derivation leaves the identity."""
    exp = {}
    for rel, e in steps:
        e = int(e)
        for atom, k in rel.lhs._exp.items():
            exp[atom] = exp.get(atom, 0) + e * k
        for atom, k in rel.rhs._exp.items():
            exp[atom] = exp.get(atom, 0) - e * k
    return FormalPeriod._of_exp(_reduced(exp))


class CheckResult(namedtuple("CheckResult", "residual relations i_parity",
                             defaults=((), 0))):
    """A replay's residual and steps; to_script writes them as a script."""

    __slots__ = ()

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


# ---------------------------------------------------------------------------
# serialization, as json.dumps(..., sort_keys=True) writes the records; a
# version-2 record indexes tables that hold each atom and citation once

def atom_to_json(atom: PeriodAtom) -> str:
    payload = ", ".join([_json_text(x) if type(x) is str else int.__repr__(x)
                         for x in atom[1]])
    return f'{{"kind": "{atom[0]}", "payload": [{payload}]}}'


def period_to_json(p: FormalPeriod, atoms: dict) -> str:
    """The [atom index, exponent] pairs of p in its own order; atoms numbers
    each atom of one save on its first use."""
    return "[" + ", ".join([f"[{atoms.setdefault(a, len(atoms))}, {e}]"
                            for a, e in p._exp.items()]) + "]"


def relation_to_json(r: Relation, atoms: dict, citations: dict) -> str:
    return (f'{{"citation": {citations.setdefault(r.citation, len(citations))}'
            f', "lhs": {period_to_json(r.lhs, atoms)}, '
            f'"name": {_json_text(r.name)}, '
            f'"rhs": {period_to_json(r.rhs, atoms)}}}')


def atom_from_json(data: dict) -> PeriodAtom:
    """A well-typed BW, DC, DCi or Delta payload is built in one step; any
    other goes through the kind's constructor, which names what is wrong."""
    kind, payload = data["kind"], data.get("payload", [])
    if (kind in {"BW", "DC", "DCi"} and type(payload) is list
            and len(payload) == 2):
        label, x = payload
        if (type(label) is str and type(x) is int
                and (x in (1, -1) or kind == "DCi")):
            return tuple.__new__(PeriodAtom, (kind, (label, x)))
    elif (kind == "Delta" and type(payload) is list and len(payload) == 1
            and type(payload[0]) is str):
        return tuple.__new__(PeriodAtom, (kind, (payload[0],)))
    if kind not in _ATOMS:
        raise ValueError(f"unknown atom kind: {kind!r}")
    make, types = _ATOMS[kind]
    if len(payload) != len(types):
        raise ValueError(f"{kind} atom needs {len(types)} payload entries, "
                         f"got {len(payload)}")
    try:
        return make(*[(json_str if t is str else json_int)(p)
                      for t, p in zip(types, payload)])
    except TypeError as exc:
        raise ValueError(f"bad {kind} payload: {exc}") from exc


def _entry(table: list, i, what: str):
    if type(i) is int and 0 <= i < len(table):
        return table[i]
    raise ValueError(f"bad {what} index {i!r} into a table of {len(table)}")


def period_from_json(data, atoms: list = None) -> FormalPeriod:
    """A side of a relation: [atom index, exponent] pairs into the decoded
    atom table of a version-2 file, or without one, [atom, exponent]."""
    exp = {}
    try:
        for a, e in data:
            atom = (atom_from_json(a) if atoms is None
                    else _entry(atoms, a, "atom"))
            exp[atom] = exp.get(atom, 0) + (e if type(e) is int
                                            else json_int(e))
    except ValueError as exc:
        if exc.__traceback__.tb_next is not None:  # raised by a decoder
            raise
        # the pairs before the one that failed to unpack each had two entries
        bad = next(p for p in data if len(p) != 2)
        raise ValueError(f"a pair must be [atom, exponent], got {bad!r}")
    return FormalPeriod._of_exp(_reduced(exp))


def relation_from_json(data: dict, atoms: list = None,
                       citations: list = None) -> Relation:
    try:
        citation = (data["citation"] if citations is None
                    else _entry(citations, data["citation"], "citation"))
        return Relation(json_str(data["name"]), json_str(citation),
                        period_from_json(data["lhs"], atoms),
                        period_from_json(data["rhs"], atoms))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed relation record: {exc!r}") from exc


DB_VERSION = 2  # of the file layout; a file without "version" is version 1


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
        """Write the database to path as sorted-key JSON: each distinct atom
        on a line of its own in order of first use, the citations, then one
        relation per line; a failed write leaves path as it was."""
        atoms, citations = {}, {}
        lines = ",\n".join([relation_to_json(self._relations[n], atoms,
                                              citations)
                             for n in self.names()])
        table = ",\n".join(map(atom_to_json, atoms))
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f'{{"atoms": [\n{table}\n], "citations": '
                         f'[{", ".join(map(_json_text, citations))}], '
                         f'"relations": [\n{lines}\n], '
                         f'"version": {DB_VERSION}}}\n')
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "RelationDB":
        """Read a version-2 file, or a version-1 file (also one without
        "version"), whose relations hold each atom and citation in full."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"{path} is nested too deeply") from exc
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path} is not UTF-8: {exc}") from exc
        entries = data.get("relations", []) if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f"{path} does not hold a relation database")
        version = data.get("version", 1)
        if type(version) is not int or version not in (1, DB_VERSION):
            raise ValueError(f"{path} has an unknown DB version {version!r}")
        atoms = citations = None
        if version == DB_VERSION:
            atoms, citations = data.get("atoms"), data.get("citations")
            if type(atoms) is not list or type(citations) is not list:
                raise ValueError(f"{path} needs an atom and a citation table")
            try:
                atoms = [atom_from_json(a) for a in atoms]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed atom record: {exc!r}") from exc
        db = cls()
        for entry in entries:
            db.add(relation_from_json(entry, atoms, citations))
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
