"""The formal period group: a free abelian group on period atoms modulo
i^2 = -1, plus the replay of written relation steps and a persistent
relation database.

Atoms carry a kind tag and a payload:
    BW(label, sign)    Betti-Whittaker period p(Pi, eps), sign in {+1, -1}
    Gauss(label)       Gauss sum of a base Hecke character, label nonempty;
                       products of characters are decomposed over base
                       labels, so Gauss is multiplicative by construction
    ArchZ(m, pair)     archimedean period p(m, Pi x Sigma), m any exact
                       rational, kept as canonical p/q text
    LVal(s0, pair)     L-value class L(s0, Pi x Sigma), s0 as m is
    Delta(label)       fundamental period delta(M)
    DC(label, sign)    fundamental period c^{+-}(M), sign in {+1, -1}
    DCi(label, i)      fundamental period c_i(M)
    TwoPiI             2*pi*i
    I                  i, with exponent mod 2
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_text
from operator import itemgetter

from .infinity_types import as_fraction, json_int, json_list, json_str


# kind -> payload types: labels and points are str, signs and indices int
_ATOMS = {"BW": (str, int), "Gauss": (str,), "ArchZ": (str, str),
          "LVal": (str, str), "Delta": (str,), "DC": (str, int),
          "DCi": (str, int), "TwoPiI": (), "I": ()}
_SIGNED = frozenset({"BW", "DC"})  # kinds whose int is a sign, +1 or -1
_LABEL_INT = frozenset({"BW", "DC", "DCi"})  # kinds of a (label, int) payload


class PeriodAtom(tuple):
    """The pair (kind, payload); a tuple, so hashing and equality run in C.
    Construction is the one check of a kind's rules, as listed above."""

    __slots__ = ()

    def __new__(cls, kind: str, payload: tuple = ()):
        types = _ATOMS.get(kind)
        if types is None:
            raise ValueError(f"unknown atom kind: {kind!r}")
        if len(payload) != len(types):
            raise ValueError(f"{kind} atom needs {len(types)} payload "
                             f"entries, got {len(payload)}")
        if kind in ("ArchZ", "LVal"):
            payload = (str(as_fraction(payload[0])), payload[1])
        if tuple(map(type, payload)) != types:
            raise TypeError(f"bad {kind} payload: {payload!r}")
        if kind in _SIGNED and payload[1] not in (1, -1):
            raise ValueError(f"{kind} sign must be +1 or -1")
        if kind == "Gauss" and not payload[0]:
            raise ValueError("empty character label")
        return tuple.__new__(cls, (kind, tuple(payload)))

    kind = property(itemgetter(0))
    payload = property(itemgetter(1))

    def __getnewargs__(self):  # for copy and pickle
        return self.kind, self.payload

    def __repr__(self):
        return f"PeriodAtom(kind={self.kind!r}, payload={self.payload!r})"

    def render(self) -> str:
        parts = list(map(str, self[1]))
        if self[0] in _SIGNED:  # (label, sign)
            parts[1] = "+" if self[1][1] > 0 else "-"
        return f"{self[0]}({','.join(parts)})" if parts else self[0]

    def _key(self):
        return self[0], tuple(map(str, self[1]))

    def __lt__(self, other):
        return self._key() < other._key()


ATOM_TWO_PI_I = PeriodAtom("TwoPiI")
ATOM_I = PeriodAtom("I")


def _reduced(exp: dict) -> dict:
    """exp with the I exponent taken mod 2 and zero exponents dropped."""
    if ATOM_I in exp:
        exp[ATOM_I] %= 2
    if 0 in exp.values():
        exp = dict(filter(itemgetter(1), exp.items()))
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
            exp[atom] = exp.get(atom, 0) + (e if type(e) is int
                                            else json_int(e))
        self._exp = _reduced(exp)

    @classmethod
    def _of_exp(cls, exp: dict) -> "FormalPeriod":
        """Wrap a reduced dict of checked atoms.  Several periods may wrap
        one dict, as each read of CheckResult.relations does: no code
        mutates a dict once it is wrapped."""
        p = object.__new__(cls)
        p._exp = exp
        return p

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
        return _period(self._exp.copy(), (other._exp, 1))

    def __pow__(self, k: int) -> "FormalPeriod":
        return _period({}, (self._exp, json_int(k)))

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


def _period(exp: dict, *classes) -> FormalPeriod:
    """exp times prod g^k over classes (g, k) of reduced exponent dicts, each
    added into exp in its own order; the trusted accumulator, as
    FormalPeriod(pairs) is the checked one."""
    get = exp.get
    for g, k in classes:
        for a, e in g.items():
            exp[a] = get(a, 0) + k * e
    return FormalPeriod._of_exp(_reduced(exp))


def _summed(steps, exp: dict) -> FormalPeriod:
    """exp times prod lhs^e rhs^-e over written steps, in one loop."""
    get = exp.get
    for _, (_, lhs, rhs), e in steps:
        for a, k in lhs.items():
            exp[a] = get(a, 0) + e * k
        for a, k in rhs.items():
            exp[a] = get(a, 0) - e * k
    return FormalPeriod._of_exp(_reduced(exp))


def dual_label(label: str) -> str:
    return label + "^v"


def gauss_fp(expr: dict) -> FormalPeriod:
    """Gauss-sum class of a character over base labels, e.g. {"chi": n,
    "omega_Pi": -1} for G(chi^n omega_Pi^{-1}); G is multiplicative, so
    characters multiply, invert and take powers as their classes do."""
    return FormalPeriod((PeriodAtom("Gauss", (lbl,)), e)
                        for lbl, e in expr.items())


class Relation(namedtuple("Relation", "name citation lhs rhs")):
    """The cited identity lhs = rhs of two formal periods: the view of a
    written step that CheckResult.relations gives; no writer builds one."""

    __slots__ = ()


def replay(steps, atoms=()) -> FormalPeriod:
    """The product of lhs/rhs over (name, body, exponent) steps, each body a
    (citation, lhs, rhs) of reduced exponent dicts or a record that load
    kept, summed per index of atoms, whose nonzero sums are decoded first."""
    written, sums = [], [0] * len(atoms)
    for step in steps:
        _, body, e = step
        e = e if type(e) is int else json_int(e)
        if type(body) is not dict:
            written.append(step)
            continue
        for i, k in body["lhs"]:
            sums[i] += e * k
        for i, k in body["rhs"]:
            sums[i] -= e * k
    return _summed(written, FormalPeriod(filter(itemgetter(1), zip(
        atoms, sums)))._exp if atoms else {})


class CheckResult(namedtuple("CheckResult", "residual steps i_parity",
                             defaults=((), 0))):
    """A replay's residual, its (name, body, exponent) steps as written and
    its i-parity; relations wraps the steps on each read, so a caller that
    reads only the verdict builds no record."""

    __slots__ = ()

    @property
    def relations(self) -> tuple:
        p = FormalPeriod._of_exp
        return tuple([(Relation(name, citation, p(lhs), p(rhs)), e)
                      for name, (citation, lhs, rhs), e in self[1]])

    def __hash__(self):  # of the fields that hold no dict
        return hash((self[0], self[2]))

    @property
    def is_ok(self) -> bool:
        return self[0].is_trivial

    def offending_atom(self):
        return self[0].offending_atom()

    def to_script(self) -> list:
        return [{"relation": name, "exponent": e} for name, _, e in self[1]]

    def register(self, db: RelationDB):
        db._store(self[1])


def derived(steps, i_parity: int = 0) -> CheckResult:
    """The CheckResult of a builtin's written steps, its residual summed on
    the trusted path, as replay is the checked one: prod lhs^e rhs^-e."""
    steps = tuple(steps)
    return tuple.__new__(CheckResult, (_summed(steps, {}), steps, i_parity))


# ---------------------------------------------------------------------------
# serialization, as json.dumps(..., sort_keys=True) writes the records; a
# version-2 record indexes tables that hold each atom and citation once

def atom_to_json(atom: PeriodAtom) -> str:
    kind, payload = atom  # any payload but a (label, int) one is text
    payload = (f"{_json_text(payload[0])}, {payload[1]}" if kind in _LABEL_INT
               else ", ".join(map(_json_text, payload)))
    return f'{{"kind": "{kind}", "payload": [{payload}]}}'


def period_to_json(p: FormalPeriod, atoms: dict) -> str:
    """p's [atom index, exponent] pairs; atoms numbers each new atom."""
    return "[" + ", ".join([f"[{atoms.setdefault(a, len(atoms))}, {e}]"
                            for a, e in p._exp.items()]) + "]"


def relation_to_json(name: str, body: tuple, atoms: dict,
                     citations: dict) -> str:
    """The line of relation name, its body (citation, lhs, rhs) with reduced
    exponent dicts as sides; atoms and citations number each new entry."""
    citation, lhs, rhs = body
    citation = citations.setdefault(citation, len(citations))
    lhs = ", ".join([f"[{atoms.setdefault(a, len(atoms))}, {e}]"
                     for a, e in lhs.items()])
    rhs = ", ".join([f"[{atoms.setdefault(a, len(atoms))}, {e}]"
                     for a, e in rhs.items()])
    return (f'{{"citation": {citation}, "lhs": [{lhs}], '
            f'"name": {_json_text(name)}, "rhs": [{rhs}]}}')


def atom_from_json(data: dict) -> PeriodAtom:
    """A well-typed BW, DC, DCi or Delta payload is built in one step; any
    other is typed entry by entry and goes through PeriodAtom, which names
    what is wrong."""
    kind, payload = data["kind"], data.get("payload", [])
    if (kind in _LABEL_INT and type(payload) is list
            and len(payload) == 2):
        label, x = payload
        if (type(label) is str and type(x) is int
                and (x in (1, -1) or kind not in _SIGNED)):
            return tuple.__new__(PeriodAtom, (kind, (label, x)))
    elif (kind == "Delta" and type(payload) is list and len(payload) == 1
            and type(payload[0]) is str):
        return tuple.__new__(PeriodAtom, (kind, (payload[0],)))
    types = _ATOMS.get(kind)
    try:  # PeriodAtom names an unknown kind or a wrong count
        if types is not None and len(json_list(payload)) == len(types):
            payload = [(json_str if t is str else json_int)(p)
                       for t, p in zip(types, payload)]
    except TypeError as exc:
        raise ValueError(f"bad {kind} payload: {exc}") from exc
    return PeriodAtom(kind, payload)


def _entry(table: list, i, what: str):
    if type(i) is int and 0 <= i < len(table):
        return table[i]
    raise ValueError(f"bad {what} index {i!r} into a table of {len(table)}")


def period_from_json(data, atoms: list = None) -> FormalPeriod:
    """A side of a relation: [atom index, exponent] pairs into the decoded
    atom table of a version-2 file, or without one, [atom, exponent]."""
    def pairs():
        for pair in json_list(data):
            if type(pair) is not list or len(pair) != 2:
                raise ValueError("a pair must be [atom, exponent], "
                                 f"got {pair!r}")
            a, e = pair
            yield (atom_from_json(a) if atoms is None
                   else _entry(atoms, a, "atom")), e
    return FormalPeriod(pairs())


def relation_from_json(data: dict, atoms: list = None,
                       citations: list = None) -> tuple:
    """The step (name, (citation, lhs, rhs), 1) of a relation record, its
    sides reduced exponent dicts; the name and the citation must be
    nonempty, which is checked once both sides decode."""
    try:
        citation = (data["citation"] if citations is None
                    else _entry(citations, data["citation"], "citation"))
        name, citation = json_str(data["name"]), json_str(citation)
        lhs = period_from_json(data["lhs"], atoms)._exp
        rhs = period_from_json(data["rhs"], atoms)._exp
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed relation record: {exc!r}") from exc
    if not name or not citation:
        raise ValueError("relation needs a name and a citation")
    return name, (citation, lhs, rhs), 1


DB_VERSION = 2  # of the file layout; a file without "version" is version 1


class RelationDB:
    """Named relation store; read-mostly, persisted as structured text.  It
    holds each relation as a body (citation, lhs, rhs), its sides reduced
    exponent dicts of checked atoms, or as a record that load kept."""

    def __init__(self):
        self._relations, self._tables = {}, ([], [])  # load's atoms, citations

    def _store(self, steps):
        """Hold each step's body by name; a taken name needs an equal body."""
        held = self._relations
        for name, body, _ in steps:
            if (held.setdefault(name, body) is not body
                    and self._body(name) != body):
                raise ValueError(f"relation {name!r} already present")
            held[name] = body

    def _body(self, name: str) -> tuple:
        """The body of a held relation; a kept record's sides are decoded."""
        r = self._relations[name]
        if type(r) is not dict:
            return r
        atoms, citations = self._tables
        return (citations[r["citation"]],
                period_from_json(r["lhs"], atoms)._exp,
                period_from_json(r["rhs"], atoms)._exp)

    def names(self):
        return sorted(self._relations)

    def save(self, path: str):
        """Write the database to path as sorted-key JSON: each distinct atom
        on a line of its own in order of first use, the citations, then one
        relation per line; a failed write leaves path as it was."""
        atoms, citations, held = {}, {}, self._relations  # decode kept ones
        lines = ",\n".join([relation_to_json(
            name, self._body(name) if type(held[name]) is dict else held[name],
            atoms, citations) for name in self.names()])
        table = ",\n".join(map(atom_to_json, atoms))
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(f'{{"atoms": [\n{table}\n], "citations": '
                         f'[{", ".join(map(_json_text, citations))}], '
                         f'"relations": [\n{lines}\n], '
                         f'"version": {DB_VERSION}}}\n')
            os.replace(tmp, path)
        except OSError as exc:  # name path, not the temporary file
            if exc.errno is None:
                raise
            raise OSError(exc.errno, exc.strerror, path) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "RelationDB":
        """Read a version-2 file, keeping each record whose ints all check in
        one pass, or a version-1 file (one without "version" too)."""
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
        if type(version) is not int or version not in (1, DB_VERSION):
            raise ValueError(f"{path} has an unknown DB version {version!r}")
        db, atoms, citations = cls(), None, None
        if version == DB_VERSION:
            atoms, citations = data.get("atoms"), data.get("citations")
            if type(atoms) is not list or type(citations) is not list:
                raise ValueError(f"{path} needs an atom and a citation table")
            try:
                atoms = [atom_from_json(a) for a in atoms]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed atom record: {exc!r}") from exc
            db._tables = atoms, citations
        ok = {i for i, c in enumerate(citations or ()) if type(c) is str and c}
        size = len(db._tables[0])
        for r in entries:  # ok: the good citation indices, none in version 1
            if (type(r) is dict and type(c := r.get("citation")) is int
                    and c in ok and type(r.get("name")) is str and r["name"]
                    and type(r.get("lhs")) is list is type(r.get("rhs"))):
                try:  # each pair must be two ints, the first an atom index
                    for i, e in chain(r["lhs"], r["rhs"]):
                        if not (type(i) is type(e) is int and 0 <= i < size):
                            raise ValueError
                except (TypeError, ValueError):
                    pass  # relation_from_json names what is wrong
                else:  # kept as it is, unless its name is taken
                    if db._relations.setdefault(r["name"], r) is r:
                        continue
            db._store([relation_from_json(r, atoms, citations)])
        return db


def check_script(db: RelationDB, script) -> FormalPeriod:
    """Replay {"relation": name, "exponent": int} entries against the
    relations stored in db; the residual of a valid derivation is the
    identity."""
    steps, held = [], db._relations
    for entry in script:
        if (not isinstance(entry, dict) or len(entry) != 2
                or "relation" not in entry or "exponent" not in entry
                or not isinstance(entry["relation"], str)
                or type(entry["exponent"]) is not int):
            raise ValueError("a script entry needs exactly a str 'relation' "
                             f"and an int 'exponent', got {entry!r}")
        name, body = entry["relation"], held.get(entry["relation"])
        if body is None:
            raise KeyError(f"unknown relation: {name!r}")
        steps.append((name, body, entry["exponent"]))
    return replay(steps, db._tables[0])
