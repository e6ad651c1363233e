"""Every function in src/periodcalc runs on some golden CLI request, or is
named in NOT_ENTERED with the reason it stays.

The requests of tests/golden/cli.jsonl are replayed under sys.setprofile in
a fresh interpreter, which imports each module on first use as a request
does (periodcalc.__getattr__ runs only then).  A function is keyed by the
(file, co_firstlineno) of its code object, which for a decorated function is
the line of its first decorator, because Python 3.10 code objects carry no
qualified name; this module builds each function's qualified name from how
the code objects nest, and the table names functions by it.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import types

import periodcalc
from tests.golden.make_cli_corpus import records, run

TRACER = "tracer target"
HELPER = "helper of a tracer target"
VALUE = "value protocol"

# the functions that no golden request enters, each tagged with why it stays:
# the benchmark tracer (perfbench/tracer.py) wraps it by name, only such a
# function calls it, or it is a dunder or accessor of a value type
NOT_ENTERED = {
    "arch_l._gamma": HELPER,
    "arch_l.l_factor": TRACER,
    "arch_l.is_holomorphic_at": TRACER,
    "formal.PeriodAtom.__getnewargs__": VALUE,
    "formal.PeriodAtom.__repr__": VALUE,
    "formal.PeriodAtom.__lt__": VALUE,
    "formal.FormalPeriod.__mul__": TRACER,
    "formal.FormalPeriod.__pow__": TRACER,
    "formal.FormalPeriod.of": TRACER,
    "formal.FormalPeriod.atoms": VALUE,
    "formal.FormalPeriod.__eq__": VALUE,
    "formal.FormalPeriod.__hash__": VALUE,
    "formal.CheckResult.__hash__": VALUE,
    # kept for perfbench/tracer.py, which wraps it by name, until item 1a
    "formal.period_to_json": TRACER,
    "infinity_types.to_arch_rep": TRACER,
    "weil_real.ArchCharacter.__new__": VALUE,
    "weil_real.ArchCharacter.__repr__": VALUE,
    "weil_real.ArchDiscrete.__new__": VALUE,
    "weil_real.ArchDiscrete.__repr__": VALUE,
    "weil_real.ArchRep.__new__": VALUE,
    "weil_real.ArchRep.__iter__": VALUE,
    "weil_real.ArchRep.__getnewargs__": VALUE,
    "weil_real.ArchRep.__repr__": VALUE,
    "weil_real.char": HELPER,
    "weil_real.disc": HELPER,
    "weil_real._expand_disc": HELPER,
    "weil_real._tensor_pair": HELPER,
    "weil_real.tensor": TRACER,
    "weil_real._sym2_single": HELPER,
    "weil_real._wedge2_single": HELPER,
    "weil_real._square_expand": HELPER,
    "weil_real.sym2": TRACER,
    "weil_real.wedge2": TRACER,
    "weil_real.dual": TRACER,
    "yoshida.FundamentalMonomial.__new__": HELPER,
    "yoshida._monomial_exp": HELPER,
    "yoshida.dual_relation": TRACER,
    "yoshida.tate_twist_relation": TRACER,
    "yoshida.delta_tensor": TRACER,
    "yoshida.rank2_tensor_expansion": TRACER,
}


def _functions(code, prefix, path, out):
    """Add (path, first line) -> qualified name for each function whose code
    object code holds, at any depth below a class body or a function."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name[0] == "<":
            continue  # a lambda or a comprehension
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
            out[path, const.co_firstlineno] = name
            name += ".<locals>"
        _functions(const, name + ".", path, out)


def never_entered():
    """Print, as a JSON list, the qualified name of every src function that
    no golden request enters; run in an interpreter that has not imported a
    periodcalc submodule yet."""
    package = os.path.dirname(periodcalc.__file__)
    functions = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                _functions(compile(fh.read(), path, "exec"),
                           f"{name[:-3]}.", path, functions)
    corpus = records()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for want in corpus:
            run(want["argv"], want.get("files"),
                "db.json" if "db" in want else None)
    finally:
        sys.setprofile(None)
    print(json.dumps(sorted(name for key, name in functions.items()
                            if key not in entered)))


def test_every_function_runs_on_a_request_or_is_named_with_its_reason():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        periodcalc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from tests.test_reach import never_entered; never_entered()"],
        cwd=root, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([root, src])))
    assert proc.returncode == 0, proc.stderr
    never = set(json.loads(proc.stdout))
    assert (sorted(never - NOT_ENTERED.keys()),
            sorted(NOT_ENTERED.keys() - never)) == ([], [])


def test_every_function_in_the_table_carries_one_of_the_three_tags():
    assert set(NOT_ENTERED.values()) <= {TRACER, HELPER, VALUE}


class _Dotted(str):
    """A module or class of perfbench/tracer.py, standing for its name."""

    def __getattr__(self, attr):
        return _Dotted(f"{self}.{attr}")


def traced_names() -> set:
    """The qualified name of every function that perfbench/tracer.py wraps:
    each (owner, attribute) of its TARGETS, which is evaluated over stand-in
    names and its literal tables, and each _replace call with a literal
    attribute; read from the source, so perfbench is not imported."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    targets, literals, names = None, {}, set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = ast.unparse(node.targets[0])
            if target == "TARGETS":
                targets = node.value
            else:
                try:
                    literals[target] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    scope = {n.id: literals.get(n.id, _Dotted(n.id))
             for n in ast.walk(targets) if isinstance(n, ast.Name)}
    for owner, attr, *_ in eval(compile(ast.Expression(targets), "TARGETS",
                                        "eval"), scope):
        names.add(f"{owner}.{attr}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_replace"
                and isinstance(node.args[1], ast.Constant)):
            names.add(f"{ast.unparse(node.args[0])}.{node.args[1].value}")
    return names


def test_every_tracer_tag_names_a_function_the_tracer_wraps():
    traced = traced_names()
    assert {"formal.FormalPeriod.of", "arch_l.is_holomorphic_at",
            "yoshida.delta_tensor",
            "period_algebra.check_motivic_dual"} <= traced
    assert sorted(name for name, tag in NOT_ENTERED.items()
                  if tag == TRACER and name not in traced) == []
