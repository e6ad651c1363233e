"""Command-line front end: every query of the library behind one binary.

Exit codes: 0 success (and trivial residual for `check`), 1 mathematical
rejection (failed precondition or nonzero residual), 2 schema/usage error.
All numerics in machine output are exact fraction strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .infinity_types import (DominantWeight, InfinityType, as_fraction,
                             character_sign, infinity_to_weight,
                             self_dual_homs, weight_to_infinity)


# the largest rank any flag or payload may ask for; every check at this rank
# runs in a few seconds
MAX_RANK = 256
# the largest kappa entry a payload may give; a critical set has fewer
# points than its pair's largest kappa, and `critical` prints them all
MAX_KAPPA = 10_000
# the largest |w| a payload or `check --w` may give; `critical` prints every
# point, each with the digits of w
MAX_W = 10_000
# the most characters of a fraction flag (--m, --u)
MAX_FRACTION_CHARS = 40


class SchemaError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line (exit 2)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _check_rank(n: int, what: str):
    if n > MAX_RANK:
        raise SchemaError(f"{what} = {n} exceeds the largest rank {MAX_RANK}")


def _check_w(w: int, what: str):
    if abs(w) > MAX_W:
        raise SchemaError(f"{what} exceeds the largest |w| {MAX_W}")


def _parse_json(text: str):
    try:
        return json.loads(sys.stdin.read() if text == "-" else text)
    except ValueError as exc:  # also an integer too long, or stdin not UTF-8
        raise SchemaError(f"invalid payload: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("invalid payload: nested too deeply") from exc


def _parse_payload(text: str, cls):
    """An InfinityType (or a MotiveShape) from its JSON payload."""
    data = _parse_json(text)
    try:
        if type(data) is not dict:
            raise TypeError(f"expected an object, got {data!r}")
        obj = cls.from_json(data)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad {cls.__name__} payload: {exc}") from exc
    return _check_caps(obj, cls)


def _check_caps(obj, cls):
    _check_rank(obj.n, f"{cls.__name__} n")
    if obj.kappa and obj.kappa[0] > MAX_KAPPA:
        raise SchemaError(f"{cls.__name__} kappa {obj.kappa[0]} exceeds "
                          f"the largest kappa {MAX_KAPPA}")
    _check_w(obj.w if cls is InfinityType else obj.weight,
             f"{cls.__name__} weight")
    return obj


def _int(text: str) -> int:
    """An integer flag or --weight entry in as_fraction's grammar -?[0-9]+;
    int() would also read '+4', ' 4', '1_0' and non-ASCII digits."""
    if "/" not in text:
        try:
            return as_fraction(text).numerator
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_fraction(text: str, flag: str) -> Fraction:
    if len(text) > MAX_FRACTION_CHARS:
        raise SchemaError(f"{flag} must be a fraction p/q of at most "
                          f"{MAX_FRACTION_CHARS} characters")
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise SchemaError(f"{flag} is not a fraction: {text!r}") from exc


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# ---------------------------------------------------------------------------
# subcommands

def cmd_infinity_type(args) -> int:
    if args.weight is not None:
        try:
            entries = tuple(map(_int, args.weight.split(",")))
        except argparse.ArgumentTypeError as exc:
            raise SchemaError(f"bad weight vector: {exc}") from exc
        _check_rank(len(entries), "weight length")
        t = weight_to_infinity(DominantWeight(entries))
        _check_caps(t, InfinityType)
        payload = {"infinity_type": t.to_json()}
        human = (f"weight {entries} -> kappa={list(t.kappa)}, w={t.w}, "
                 f"n={t.n}")
        if args.round_trip:
            back = infinity_to_weight(t)
            payload["weight"] = list(back.entries)
            human += f"; back to weight {back.entries}"
    else:
        t = _parse_payload(args.type, InfinityType)
        mu = infinity_to_weight(t)
        payload = {"weight": list(mu.entries)}
        human = f"infinity type {t.to_json()} -> weight {mu.entries}"
        if args.round_trip:
            back = weight_to_infinity(mu)
            payload["infinity_type"] = back.to_json()
            human += f"; back to {back.to_json()}"
    _emit(args, payload, human)
    return 0


def cmd_critical(args) -> int:
    from . import arch_l
    pi = _parse_payload(args.pi, InfinityType)
    sigma = _parse_payload(args.sigma, InfinityType)
    points = arch_l.critical_points(pi, sigma)
    center = arch_l.central_point(pi, sigma)
    central_ok = center in points
    payload = {"critical": [str(m) for m in points],
               "central_point": str(center),
               "central_is_critical": central_ok}
    if pi.n % 2 == 0:
        payload["closed_form"] = payload["critical"]
    human = (f"critical points: {', '.join(str(m) for m in points) or '(none)'}"
             f"; central point {center} "
             f"({'critical' if central_ok else 'not critical'})")
    _emit(args, payload, human)
    return 0


def cmd_classify(args) -> int:
    pi = _parse_payload(args.pi, InfinityType)
    u = _parse_fraction(args.u, "--u")
    if u.denominator != 1:
        raise ValueError("chi twist must be integral for the sign epsilon")
    d_sym, d_wedge = self_dual_homs(pi, args.delta, u)
    verdict = ("orthogonal" if d_sym > 0 else "symplectic" if d_wedge > 0
               else "neither")
    eps_chi = character_sign(args.delta, u.numerator)
    payload = {"verdict": verdict, "hom_sym2": d_sym, "hom_wedge2": d_wedge,
               "epsilon_chi_inf": eps_chi}
    human = (f"{verdict}: dim Hom(Sym^2, chi) = {d_sym}, "
             f"dim Hom(Wedge^2, chi) = {d_wedge}, eps(chi_inf) = {eps_chi:+d}")
    _emit(args, payload, human)
    return 0


def cmd_deligne(args) -> int:
    from . import yoshida
    from .formal import FormalPeriod
    M = _parse_payload(args.motive, yoshida.MotiveShape)
    N = _parse_payload(args.aux, yoshida.MotiveShape)
    name, (_, lhs, rhs), _ = yoshida.tensor_deligne(M, N, args.sign)
    lhs, rhs = (repr(FormalPeriod._of_exp(side)) for side in (lhs, rhs))
    payload = {"name": name, "lhs": lhs, "rhs": rhs}
    _emit(args, payload, f"{name}: {lhs} = {rhs}")
    return 0


def _check_main1(args):
    # a negative control that corrupts nothing must not report success
    if args.corrupt and args.n == 1:
        raise SchemaError("--corrupt needs --n >= 2; the rank-1 base case "
                          "has no relation to corrupt")
    _check_w(args.w, "--w")
    # --m is the critical point m0 = m + 1/2 on the half-integer lattice
    m0 = _parse_fraction(args.m, "--m")
    delta = args.delta if args.delta is not None else args.n % 2
    _check_w(delta, "--delta")
    from .period_algebra import check_main1_step, require_main1_hypotheses
    m = m0 - Fraction(1, 2)
    if m.denominator != 1:
        # the step's rank and parity errors come before the point's
        require_main1_hypotheses(args.n, args.w, delta)
        raise ValueError(f"--m must be a half-integer m0 = m + 1/2, "
                         f"got {m0}")
    return check_main1_step(args.n, args.w, delta, m, corrupt=args.corrupt)


def _check_corollary_main(args):
    # relation names join labels with ^ and *, so a label is an ASCII
    # identifier, [A-Za-z_][A-Za-z0-9_]*
    if args.chi is not None and not (args.chi.isascii()
                                     and args.chi.isidentifier()):
        raise SchemaError(f"--chi must be a character label "
                          f"[A-Za-z_][A-Za-z0-9_]*, not {args.chi!r}")
    from .period_algebra import check_corollary_main
    chi = {args.chi: 1} if args.chi is not None else None
    return check_corollary_main(args.n, orthogonal=not args.symplectic,
                                chi_expr=chi, corrupt=args.corrupt)


def _check_main2(args):
    _check_rank(args.nprime, "--nprime")
    # positive ranks with an even n' replay no relation
    if (args.corrupt and args.n > 0 and args.nprime > 0
            and args.nprime % 2 == 0):
        raise SchemaError(f"--corrupt needs an odd --nprime; n' = "
                          f"{args.nprime} has no relation to corrupt")
    from .period_algebra import check_theorem_main2
    return check_theorem_main2(
        args.n, args.nprime, include_i_power=not args.no_i_power,
        eps_num=args.eps_num, corrupt=args.corrupt)


def _check_motivic_dual(args):
    if args.i is not None and not 1 <= args.i < args.n // 2:
        raise SchemaError(f"--i must lie in 1..{args.n // 2 - 1}" if args.n > 3
                          else f"--i needs --n >= 4; rank {args.n} has no c_i")
    if args.corrupt and args.n in (2, 3):
        raise SchemaError(f"--corrupt needs --n >= 4; rank {args.n} has no "
                          "c_i to corrupt")
    from .period_algebra import check_motivic_dual
    return check_motivic_dual(args.n, i=args.i, corrupt=args.corrupt)


def cmd_check(args) -> int:
    if args.builtin is not None:
        # argparse rejects a --script after the builtin name, not one before
        if args.script is not None:
            raise SchemaError("give a builtin check name or --script, "
                              "not both")
        _check_rank(args.n, "--n")
        # each builtin checks its own flags before it loads period_algebra
        result = args.run(args)
        if args.db is not None:
            from .formal import RelationDB
            db = RelationDB()
            result.register(db)
            db.save(args.db)
    elif args.script is not None:
        if args.db is None:
            raise SchemaError("--script requires --db")
        text = args.script
        if not text.startswith(("[", "-")):
            with open(text, encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"{text} is not UTF-8: {exc}") from exc
        script = _parse_json(text)
        if not isinstance(script, list):
            raise SchemaError("script must be a list of relation entries")
        from .formal import CheckResult, RelationDB, check_script
        try:
            residual = check_script(RelationDB.load(args.db), script)
        except (KeyError, ValueError) as exc:
            raise SchemaError(exc.args[0]) from exc
        result = CheckResult(residual)
    else:
        raise SchemaError("give a builtin check name or --script")
    payload = {"ok": result.is_ok, "residual": repr(result.residual),
               "i_parity": result.i_parity}
    if not result.is_ok:
        payload["offending_atom"] = result.offending_atom()
    # the names and exponents of the steps, which need no relation record
    steps = result.to_script() if args.verbose else []
    if steps:
        payload["steps"] = steps
    human = ("residual trivial" if result.is_ok
             else f"residual {result.residual!r}; "
                  f"offending atom {result.offending_atom()}")
    if steps:
        human += "".join(f"\n  {step['relation']} ^ {step['exponent']}"
                         for step in steps)
    _emit(args, payload, human)
    return 0 if result.is_ok else 1


def cmd_asai(args) -> int:
    k1, k2, w1, w2 = args.kappa1, args.kappa2, args.w1, args.w2
    for i, k, w in ((1, k1, w1), (2, k2, w2)):
        if k > MAX_KAPPA:
            raise SchemaError(f"--kappa{i} {k} exceeds the largest kappa "
                              f"{MAX_KAPPA}")
        _check_w(w, f"--w{i}")
    for k, w in ((k1, w1), (k2, w2)):
        if k < 2 or (k - w) % 2:
            raise ValueError("each input needs kappa >= 2 with kappa = w mod 2")
    kappa = (k1 + k2 - 1, abs(k1 - k2) + 1)
    w = w1 + w2 + 1
    regular = kappa[1] >= 2
    bound = 3 if (k1 + k2) % 2 == 0 else 4
    hyp_ok = regular and min(k1, k2) >= bound
    # central character of the transfer: omega_pi0^2 * omega_F/Q * |.|^2;
    # the orthogonality character chi = omega_pi0 * |.| gives
    # chi^2 * omega^-1 = omega_F/Q^-1, quadratic, so its Gauss atoms are
    # the labels of odd exponent: Gauss(omega_F/Q)
    gauss = ["omega_F/Q"]
    payload = {"kappa": list(kappa), "w": w, "n": 4, "regular": regular,
               "hypotheses_met": hyp_ok, "verdict": "orthogonal",
               "gauss_atoms": gauss}
    human = (f"transfer type (kappa={list(kappa)}; w={w}) on GL(4); "
             f"{'regular' if regular else 'NOT regular'}, hypotheses "
             f"{'met' if hyp_ok else 'unmet'}; orthogonal with Gauss atom(s) "
             f"{', '.join(gauss)}")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="periodcalc", description=__doc__.splitlines()[0])
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("infinity-type", help="weight <-> infinity-type")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--weight", help="comma-separated dominant weight")
    g.add_argument("--type", help="infinity-type JSON (or - for stdin)")
    s.add_argument("--round-trip", action="store_true")
    s.set_defaults(func=cmd_infinity_type)

    s = sub.add_parser("critical", help="critical points of a pair")
    s.add_argument("--pi", required=True, help="infinity-type JSON")
    s.add_argument("--sigma", required=True, help="infinity-type JSON")
    s.set_defaults(func=cmd_critical)

    s = sub.add_parser("classify", help="orthogonal/symplectic verdict")
    s.add_argument("--pi", required=True, help="infinity-type JSON")
    s.add_argument("--delta", type=_int, choices=(0, 1), required=True,
                   help="sign parity of chi_inf")
    s.add_argument("--u", default="0", help="twist exponent of chi_inf")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("deligne", help="print a tensor Deligne relation")
    s.add_argument("--motive", required=True, help="motive JSON")
    s.add_argument("--aux", required=True, help="auxiliary motive JSON")
    s.add_argument("--sign", type=_int, choices=(1, -1), default=1)
    s.set_defaults(func=cmd_deligne)

    s = sub.add_parser("check", help="replay a derivation")
    s.add_argument("--script", help="script JSON, path, or - for stdin")
    s.add_argument("--db", help="relation database path")
    s.set_defaults(func=cmd_check)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=_int, required=True)
    # argparse copies a builtin's defaults over check's own, so a default
    # here would drop a --db given before the builtin name
    common.add_argument("--db", default=argparse.SUPPRESS,
                        help="relation database path")
    common.add_argument("--corrupt", action="store_true")
    builtins = s.add_subparsers(dest="builtin")
    b = builtins.add_parser("main1", parents=[common],
                            help="the Betti-Whittaker period relation")
    b.add_argument("--w", type=_int, default=0)
    b.add_argument("--delta", type=_int, help="weight of Sigma, of n's parity")
    b.add_argument("--m", default="3/2", help="critical point m0 (fraction)")
    b.set_defaults(run=_check_main1)
    b = builtins.add_parser("corollary-main", parents=[common],
                            help="the relative period of an orthogonal Pi")
    b.add_argument("--chi", help="character label")
    b.add_argument("--symplectic", action="store_true")
    b.set_defaults(run=_check_corollary_main)
    b = builtins.add_parser("main2", parents=[common],
                            help="ratios of successive critical values")
    b.add_argument("--nprime", type=_int, default=1)
    b.add_argument("--no-i-power", action="store_true")
    b.add_argument("--eps-num", type=_int, choices=(1, -1), default=1)
    b.set_defaults(run=_check_main2)
    b = builtins.add_parser("motivic-dual", parents=[common],
                            help="the motivic form of the duality")
    b.add_argument("--i", type=_int)
    b.set_defaults(run=_check_motivic_dual)

    s = sub.add_parser("asai", help="GL(4) tensor-transfer infinity type")
    s.add_argument("--kappa1", type=_int, required=True)
    s.add_argument("--w1", type=_int, required=True)
    s.add_argument("--kappa2", type=_int, required=True)
    s.add_argument("--w2", type=_int, required=True)
    s.set_defaults(func=cmd_asai)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
