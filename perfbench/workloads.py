"""The three workloads: seeded operation lists, their execution, and the
checks of every output against oracles.py.

A workload yields rounds.  Every round holds the same number of operations
of each kind, drawn afresh from (seed, round index), so a run of whole
rounds has a fixed share of each kind and of negative controls whatever
its length.  Operations marked `fault` exercise a fault of the program that
is kept in the benchmark: when their check fails they count as failed
rather than as wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import traceback
from fractions import Fraction

import oracles
from periodcalc import cli, formal, period_algebra


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _strata(rng: random.Random, k: int, r: int) -> list:
    """k points of [0, 1), one in each k-th of the interval.

    Their place inside the k-ths sweeps [0, 1) evenly from round to round
    and the seed only jitters it, so the sizes a run draws, and with them
    the spread of operation costs, hardly depend on the seed."""
    offset = (0.6180339887 * r + 0.1 * rng.random()) % 1
    return [(s + offset) / k for s in range(k)]


def _log_draw(lo: int, hi: int, u: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _residual(period) -> dict:
    return {atom.render(): e for atom, e in period.items()}


def _expect_residual(residual: dict, corrupt: bool, expected: dict):
    want = expected if corrupt else {}
    if residual != want:
        return f"residual {residual} != expected {want}"
    return None


# ---------------------------------------------------------------------------
# main1-sweep

class Main1Sweep:
    """check_main1_step over rank n and critical point m.

    Each round replays every rank 2..32 once.  The program builds its pair
    of representations from (n, w, delta, t) with t = |2m + w + delta|, and
    the lattice scan costs about n^2 t.  t is drawn log-uniform on
    [6, 2 m_max(n)] with m_max(n) = min(1000, 8000/n^2), so |m| reaches 10^3
    at small rank and no verdict takes much over 0.3 s.  Rank i gets the
    stratum (12 i + 19 r) mod 31 of that range in round r, so every rank
    sweeps its range over a run.  No two operations of a run share
    (n, w, delta, t) or its dual (n, -w, -delta, t), so no verdict finds
    a critical set that an earlier verdict cached.
    """

    name = "main1-sweep"
    round_seconds = 4.0
    ranks = tuple(range(2, 33))
    corrupt_per_round = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.seen = set()

    @staticmethod
    def m_max(n: int) -> int:
        return min(1000, 8000 // (n * n))

    def _op(self, rng, n: int, t: int, corrupt: bool) -> dict:
        delta = n % 2
        if delta:
            t |= 1  # w is even for odd n, so 2m + w + delta is odd
            w = rng.choice((-2, 0, 2))
        else:
            w = rng.choice([x for x in range(-2, 3) if (x - t) % 2 == 0])
        while (n, w, delta, t) in self.seen:
            t += 2
        # the dual pair, which the verdict also looks up, has key
        # (n, -w, -delta, t): an operation with that key would find its
        # critical sets already cached
        self.seen.update(((n, w, delta, t), (n, -w, -delta, t)))
        m = (rng.choice((1, -1)) * t - w - delta) // 2
        return {"n": n, "w": w, "delta": delta, "m": m, "corrupt": corrupt}

    def warmup(self) -> list:
        rng = _rng(self.name, self.seed, -1)
        return [self._op(rng, n, rng.randint(6, 24), n == 3) for n in (2, 3, 4)]

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        k = len(self.ranks)
        us = _strata(rng, k, r)
        corrupt = set(rng.sample(range(k), self.corrupt_per_round))
        ops = [self._op(rng, n, _log_draw(6, 2 * self.m_max(n),
                                          us[(12 * i + 19 * r) % k]),
                        i in corrupt)
               for i, n in enumerate(self.ranks)]
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        return period_algebra.check_main1_step(op["n"], op["w"], op["delta"],
                                               op["m"], corrupt=op["corrupt"])

    def check(self, op, result):
        return _expect_residual(_residual(result.residual), op["corrupt"],
                                oracles.corrupt_residual("main1", op["n"]))


# ---------------------------------------------------------------------------
# relation-replay

class RelationReplay:
    """Derivations replayed in memory, then written to a RelationDB file,
    read back and replayed through check_script.

    Each round derives motivic-dual at 16 ranks log-spaced over 4..256 (four
    of them negative controls) and eight cheap derivations, corollary-main
    and main2, drawn from the seed (two negative controls).  Every
    derivation is two operations: the in-memory replay ("derive") and the
    save-load-replay ("replay").  The motivic-dual ranks depend on the round
    but not on the seed: their DB replays are the kept fault, because
    yoshida.dual_relation names three distinct relations dual[N_i] alike.
    The ladder of ranks slides from round to round, so that no cost is
    repeated in every round and p50 and p90 fall where costs are dense.
    """

    name = "relation-replay"
    round_seconds = 2.7
    chis = ("chi", "eta", "xi")

    @staticmethod
    def md_ranks(r: int) -> list:
        """16 ranks, log-spaced over 4..256, slid by the golden ratio in r."""
        offset = (0.6180339887 * r) % 1
        return [round(4 * 64 ** ((k + offset) / 16)) for k in range(16)]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.db_path = os.path.join(workdir, "relations.json")

    def _pair(self, spec: dict) -> list:
        derive = dict(spec, op="derive")
        return [derive, {"op": "replay", "source": derive,
                         "fault": spec["builtin"] == "motivic-dual"}]

    def _cheap(self, rng, i: int, corrupt: bool) -> dict:
        if i % 2 == 0:
            chi = rng.choice(self.chis)
            return {"builtin": "corollary-main", "n": rng.randint(1, 64),
                    "chi": chi, "corrupt": corrupt}
        return {"builtin": "main2", "n": rng.randint(1, 128),
                "nprime": 2 * rng.randint(0, 50) + 1,
                "eps_num": rng.choice((1, -1)),
                "i_power": rng.random() < 0.5, "corrupt": corrupt}

    def warmup(self) -> list:
        rng = _rng(self.name, self.seed, -1)
        specs = [{"builtin": "motivic-dual", "n": 4, "corrupt": False},
                 self._cheap(rng, 0, False), self._cheap(rng, 1, True)]
        return [op for spec in specs for op in self._pair(spec)]

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        corrupt = set(rng.sample(range(8), 2))
        specs = [{"builtin": "motivic-dual", "n": n, "corrupt": k % 4 == 1}
                 for k, n in enumerate(self.md_ranks(r))]
        specs += [self._cheap(rng, i, i in corrupt) for i in range(8)]
        rng.shuffle(specs)
        return [op for spec in specs for op in self._pair(spec)]

    def execute(self, op):
        if op["op"] == "derive":
            b = op["builtin"]
            if b == "motivic-dual":
                res = period_algebra.check_motivic_dual(op["n"],
                                                        corrupt=op["corrupt"])
            elif b == "corollary-main":
                res = period_algebra.check_corollary_main(
                    op["n"], chi_expr={op["chi"]: 1}, corrupt=op["corrupt"])
            else:
                res = period_algebra.check_theorem_main2(
                    op["n"], op["nprime"], include_i_power=op["i_power"],
                    eps_num=op["eps_num"], corrupt=op["corrupt"])
            op["result"] = res
            return res
        # keep only the residual, so that the run does not hold every
        # derivation alive in the heap the program works in
        res = op["source"].pop("result")
        op["in_memory"] = res.residual
        db = formal.RelationDB()
        res.register(db)
        db.save(self.db_path)
        return formal.check_script(formal.RelationDB.load(self.db_path),
                                   res.to_script())

    def check(self, op, out):
        spec = op if op["op"] == "derive" else op["source"]
        expected = oracles.corrupt_residual(spec["builtin"], spec["n"],
                                            chi=spec.get("chi", "chi"))
        residual = _residual(out if op["op"] == "replay" else out.residual)
        if op["op"] == "replay":
            in_memory = _residual(op["in_memory"])
            if residual != in_memory:
                return (f"DB replay residual {residual} != in-memory "
                        f"{in_memory}")
        return _expect_residual(residual, spec["corrupt"], expected)


# ---------------------------------------------------------------------------
# cli-cold

ENTRY = "import sys; from periodcalc.cli import main; sys.exit(main())"


def _itype(rng, n: int, w: int) -> dict:
    """A random infinity type of rank n: kappa strictly decreasing, >= 2,
    of the parity of w (n even) or odd (n odd, which needs w even)."""
    if n % 2:
        w -= w % 2
    par = w % 2 if n % 2 == 0 else 1
    k = 2 + (par != 0) + 2 * rng.randint(0, 3)
    kappa = []
    for _ in range(n // 2):
        kappa.append(k)
        k += 2 * rng.randint(1, 3)
    return {"n": n, "kappa": kappa[::-1], "w": w}


def _triple(t: dict) -> tuple:
    return t["n"], t["kappa"], t["w"]


class CliCold:
    """One fresh interpreter per verdict, running the console entry
    periodcalc.cli:main with --json.

    Each round holds 6 critical and 5 classify requests at ranks
    log-uniform over 2..128, 3 deligne, 3 infinity-type --round-trip, 2
    asai and 4 small check builtins (one a negative control), plus the 4
    malformed requests below, which must exit 2 with a one-line message.
    The malformed requests do not depend on the seed and are the kept
    fault: the CLI has no error boundary for them.
    """

    name = "cli-cold"
    round_seconds = 5.0

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process
        self.max_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(period_algebra.__file__))))
        self.out_path = os.path.join(workdir, "stdout.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")
        no_cite = os.path.join(workdir, "no_citation.json")
        with open(no_cite, "w") as fh:
            json.dump({"relations": [{"name": "r", "lhs": [], "rhs": []}]}, fh)
        self.malformed = [
            ["check", "motivic-dual", "--n", "6", "--i", "9"],
            ["check", "--db", no_cite,
             "--script", '[{"relation": "r", "exponent": 1}]'],
            ["check", "--db", os.path.join(workdir, "missing.json"),
             "--script", "[]"],
            ["critical", "--pi", '{"n":2,"kappa":["x"],"w":0}',
             "--sigma", '{"n":1,"kappa":[],"w":0}'],
        ]

    # -- request generators -------------------------------------------------

    def _critical(self, rng, n):
        pi = _itype(rng, n, rng.randint(-3, 3))
        sigma = _itype(rng, n - 1, rng.randint(-3, 3))
        return {"kind": "critical", "pi": pi, "sigma": sigma,
                "argv": ["critical", "--pi", json.dumps(pi),
                         "--sigma", json.dumps(sigma)]}

    def _classify(self, rng, n):
        pi = _itype(rng, n, rng.randint(-3, 3))
        delta = rng.randint(0, 1)
        u = pi["w"] if rng.random() < 0.75 else pi["w"] + rng.choice((-1, 1))
        return {"kind": "classify", "pi": pi, "delta": delta, "u": u,
                "argv": ["classify", "--pi", json.dumps(pi),
                         "--delta", str(delta), f"--u={u}"]}

    def _deligne(self, rng):
        n = rng.randint(2, 24)
        weight = 2 * rng.randint(-1, 1)
        chain, k = [], 3
        for _ in range(n // 2 + (n - 1) // 2):
            chain.append(k)
            k += 2 * rng.randint(1, 3)
        chain.reverse()

        def motive(label, rank, kappa):
            if rank % 2 == 0:
                dp = dm = rank // 2
            else:
                dp, dm = rng.choice((((rank + 1) // 2, rank // 2),
                                     (rank // 2, (rank + 1) // 2)))
            return {"label": label, "n": rank, "weight": weight,
                    "kappa": kappa, "dplus": dp, "dminus": dm}

        m, nn = motive("M", n, chain[0::2]), motive("N", n - 1, chain[1::2])
        sign = rng.choice((1, -1))
        return {"kind": "deligne", "M": m, "N": nn, "sign": sign,
                "argv": ["deligne", "--motive", json.dumps(m),
                         "--aux", json.dumps(nn), f"--sign={sign}"]}

    def _infinity(self, rng, by_weight):
        n = _log_draw(1, 128, rng.random())
        t = _itype(rng, n, rng.randint(-3, 3))
        if by_weight:
            weight = oracles.weight_of(*_triple(t))
            argv = ["infinity-type", "--weight=" + ",".join(map(str, weight)),
                    "--round-trip"]
        else:
            argv = ["infinity-type", "--type", json.dumps(t), "--round-trip"]
        return {"kind": "infinity-type", "type": t, "argv": argv}

    def _asai(self, rng):
        ks = [rng.randint(2, 40) for _ in range(2)]
        ws = [k % 2 + 2 * rng.randint(-1, 1) for k in ks]
        return {"kind": "asai", "k": ks, "w": ws,
                "argv": ["asai", f"--kappa1={ks[0]}", f"--w1={ws[0]}",
                         f"--kappa2={ks[1]}", f"--w2={ws[1]}"]}

    def _check(self, rng, builtin, corrupt):
        extra = ["--corrupt"] if corrupt else []
        op = {"kind": "check", "builtin": builtin, "corrupt": corrupt,
              "chi": "chi"}
        if builtin == "main1":
            n = rng.randint(2, 8)
            w = rng.randint(-2, 2) if n % 2 == 0 else rng.choice((-2, 0, 2))
            m = rng.choice((1, -1)) * rng.randint(3, 30)
            op["n"] = n
            op["argv"] = ["check", "main1", "--n", str(n), f"--w={w}",
                          f"--m={2 * m + 1}/2"] + extra
        elif builtin == "corollary-main":
            op["n"] = rng.randint(1, 16)
            op["chi"] = rng.choice(RelationReplay.chis)
            op["argv"] = ["check", "corollary-main", "--n", str(op["n"]),
                          "--chi", op["chi"]] + extra
        elif builtin == "main2":
            op["n"] = rng.randint(1, 32)
            op["argv"] = ["check", "main2", "--n", str(op["n"]), "--nprime",
                          str(2 * rng.randint(0, 15) + 1),
                          f"--eps-num={rng.choice((1, -1))}"] + extra
        else:
            op["n"] = rng.randint(4, 24)
            op["argv"] = ["check", "motivic-dual", "--n", str(op["n"])] + extra
        return op

    def warmup(self) -> list:
        rng = _rng(self.name, self.seed, -1)
        return [self._asai(rng)]

    def round(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = [self._critical(rng, _log_draw(2, 128, u))
               for u in _strata(rng, 6, r)]
        ops += [self._classify(rng, _log_draw(2, 128, u))
                for u in _strata(rng, 5, r)]
        ops += [self._deligne(rng) for _ in range(3)]
        ops += [self._infinity(rng, i != 1) for i in range(3)]
        ops += [self._asai(rng) for _ in range(2)]
        bad = rng.randrange(4)
        ops += [self._check(rng, b, i == bad) for i, b in enumerate(
            ("main1", "corollary-main", "main2", "motivic-dual"))]
        ops += [{"kind": "malformed", "argv": argv, "fault": True}
                for argv in self.malformed]
        rng.shuffle(ops)
        return ops

    # -- execution ------------------------------------------------------------

    def execute(self, op):
        argv = ["--json"] + op["argv"]
        if self.in_process:
            return self._in_process(argv)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644)]
        pid = os.posix_spawn(sys.executable,
                             [sys.executable, "-c", ENTRY] + argv,
                             self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(self.out_path) as out, open(self.err_path) as err:
            return os.waitstatus_to_exitcode(status), out.read(), err.read()

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, out):
        rc, stdout, stderr = out
        kind = op["kind"]
        if kind == "malformed":
            lines = stderr.strip().splitlines()
            if rc != 2 or len(lines) != 1 or "Traceback" in stderr:
                return f"malformed request gave exit {rc}: {stderr[-200:]!r}"
            return None
        want_rc = 1 if op.get("corrupt") else 0
        if rc != want_rc:
            return f"exit {rc} != {want_rc}: {stderr[-200:]!r}"
        try:
            data = json.loads(stdout)
        except ValueError:
            return f"unreadable output {stdout[:200]!r}"
        return getattr(self, "_check_" + kind.replace("-", "_"))(op, data)

    @staticmethod
    def _check_critical(op, data):
        pi, sigma = _triple(op["pi"]), _triple(op["sigma"])
        crit = oracles.critical_points(pi, sigma)
        got = [Fraction(x) for x in data["critical"]]
        if got != crit:
            return f"critical {got} != pole-ladder {crit}"
        if pi[0] % 2 == 0:
            closed = oracles.critical_interval(pi, sigma)
            if closed != crit:
                return f"closed form {closed} != pole-ladder {crit}"
            if [Fraction(x) for x in data["closed_form"]] != closed:
                return f"closed_form {data['closed_form']} != {closed}"
        center = Fraction(1 - pi[2] - sigma[2], 2)
        if Fraction(data["central_point"]) != center:
            return f"central point {data['central_point']} != {center}"
        if data["central_is_critical"] != (center in crit):
            return "central_is_critical disagrees with the critical set"
        return None

    @staticmethod
    def _check_classify(op, data):
        d_sym, d_wedge = data["hom_sym2"], data["hom_wedge2"]
        total = oracles.hom_tensor_square(*_triple(op["pi"]), op["delta"],
                                          op["u"])
        if d_sym + d_wedge != total:
            return f"hom(Sym2) + hom(Wedge2) = {d_sym + d_wedge} != {total}"
        verdict = ("orthogonal" if d_sym else
                   "symplectic" if d_wedge else "neither")
        if data["verdict"] != verdict:
            return f"verdict {data['verdict']} != {verdict}"
        if data["epsilon_chi_inf"] != (-1) ** ((op["u"] + op["delta"]) % 2):
            return "epsilon_chi_inf has the wrong sign"
        return None

    @staticmethod
    def _check_deligne(op, data):
        lhs, rhs = oracles.deligne_relation(op["M"], op["N"], op["sign"])
        got = oracles.parse_period(data["lhs"]), oracles.parse_period(data["rhs"])
        if got != (lhs, rhs):
            return f"relation {got} != {(lhs, rhs)}"
        return None

    @staticmethod
    def _check_infinity_type(op, data):
        t = op["type"]
        if data["infinity_type"] != dict(t, sign=0):
            return f"round trip gave {data['infinity_type']} for {t}"
        if data["weight"] != oracles.weight_of(*_triple(t)):
            return f"weight {data['weight']} is not that of {t}"
        return None

    @staticmethod
    def _check_asai(op, data):
        kappa, w = oracles.asai_type(op["k"][0], op["w"][0], op["k"][1],
                                     op["w"][1])
        if (data["kappa"], data["w"], data["n"]) != (kappa, w, 4):
            return f"asai type {data['kappa']}, {data['w']} != {kappa}, {w}"
        return None

    @staticmethod
    def _check_check(op, data):
        expected = oracles.corrupt_residual(op["builtin"], op["n"],
                                            chi=op["chi"])
        if data["ok"] == op["corrupt"]:
            return f"ok is {data['ok']} on a corrupt={op['corrupt']} replay"
        return _expect_residual(oracles.parse_period(data["residual"]),
                                op["corrupt"], expected)


WORKLOADS = {w.name: w for w in (Main1Sweep, RelationReplay, CliCold)}


def make(name: str, seed: int, workdir: str, in_process: bool = False):
    cls = WORKLOADS[name]
    if cls is CliCold:
        return cls(seed, workdir, in_process=in_process)
    return cls(seed, workdir)
