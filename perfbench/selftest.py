"""Tests of the benchmark itself: a smoke run of each workload on a few
operations, the traced run's wrappers, and one deliberately wrong answer
per output check, which the check must reject.

    python3 perfbench/selftest.py

The file name keeps these tests out of the project's pytest run.
"""

import copy
import json
import os
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from periodcalc import arch_l, formal  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.workdir)

    def make(self, name, in_process=False):
        return workloads.make(name, 7, self.workdir, in_process=in_process)


def _few(ops, key, per_kind=1):
    """The first per_kind operations of each kind, in round order."""
    seen, out = {}, []
    for op in ops:
        k = key(op)
        if seen.get(k, 0) < per_kind:
            seen[k] = seen.get(k, 0) + 1
            out.append(op)
    return out


class SmokeTest(WorkdirCase):
    def run_ops(self, wl, ops):
        tally = run.Tally()
        tally.run(wl, ops)
        self.assertEqual(tally.wrong, [])
        return tally

    def test_main1_sweep(self):
        wl = self.make("main1-sweep")
        small = [op for op in wl.round(0) if op["n"] <= 6][:4]
        tally = self.run_ops(wl, wl.warmup() + small)
        self.assertEqual((tally.attempted, tally.failed), (7, 0))

    def test_main1_sweep_keys_are_distinct(self):
        wl = self.make("main1-sweep")
        ops = wl.warmup() + [op for r in range(10) for op in wl.round(r)]
        keys = set()
        for op in ops:
            n, w, d = op["n"], op["w"], op["delta"]
            t = abs(2 * op["m"] + w + d)
            keys.add(frozenset(((n, w, d, t), (n, -w, -d, t))))
        self.assertEqual(len(keys), len(ops))

    def test_relation_replay(self):
        wl = self.make("relation-replay")
        ops = [op for op in wl.round(0)
               if op.get("source", op).get("n", 0) <= 16]
        tally = self.run_ops(wl, wl.warmup() + ops[:12])
        faults = sum(1 for op in wl.warmup() + ops[:12] if op.get("fault"))
        self.assertEqual(tally.failed, faults)

    def test_cli_cold(self):
        wl = self.make("cli-cold")
        ops = _few(wl.round(0), lambda op: op["kind"])
        tally = self.run_ops(wl, ops)
        self.assertEqual(tally.failed, 1)  # the malformed request
        self.assertGreater(wl.max_rss_kb, 0)

    def test_raising_operation_is_a_wrong_verdict(self):
        wl = self.make("relation-replay")
        replay = wl.warmup()[3]  # its derivation never ran
        tally = run.Tally()
        tally.run(wl, [replay])
        self.assertEqual((tally.attempted, tally.failed, len(tally.wrong)),
                         (1, 1, 1))

    def test_unreadable_output_is_a_wrong_verdict(self):
        wl = self.make("cli-cold")
        op = next(op for op in wl.round(0) if op["kind"] == "asai")
        wl.execute = lambda op: (0, '{"kappa": [5, 3]}', "")
        tally = run.Tally()
        tally.run(wl, [op])
        self.assertEqual(len(tally.wrong), 1)

    def test_rounds_have_fixed_make_up(self):
        for name in workloads.WORKLOADS:
            wl = self.make(name)
            shares = set()
            for r in range(3):
                ops = wl.round(r)
                shares.add((len(ops), sum(1 for op in ops if op.get("fault"))))
            self.assertEqual(len(shares), 1, name)

    def test_same_seed_same_inputs(self):
        a = self.make("cli-cold").round(3)
        b = self.make("cli-cold").round(3)
        self.assertEqual([op["argv"] for op in a], [op["argv"] for op in b])


class TracerTest(WorkdirCase):
    def test_traced_ops_fill_layers_and_uninstall_restores(self):
        orig = (arch_l.critical_points, formal.FormalPeriod.__dict__["of"],
                arch_l.is_holomorphic_at)
        tr = tracer.Tracer()
        wl = self.make("cli-cold", in_process=True)
        ops = _few(wl.round(0), lambda op: op["kind"])
        tr.install()
        try:
            run.Tally().run(wl, ops)
        finally:
            tr.uninstall()
        self.assertEqual(orig, (arch_l.critical_points,
                                formal.FormalPeriod.__dict__["of"],
                                arch_l.is_holomorphic_at))
        m = tr.metrics(len(ops))
        for name in ("cli.main.ms", "arch_l.critical_points.ms",
                     "weil_real.sym2_wedge2.ms", "formal.mul.ms"):
            self.assertGreater(m[name], 0, name)
        self.assertGreater(m["arch_l.lattice_points_tested"], 0)
        self.assertLessEqual(m["arch_l.critical_yield"], 1)
        self.assertTrue(set(m) <= set(tracer.PER_LAYER))

    def test_self_time_excludes_children(self):
        tr = tracer.Tracer()
        inner = tr.span("inner", lambda: sum(range(20000)))
        outer = tr.span("outer", lambda: [inner() for _ in range(5)])
        outer()
        spans = {name: (end - start, child)
                 for _, _, name, start, end, child in tr.spans}
        total, child = spans["outer"]
        self.assertGreater(child, 0)
        self.assertAlmostEqual(tr.self_times()["outer"], total - child)


class OracleTest(unittest.TestCase):
    def test_gl2_weight_12_has_eleven_critical_points(self):
        crit = oracles.critical_points((2, [12], 0), (1, [], 0))
        self.assertEqual(len(crit), 11)
        self.assertEqual(crit, oracles.critical_interval((2, [12], 0),
                                                         (1, [], 0)))
        self.assertEqual(sorted(1 - s for s in crit), crit)

    def test_hom_of_tensor_square(self):
        # phi_k (x) phi_k = phi_{2k-1} + 1 + sgn at twist 2t
        self.assertEqual(oracles.hom_tensor_square(2, [5], 1, 0, 1), 1)
        self.assertEqual(oracles.hom_tensor_square(2, [5], 1, 1, 1), 1)
        self.assertEqual(oracles.hom_tensor_square(2, [5], 1, 0, 0), 0)


class ChecksRejectWrongAnswers(WorkdirCase):
    def assertRejects(self, wl, op, out):
        self.assertIsNotNone(wl.check(op, out))

    def test_main1_residuals(self):
        wl = self.make("main1-sweep")
        good, bad = [dict(wl.warmup()[0], corrupt=c) for c in (False, True)]
        self.assertIsNone(wl.check(good, wl.execute(good)))
        self.assertRejects(wl, good, wl.execute(bad))
        self.assertRejects(wl, bad, wl.execute(good))

    def test_replay_must_match_memory(self):
        wl = self.make("relation-replay")
        derive, replay, other, _ = [op for op in wl.warmup()
                                    if op.get("source", op)["builtin"]
                                    != "motivic-dual"]
        wl.execute(derive)
        wrong = wl.execute(other).residual
        self.assertIsNone(wl.check(replay, wl.execute(replay)))
        self.assertRejects(wl, replay, wrong)

    def test_cli_outputs(self):
        wl = self.make("cli-cold")
        ops = _few(wl.round(0) + wl.round(1),
                   lambda op: (op["kind"], op.get("corrupt", False)))
        wrong = {
            "critical": lambda d: d.update(critical=d["critical"][:-1] or ["7"]),
            "classify": lambda d: d.update(hom_sym2=d["hom_sym2"] + 1),
            "deligne": lambda d: d.update(rhs=d["rhs"].rpartition(" * ")[0]),
            "infinity-type": lambda d: d["weight"].__setitem__(0, d["weight"][0] + 1),
            "asai": lambda d: d.update(w=d["w"] + 2),
            "check": lambda d: d.update(residual="1" if d["residual"] != "1"
                                        else "Gauss(chi)^1"),
        }
        for op in ops:
            rc, stdout, stderr = wl.execute(op)
            if op["kind"] == "malformed":
                self.assertRejects(wl, op, (1, "", "error: x"))
                self.assertRejects(wl, op, (2, "", "Traceback\n  line\nKeyError"))
                self.assertIsNone(wl.check(op, (2, "", "schema error: x\n")))
                continue
            self.assertIsNone(wl.check(op, (rc, stdout, stderr)), op["argv"])
            data = json.loads(stdout)
            bad = copy.deepcopy(data)
            wrong[op["kind"]](bad)
            self.assertRejects(wl, op, (rc, json.dumps(bad), stderr))
            self.assertRejects(wl, op, (1 - rc, stdout, stderr))
        if any(op["kind"] == "critical" and op["pi"]["n"] % 2 == 0
               for op in ops):
            op = next(op for op in ops
                      if op["kind"] == "critical" and op["pi"]["n"] % 2 == 0)
            data = json.loads(wl.execute(op)[1])
            data["closed_form"] = data["closed_form"] + [str(Fraction(99))]
            self.assertRejects(wl, op, (0, json.dumps(data), ""))


if __name__ == "__main__":
    unittest.main()
