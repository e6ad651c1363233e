"""Acceptance suite: nine verifiable criteria.

One "CRITERION k: PASS|FAIL" line per criterion is printed in the terminal
summary by the conftest hook, keyed on the test_criterion_<k> names below.
"""

import json
import random
import time
from fractions import Fraction

from periodcalc import arch_l, cli, period_algebra as pa, weil_real as wr
from periodcalc import yoshida as y
from periodcalc.infinity_types import (DominantWeight, InfinityType,
                                       infinity_to_weight, to_arch_rep,
                                       weight_to_infinity)
from tests.oracles import (epsilon_class, is_balanced, rep, restrict_to_C,
                           restricted_sym2, restricted_tensor,
                           restricted_wedge2, tensor_critical_set)


def _random_type(rng, n, wmax=6):
    r = n // 2
    if n % 2 == 0:
        w = rng.randint(-wmax, wmax)
        par = w % 2
    else:
        w = 2 * rng.randint(-wmax // 2, wmax // 2)
        par = 1
    kappa, cur = [], 2 + par
    for _ in range(r):
        kappa.append(cur)
        cur += 2 * rng.randint(1, 5)
    kappa.reverse()
    return InfinityType(n, tuple(kappa), w)



def test_criterion_1_critical_range_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(500):
        pi = _random_type(rng, rng.choice([2, 4, 6]))
        sigma = _random_type(rng, rng.randint(1, 5))
        assert (arch_l.critical_points(pi, sigma)
                == tensor_critical_set(pi, sigma).points())
    assert time.monotonic() - start < 10



def test_criterion_2_gl2_sanity():
    pts = arch_l.critical_points(InfinityType(2, (12,), 0),
                                 InfinityType(1, (), 0))
    assert pts == [Fraction(k, 2) for k in range(-9, 12, 2)]
    assert len(pts) == 11


def _random_balanced_pair(rng, n):
    if n % 2 == 0:
        w = rng.randint(-5, 5)
        base = 2 + w % 2
        delta = 2 * rng.randint(-2, 2)
    else:
        w = 2 * rng.randint(-2, 2)
        base = 5
        delta = 2 * rng.randint(-2, 2) + 1
    kappa, cur = [], base
    for _ in range(n // 2):
        kappa.append(cur)
        cur += 2 * rng.randint(2, 5)  # gaps >= 4 leave room for an odd ell
    kappa.reverse()
    pi = InfinityType(n, tuple(kappa), w)
    n_ell = (n - 1) // 2 if n % 2 == 0 else n // 2
    # one odd ell strictly inside each kappa gap (below kappa_j, above the
    # next kappa, or anywhere in [2, kappa_r) for the last odd-rank slot)
    ell = []
    for j in range(n_ell):
        hi = pi.kappa[j] - 1
        lo = (pi.kappa[j + 1] + 1) if j + 1 < len(pi.kappa) else 2
        cands = [x for x in range(lo, hi + 1) if x % 2 == 1]
        ell.append(rng.choice(cands))
    sigma = InfinityType(n - 1, tuple(ell), delta)
    return pi, sigma



def test_criterion_3_epsilon_class_parity():
    rng = random.Random(303)
    for _ in range(500):
        n = rng.randint(2, 6)
        pi, sigma = _random_balanced_pair(rng, n)
        assert is_balanced(pi, sigma)
        param = wr.tensor(to_arch_rep(pi), to_arch_rep(sigma))
        expected = ((pi.w + sigma.w) * n * (n - 1) // 2) % 2
        assert epsilon_class(param) == expected


def _random_rep(rng, max_dim=8):
    cs = []
    dim = 0
    while dim < max_dim and rng.random() < 0.8:
        if rng.random() < 0.5 or dim == max_dim - 1:
            cs.append(wr.char(rng.randint(0, 1),
                              Fraction(rng.randint(-8, 8), rng.choice([1, 2]))))
            dim += 1
        else:
            cs.append(wr.disc(rng.randint(2, 9),
                              Fraction(rng.randint(-8, 8), rng.choice([1, 2]))))
            dim += 2
    return rep(*cs)



def test_criterion_4_weil_calculus_restriction_oracle():
    rng = random.Random(404)
    for _ in range(1000):
        a, b = _random_rep(rng), _random_rep(rng)
        assert restrict_to_C(wr.tensor(a, b)) == restricted_tensor(a, b)
        assert restrict_to_C(wr.sym2(a)) == restricted_sym2(a)
        assert restrict_to_C(wr.wedge2(a)) == restricted_wedge2(a)



def test_criterion_5_orthogonality_criterion():
    # GL(2n) sweep, n <= 4; chi_inf = sgn^{w-1}|.|^w vs sgn^w|.|^w
    for rank in (2, 4, 6, 8):
        for w in range(-6, 7):
            r = rank // 2
            kappa = tuple(w % 2 + 2 * (r - j) + 6 for j in range(r))
            pi = json.dumps(InfinityType(rank, kappa, w).to_json())
            for delta in ((w - 1) % 2, w % 2):
                out = _run_cli_json("classify", "--pi", pi,
                                    "--delta", str(delta), "--u", str(w))
                eps = -1 if (w + delta) % 2 else 1
                assert out["epsilon_chi_inf"] == eps
                assert (out["verdict"] == "orthogonal") == (eps == -1)
                assert out["verdict"] in ("orthogonal", "symplectic")


def _run_cli_json(*argv):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--json", *argv])
    assert code == 0, buf.getvalue()
    return json.loads(buf.getvalue())



def test_criterion_6_yoshida_type_arithmetic():
    assert (y.monomial_type(y.f_bw(4, 1))
            == y.AdmissibleTypeTag((3, 2, 1, 0), 2, 1))
    for n in range(1, 11):
        monos = ([y.f_bw(n, 1), y.f_bw(n, -1)] if n % 2 == 0
                 else [y.f_bw(n)])
        for m in monos:
            tag = y.monomial_type(m)
            dual_tag = y.monomial_type(y.dual_monomial(m))
            assert dual_tag.a == tag.a
            assert (dual_tag.kplus, dual_tag.kminus) == (tag.kminus, tag.kplus)
            assert y.dual_monomial(y.dual_monomial(m)) == m
        if n % 2 == 0 and n >= 2:
            assert y.dual_monomial(y.f_bw(n, 1)) == y.f_bw(n, -1)
        elif n % 2 == 1:
            assert y.dual_monomial(y.f_bw(n)) == y.f_bw(n)



def test_criterion_7_derivation_replays():
    start = time.monotonic()
    for n in range(1, 9):
        ws = (0, 1) if n % 2 == 0 else (0, 2)
        for w in ws:
            delta = n % 2
            for m in range(-5, 5):
                if 2 * m == -(w + delta):
                    continue
                assert pa.check_main1_step(n, w, delta, m).is_ok
    for n in range(1, 5):
        assert pa.check_corollary_main(n).is_ok
        for nprime in (1, 3):
            res = pa.check_theorem_main2(n, nprime)
            assert res.is_ok
            assert res.i_parity == (n * nprime) % 2
    for n in range(2, 7):
        assert pa.check_motivic_dual(n).is_ok
    # negative controls: each names the offending atom
    res = pa.check_main1_step(6, 0, 0, 1, corrupt=True)
    assert not res.is_ok and res.offending_atom() == "Gauss(omega_Pi)"
    res = pa.check_corollary_main(2, corrupt=True)
    assert not res.is_ok and res.offending_atom() == "Gauss(chi)"
    res = pa.check_theorem_main2(2, 3, corrupt=True)
    assert not res.is_ok and res.offending_atom() == "Gauss(chi)"
    res = pa.check_motivic_dual(6, corrupt=True)
    assert not res.is_ok and "Delta(N" in res.offending_atom()
    assert time.monotonic() - start < 5



def test_criterion_8_asai_formula():
    rng = random.Random(808)
    for _ in range(100):
        w1, w2 = rng.randint(-6, 6), rng.randint(-6, 6)
        k1 = w1 % 2 + 2 * rng.randint(1, 8)
        k2 = w2 % 2 + 2 * rng.randint(1, 8)
        out = _run_cli_json("asai", "--kappa1", str(k1), "--w1", str(w1),
                            "--kappa2", str(k2), "--w2", str(w2))
        assert out["kappa"] == [k1 + k2 - 1, abs(k1 - k2) + 1]
        assert out["w"] == w1 + w2 + 1
        assert out["verdict"] == "orthogonal"
        assert out["gauss_atoms"] == ["omega_F/Q"]


def _random_pure_weight(rng, n):
    r = n // 2
    s = rng.randint(-6, 6)
    if n % 2:
        s *= 2
    # head strictly decreasing with 2*head[-1] >= s (dominance across the
    # mirror) and strictly above s/2 for odd n (middle entry s/2)
    lo = (s + 1) // 2 if n % 2 == 0 else s // 2 + 1
    head = sorted(rng.sample(range(lo, lo + 4 * max(r, 1) + 8), r),
                  reverse=True)
    mid = [s // 2] if n % 2 else []
    tail = [s - x for x in reversed(head)]
    return DominantWeight(tuple(head + mid + tail))



def test_criterion_9_weight_bijection_round_trip():
    rng = random.Random(909)
    for n in range(1, 8):
        for _ in range(500):
            mu = _random_pure_weight(rng, n)
            t = weight_to_infinity(mu)
            assert infinity_to_weight(t).entries == mu.entries
            back = weight_to_infinity(infinity_to_weight(t))
            assert (back.n, back.kappa, back.w) == (t.n, t.kappa, t.w)
