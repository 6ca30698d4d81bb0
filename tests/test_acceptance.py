"""End-to-end acceptance checks.

Each test here is one external contract of the package, checked whole
and printing a single PASS/FAIL verdict line to the terminal (bypassing
capture) so a full run reads as a checklist.  Everything is exact; the
time limits are generous on purpose and guard against complexity
regressions, not machine noise.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from matchcover import (
    EXACT_LEMMA,
    FAST,
    audits_pass,
    bf_double_cover,
    decompose,
    enumerate_perfect_matchings,
    excessive_index,
    greedy_cover,
    m_exact,
    max_weight_perfect_matching,
    multicoloring,
    petersen,
    product_bound,
    random_regular,
    uniform,
    w_k_entry,
)
from matchcover.cli import main
from matchcover.oddcuts import min_odd_cut

from helpers import (
    BOUND_TABLE,
    PETERSEN_M_EXACT,
    PETERSEN_PMS,
    corpus,
    max_weight_value,
    min_odd_cut_brute,
    reconstruction,
)

F = Fraction


def verdict(capsys, num: int, label: str, ok: bool, elapsed: float):
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.2f}s]", flush=True)


def test_acceptance_1_bound_table(capsys):
    """The CLI emits the full 24-cell bound table, exact rationals and decimals."""
    t0 = time.perf_counter()
    problems = []
    code = main(["--format", "json", "bounds", "--table"])
    rows = json.loads(capsys.readouterr().out)["result"]["table"]
    if code != 0 or len(rows) != 24:
        problems.append(f"exit {code}, {len(rows)} rows")
    for row in rows:
        key = (row["r"], row["k"])
        rational, decimal, exact = BOUND_TABLE[key]
        if (row["bound"], row["decimal"], row["exact"]) != (rational, decimal, exact):
            problems.append(f"{key}: {row}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    verdict(capsys, 1, "exact 24-cell bound table", ok, elapsed)
    assert not problems, problems
    assert elapsed < 1.0


def test_acceptance_2_cubic_specialization(capsys):
    """For r = 3 the product bound equals 1 - prod (i+1)/(2i+1), k = 1..12."""
    t0 = time.perf_counter()
    problems = []
    for k in range(1, 13):
        rest = F(1)
        for i in range(1, k + 1):
            rest *= F(i + 1, 2 * i + 1)
        if product_bound(3, k) != 1 - rest:
            problems.append(k)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    verdict(capsys, 2, "cubic bound specialization", ok, elapsed)
    assert not problems, problems
    assert elapsed < 1.0


def test_acceptance_3_petersen_oracle_chain(capsys):
    """Enumeration, best-coverage, excessive index, and the double cover
    agree with the hand-checked values on the Petersen graph."""
    t0 = time.perf_counter()
    problems = []
    g = petersen()
    pms = enumerate_perfect_matchings(g)
    if tuple(m.edge_ids for m in pms) != PETERSEN_PMS:
        problems.append("enumeration")
    for k, expected in PETERSEN_M_EXACT.items():
        if m_exact(g, k).fraction != expected:
            problems.append(f"m_exact k={k}")
    if excessive_index(g).value != 5:
        problems.append("excessive index")
    dc = bf_double_cover(g, 3)
    if not dc.found or tuple(m.edge_ids for m in dc.matchings) != PETERSEN_PMS:
        problems.append("double cover")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    verdict(capsys, 3, "Petersen oracle chain", ok, elapsed)
    assert not problems, problems
    assert elapsed < 5.0


def test_acceptance_4_certified_cover_on_corpus(capsys):
    """Exact-lemma covers on every corpus graph, k = 1..6: bound met,
    every certificate at L1, every cut-family audit clean."""
    t0 = time.perf_counter()
    problems = []
    for name, g, r in corpus():
        for k in range(1, 7):
            rep = greedy_cover(g, r, k, mode=EXACT_LEMMA)
            if rep.fraction < product_bound(r, k) or not rep.bound_met:
                problems.append(f"{name} k={k}: bound")
            if not rep.all_l1:
                problems.append(f"{name} k={k}: level")
            if not all(audits_pass(c.audit) for c in rep.certificates):
                problems.append(f"{name} k={k}: audit")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    verdict(capsys, 4, "certified covers across the corpus", ok, elapsed)
    assert not problems, problems
    assert elapsed < 120.0


def test_acceptance_5_fallback_guarantee_at_scale(capsys):
    """Fast mode on random 4-graphs with n = 30: every step still gains
    at least a 1/r share of the uncovered edges."""
    t0 = time.perf_counter()
    problems = []
    for seed in (41, 42, 43):
        g = random_regular(30, 4, seed)
        rep = greedy_cover(g, 4, 8, mode=FAST)
        for c in rep.certificates:
            uncovered_before = g.m - (c.covered_after - c.actual_gain)
            if F(c.actual_gain) < F(uncovered_before, 4):
                problems.append(f"seed {seed} step {c.step}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    verdict(capsys, 5, "per-step floor beyond exhaustive scale", ok, elapsed)
    assert not problems, problems
    assert elapsed < 30.0


def test_acceptance_6_polytope_machinery(capsys):
    """Uniform vectors decompose exactly on every corpus graph; the scaled
    decomposition covers each edge exactly p times; Petersen needs p = 2."""
    t0 = time.perf_counter()
    problems = []
    for name, g, r in corpus():
        w = uniform(g, r)
        dec = decompose(g, w)
        if reconstruction(g, dec) != w.values or dec.coefficients_sum() != 1:
            problems.append(f"{name}: decomposition")
        mc = multicoloring(g, r)
        per_edge = [0] * g.m
        for m in mc.matchings:
            for e in m.edge_ids:
                per_edge[e] += 1
        if any(c != mc.p for c in per_edge) or len(mc.matchings) != r * mc.p:
            problems.append(f"{name}: multicover")
        if name == "petersen" and mc.p != 2:
            problems.append("petersen p")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    verdict(capsys, 6, "exact decomposition and multicover", ok, elapsed)
    assert not problems, problems
    assert elapsed < 30.0


def test_acceptance_7_oracle_equivalences(capsys):
    """The two independent routes agree everywhere: blossom vs. enumeration
    for max-weight matchings, flow bisection vs. exhaustive scan for odd cuts."""
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(20260817)
    for name, g, _ in corpus():
        if g.n > 12:
            continue
        pms = enumerate_perfect_matchings(g)
        for _ in range(100):
            w = [F(rng.randint(-6, 12), rng.randint(1, 5)) for _ in range(g.m)]
            best = max(sum(w[e] for e in m.edge_ids) for m in pms)
            if max_weight_value(g, w) != best:
                problems.append(f"{name}: value")
                break
            got = max_weight_perfect_matching(g, w)
            if sum(w[e] for e in got.edge_ids) != best:
                problems.append(f"{name}: argmax weight")
                break
    for name, g, _ in corpus():
        for _ in range(50):
            w = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(g.m)]
            if min_odd_cut(g, w).value != min_odd_cut_brute(g, w).value:
                problems.append(f"{name}: odd cut")
                break
    elapsed = time.perf_counter() - t0
    ok = not problems
    verdict(capsys, 7, "independent-route agreement", ok, elapsed)
    assert not problems, problems


def _compositions(total: int, parts: int):
    """All ordered nonnegative integer splits of `total` into `parts`."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield out


def test_acceptance_8_entry_identities(capsys):
    """Usage-weight identities over r in {3,4,5,6}, k in 2..10: star sums
    equal 1 for every admissible count split, and every entry lies in its
    sharp per-parity range: 1/(2k+1) <= w < 1 for r = 3, with equality
    exactly at count k-1; 1/(r+3) < w < 1 for even r; 1/(r+4) < w < 1 for
    odd r >= 5.  No constant floor holds for r = 3: its weights are forced
    by the cubic product bound of acceptance 2."""
    t0 = time.perf_counter()
    problems = []
    for r in (3, 4, 5, 6):
        for k in range(2, 11):
            for counts in _compositions(k - 1, r):
                if sum(w_k_entry(r, k, c) for c in counts) != 1:
                    problems.append(f"r={r} k={k} sum at {counts}")
                    break
            for c in range(k):
                v = w_k_entry(r, k, c)
                if r == 3:
                    lower = F(1, 2 * k + 1)
                    inside = lower <= v < 1 and (v == lower) == (c == k - 1)
                    span = f"[{lower}, 1), equal only at count {k - 1}"
                else:
                    lower = F(1, r + 3) if r % 2 == 0 else F(1, r + 4)
                    inside = lower < v < 1
                    span = f"({lower}, 1)"
                if not inside:
                    problems.append(f"r={r} k={k} count={c}: {v} vs {span}")
    elapsed = time.perf_counter() - t0
    ok = not problems
    verdict(capsys, 8, "entry range and star-sum identities", ok, elapsed)
    assert not problems, problems
