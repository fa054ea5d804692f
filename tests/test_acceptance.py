"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are zero: everything here is exact integer arithmetic.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from vancoh import FinAbGroup, analyze
from vancoh.corpus import bundled
from vancoh.linalg import IntegerMatrix, image, kernel, smith_normal_form

import oracles
from helpers import (conjugate_component, diagonal_of, load_corpus, permute_config,
                     rand_matrix, rand_unimodular, random_valid_config, report_signature)


def _line(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_xyz():
    start = time.perf_counter()
    rep = analyze(load_corpus("xyz"))
    elapsed = time.perf_counter() - start
    ok = rep.lowest_group == FinAbGroup(2, ()) and elapsed < 1.0
    _line(ok, f"criterion 1: xyz lowest group Z^2 in {elapsed:.3f}s")


def test_criterion_2_xyzu():
    start = time.perf_counter()
    rep = analyze(load_corpus("xyzu"))
    elapsed = time.perf_counter() - start
    six = rep.six_term
    ledger = (six.domain, six.codomain, six.lowest_pair)
    ok = (rep.lowest_group == FinAbGroup(3, ())
          and ledger == (14, 12, 3)
          and elapsed < 1.0)
    _line(ok, f"criterion 2: xyzu lowest group Z^3, rank ledger {ledger} in {elapsed:.3f}s")


def test_criterion_3_x2z_y2u():
    cfg = load_corpus("x2z_y2u")
    rep = analyze(cfg)
    trivial = rep.lowest_group == FinAbGroup(0, ())
    # a positive lower rank at either point must be rejected by validation
    from vancoh import validate
    forced = True
    for idx in range(2):
        points = list(cfg.special_points)
        points[idx] = points[idx]._replace(fq_rank_low=1)
        bad = cfg._replace(special_points=tuple(points))
        forced = forced and any(v.code in ("iota-shape", "iota-not-injective")
                                for v in validate(bad))
    _line(trivial and forced,
          "criterion 3: x2z_y2u trivial group; validation forces fq_rank_low = 0")


def test_criterion_4_quadric_powers():
    expected = {"quadric_power_2_2": 1, "quadric_power_3_2": 2, "quadric_power_2_3": 2}
    ok = True
    for name, r in expected.items():
        rep = analyze(load_corpus(name))
        ok = ok and rep.lowest_group == FinAbGroup(r, ()) and rep.shortcut_agrees is True
    _line(ok, "criterion 4: quadric powers give ranks 1, 2, 2 and the shortcut agrees")


def test_criterion_5_euler_consistency():
    rng = random.Random(1005)
    configs = [load_corpus(name) for name, _ in bundled()]
    configs += [random_valid_config(rng) for _ in range(1000)]
    failures = 0
    for cfg in configs:
        six = analyze(cfg).six_term
        mu = sum(r.milnor_number for r in cfg.isolated_points)
        book = (-1) ** (cfg.n - 1) * six.lowest_pair + (-1) ** cfg.n * (six.top_pair + mu)
        if book != oracles.euler_direct(cfg):
            failures += 1
    _line(failures == 0,
          f"criterion 5: euler bookkeeping exact on {len(configs)} configurations "
          f"(corpus + 1000 random), {failures} failures")


def test_criterion_6_linalg_property_suite():
    rng = random.Random(1006)
    failures = 0
    total = 10000
    for _ in range(total):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = rand_matrix(rng, rows, cols, 9)
        u, d, v = smith_normal_form(m)
        ok = u * m * v == d
        ok = ok and oracles.bareiss_det(u.tolist()) in (1, -1)
        ok = ok and oracles.bareiss_det(v.tolist()) in (1, -1)
        diag = diagonal_of(d)
        nz = [x for x in diag if x]
        ok = ok and all(x >= 0 for x in diag)
        ok = ok and all(b % a == 0 for a, b in zip(nz, nz[1:]))
        k = kernel(m)
        ok = ok and m * k.basis == IntegerMatrix.zeros(rows, k.rank)
        ok = ok and k.rank + image(m).rank == cols
        # saturation: the kernel basis has trivial invariant factors
        if k.rank:
            ok = ok and all(x == 1 for x in diagonal_of(smith_normal_form(k.basis).d))
        if not ok:
            failures += 1
    _line(failures == 0,
          f"criterion 6: SNF/kernel property suite on {total} random matrices "
          f"up to 8x8, {failures} failures")


def test_criterion_7_basis_and_permutation_invariance():
    rng = random.Random(1007)
    trials = 500
    failures = 0
    for t in range(trials):
        cfg = random_valid_config(rng, with_costalk=True)
        base = report_signature(analyze(cfg))
        if t % 2 == 0:
            comp = rng.choice(cfg.components)
            u = rand_unimodular(rng, comp.transversal_rank)
            changed = conjugate_component(cfg, comp.id, u)
        else:
            changed = permute_config(cfg, rng)
        if report_signature(analyze(changed)) != base:
            failures += 1
    _line(failures == 0,
          f"criterion 7: reports invariant under {trials} random basis changes "
          f"and reorderings, {failures} failures")


def test_criterion_8_bound_sandwich():
    ok = True
    detail = []
    for name, _ in bundled():
        cfg = load_corpus(name)
        rep = analyze(cfg)
        b = rep.lowest_group.free_rank
        upper = rep.bounds.upper_lowest
        lower = rep.bounds.lower_lowest
        ok = ok and b <= upper and b <= rep.bounds.min_bound
        if lower is not None:
            ok = ok and lower <= b
        if not cfg.special_points:
            ok = ok and b == upper  # no lower-dimensional strata: equality
        detail.append(f"{name}:{lower}<= {b} <={upper}")
    _line(ok, "criterion 8: bound sandwich on the corpus (" + ", ".join(detail) + ")")
