"""Acceptance gate with one test per criterion.

Each test asserts the published tolerances and prints a single PASS
line so a plain pytest -v run reads as the acceptance report.
"""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from disclosure_lab import (
    GameSpec,
    SellerModel,
    Voter,
    VotingModel,
    check_c3i,
    check_nam,
    check_prudence,
    commitment_solution,
    dominance_gap,
    feasible_bipool,
    implementable,
    interval,
    is_laminar,
    lp_value,
    nested_interval_rep,
    ore_at_payoff,
    plinear_prior,
    preferred_ore,
    seller_to_game,
    solve_three_action,
    solve_two_action,
    uniform_prior,
    verify_ore,
    voting_comparative_statics,
    voting_to_game,
)

from conftest import random_three_action

EXY_Y = (1.4 - math.sqrt(0.52)) / 2.0
EXY_PREFERRED = 1.24 - 1.3 * EXY_Y


def test_criterion_1_equal_thirds_reproduction(gk2016):
    start = time.perf_counter()
    sol = solve_three_action(gk2016)
    cells = sol.canonical.cells
    assert_allclose(cells[0].pieces, [(0.0, 8.0 / 48.0)], atol=1e-8)
    assert_allclose(cells[1].pieces, [(11.0 / 48.0, 21.0 / 48.0)], atol=1e-8)
    assert_allclose(
        cells[2].pieces,
        [(8.0 / 48.0, 11.0 / 48.0), (21.0 / 48.0, 1.0)],
        atol=1e-8,
    )
    assert implementable(gk2016).implementable
    assert sol.payoff == pytest.approx(100.0 / 48.0, abs=1e-8)
    assert check_c3i(gk2016)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS (equal-thirds game, {elapsed:.2f}s)")


def test_criterion_2_full_pooling_not_implementable(exs):
    start = time.perf_counter()
    sol = solve_three_action(exs)
    assert sol.distribution.atoms == ((0.5, 1.0),)
    cells = sol.canonical.cells
    assert cells[0].length == 0.0
    assert cells[2].length == 0.0
    assert_allclose(cells[1].pieces, [(0.0, 1.0)], atol=1e-12)
    report = implementable(exs)
    assert not report.implementable
    v = next(v for v in report.violations if v.kind == "skipped-action")
    assert v.action == 2
    assert v.sup == pytest.approx(1.0, abs=1e-9)
    assert v.sup > 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2 PASS (full pooling game, {elapsed:.2f}s)")


def test_criterion_3_tight_cutoffs_reproduction(exy):
    start = time.perf_counter()
    sol = solve_three_action(exy)
    cells = sol.canonical.cells
    assert cells[0].hi == pytest.approx(0.267, abs=5e-3)
    assert cells[1].lo == pytest.approx(0.356, abs=5e-3)
    assert cells[1].hi == pytest.approx(0.845, abs=5e-3)
    report = implementable(exy)
    assert not report.implementable
    assert any(v.kind == "nested-pair" for v in report.violations)
    res = preferred_ore(exy)
    assert res.rep.cells[1].lo == pytest.approx(0.5, abs=1e-8)
    assert res.rep.cells[0].hi == pytest.approx(EXY_Y, abs=1e-8)
    assert res.payoff == pytest.approx(EXY_PREFERRED, abs=1e-7)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 3 PASS (tight-cutoff game, {elapsed:.2f}s)")


def test_criterion_4_lp_matches_structural_on_random_specs():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        spec = random_three_action(rng)
        exact = solve_three_action(spec).payoff
        gap = abs(lp_value(spec, 961) - exact)
        worst = max(worst, gap)
        assert gap <= 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS (50 specs, worst gap {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_5_every_emitted_distribution_is_feasible(
    gk2016, exs, exy
):
    emitted = []
    for spec in (gk2016, exs, exy):
        emitted.append((spec.prior, solve_three_action(spec).distribution))
    two = GameSpec(uniform_prior(), (0.0, 0.75, 1.0), (0.0, 1.0))
    emitted.append((two.prior, solve_two_action(two).distribution))
    four = GameSpec(
        uniform_prior(), (0.0, 0.2, 0.45, 0.7, 1.0), (0.0, 0.3, 0.8, 1.4)
    )
    emitted.append((four.prior, commitment_solution(four).distribution))
    rng = np.random.default_rng(55)
    for _ in range(20):
        spec = random_three_action(rng)
        emitted.append((spec.prior, solve_three_action(spec).distribution))
    for prior, dist in emitted:
        assert dist.validate(prior) == []
        assert dominance_gap(prior, dist) <= 1e-8
        assert dist.mean(prior) == pytest.approx(
            prior.first_moment(1.0), abs=1e-9
        )
    print(f"criterion 5 PASS ({len(emitted)} distributions audited)")


def test_criterion_6_sufficient_conditions_never_mislead():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    fired = 0
    for _ in range(200):
        spec = random_three_action(rng)
        if all(check_nam(spec)) or check_c3i(spec):
            fired += 1
            assert implementable(spec).implementable
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert fired > 0
    print(
        f"criterion 6 PASS ({fired}/200 fired, all implementable,"
        f" {elapsed:.1f}s)"
    )


def test_criterion_7_payoff_set_targets(exy):
    lo = 0.49
    hi = EXY_PREFERRED
    targets = np.linspace(lo, hi, 20)
    for t in targets:
        rep = ore_at_payoff(exy, float(t))
        audit = verify_ore(exy, rep)
        assert audit.ok
        assert is_laminar(rep)
        assert abs(audit.payoff - t) <= 1e-7
    low_rep = ore_at_payoff(exy, lo)
    assert verify_ore(exy, low_rep).payoff == pytest.approx(lo, abs=1e-7)
    high_rep = ore_at_payoff(exy, hi)
    assert verify_ore(exy, high_rep).payoff == pytest.approx(
        preferred_ore(exy).payoff, abs=1e-7
    )
    print("criterion 7 PASS (20 payoff targets met within 1e-7)")


def test_criterion_8_nested_pair_residuals():
    priors = [uniform_prior(), plinear_prior((0.0, 1.0), (0.5, 1.5))]
    rng = np.random.default_rng(808)
    done = 0
    while done < 100:
        prior = priors[done % 2]
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(a + 0.2, 1.0)
        outer = interval(float(a), float(b))
        m = prior.partial_mean(outer)
        z_lo = rng.uniform(a + 1e-3, m - 1e-3)
        z_hi = rng.uniform(m + 1e-3, b - 1e-3)
        if not feasible_bipool(prior, outer, float(z_lo), float(z_hi)):
            continue
        inner, rem = nested_interval_rep(prior, outer, float(z_lo), float(z_hi))
        assert prior.partial_mean(inner) == pytest.approx(
            z_lo, abs=1e-9
        )
        assert prior.partial_mean(rem) == pytest.approx(
            z_hi, abs=1e-9
        )
        split = prior.mass(outer) * (z_hi - m) / (z_hi - z_lo)
        assert prior.mass(inner) == pytest.approx(split, abs=1e-9)
        done += 1
    print("criterion 8 PASS (100 nested pairs, residuals within 1e-9)")


def test_criterion_9_applications():
    spec = seller_to_game(
        SellerModel(utility={"kind": "crra", "sigma": 0.5}, price=0.25)
    )
    sq2, sq3 = math.sqrt(2.0), math.sqrt(3.0)
    want = (
        0.25,
        0.25 / (sq2 - 1.0),
        0.25 / (sq3 - sq2),
        0.25 / (2.0 - sq3),
    )
    assert_allclose(spec.cutoffs[1:-1], want, atol=1e-5)
    for sigma in (0.3, 0.5, 0.9):
        assert check_prudence(
            SellerModel(utility={"kind": "crra", "sigma": sigma}, price=0.25)
        ).prudent
    for sigma in (1.1, 1.5):
        assert not check_prudence(
            SellerModel(utility={"kind": "crra", "sigma": sigma}, price=0.25)
        ).prudent
    voter = Voter(alpha_ab=-0.3, alpha_b=-1.1, beta_ab=1.0, beta_b=3.0)
    vspec, _ = voting_to_game(VotingModel((voter,) * 3, 1.0, 1.3))
    assert vspec.cutoffs[1] == pytest.approx(0.3, abs=1e-12)
    assert vspec.cutoffs[2] == pytest.approx(0.4, abs=1e-12)
    voters = tuple(Voter(-0.6, -1.5, 1.0, b) for b in (1.99, 2.0, 2.01))
    res = voting_comparative_statics(
        VotingModel(voters, 1.0, 1.05),
        [0.0, 0.03, 0.06, 0.09, 0.12],
        "beta_b",
    )
    assert res.payoff_decrease
    payoffs = [r.payoff for r in res.rows]
    assert any(b < a - 1e-12 for a, b in zip(payoffs, payoffs[1:]))
    assert not any(r.implementable for r in res.rows)
    print("criterion 9 PASS (seller and voting applications)")
