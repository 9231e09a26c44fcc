import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from disclosure_lab import (
    GameSpec,
    SpecError,
    check_c3i,
    check_cni,
    check_nam,
    check_prop2,
    commitment_solution,
    dominance_gap,
    implementable,
    is_incentive_compatible,
    is_laminar,
    lp_value,
    ore_at_payoff,
    payoff_bounds,
    preferred_ore,
    sweep_representation,
    uniform_prior,
    unraveling_payoff,
    verify_ore,
)
from disclosure_lab.design import _nested_y
from disclosure_lab.equilibrium import payoff_path

from conftest import (
    random_cni_many_action,
    random_gapped_game,
    random_gapped_many_action,
    random_plinear_game,
    random_three_action,
)

EXS_PREFERRED = 1.02 - 1.1 * (1.8 - math.sqrt(2.6)) / 2.0
EXY_Y = (1.4 - math.sqrt(0.52)) / 2.0
EXY_PREFERRED = 1.24 - 1.3 * EXY_Y


def test_implementable_equal_thirds(gk2016):
    report = implementable(gk2016)
    assert report.implementable
    assert report.violations == ()
    assert report.commitment_payoff == pytest.approx(100.0 / 48.0, abs=1e-9)


def test_not_implementable_skipped_action(exs):
    report = implementable(exs)
    assert not report.implementable
    kinds = {v.kind for v in report.violations}
    assert "skipped-action" in kinds
    v = next(v for v in report.violations if v.kind == "skipped-action")
    assert v.action == 2
    assert v.sup == pytest.approx(1.0, abs=1e-9)
    assert v.bound == pytest.approx(0.9, abs=1e-12)


def test_not_implementable_nested_pair(exy):
    report = implementable(exy)
    assert not report.implementable
    v = next(v for v in report.violations if v.kind == "nested-pair")
    assert v.sup == pytest.approx(38.0 / 45.0, abs=1e-6)
    assert v.bound == pytest.approx(0.7, abs=1e-12)


def test_no_atom_monotone_condition(gk2016, exs, exy):
    assert check_nam(gk2016) == [True]
    assert check_nam(exs) == [False]
    assert check_nam(exy) == [False]


def test_cutoff_independence_condition(gk2016):
    assert not check_cni(gk2016)
    spec = GameSpec(uniform_prior(), (0.0, 0.4, 0.7, 1.0), (0.0, 1.0, 2.5))
    assert check_cni(spec)


def test_three_action_condition(gk2016, exs, exy):
    assert check_c3i(gk2016)
    assert not check_c3i(exs)
    assert not check_c3i(exy)


def test_three_action_condition_needs_three_actions():
    spec = GameSpec(uniform_prior(), (0.0, 0.5, 1.0), (0.0, 1.0))
    with pytest.raises(SpecError):
        check_c3i(spec)


def test_preferred_coincides_when_implementable(gk2016):
    res = preferred_ore(gk2016)
    assert res.coincides_with_commitment
    assert res.payoff == pytest.approx(100.0 / 48.0, abs=1e-9)
    assert verify_ore(gk2016, res.rep).ok


def test_preferred_interior_family(exs):
    res = preferred_ore(exs)
    assert not res.coincides_with_commitment
    assert res.payoff == pytest.approx(EXS_PREFERRED, abs=1e-7)
    assert verify_ore(exs, res.rep).ok


def test_preferred_golden_endpoints(exy):
    res = preferred_ore(exy)
    assert not res.coincides_with_commitment
    assert res.payoff == pytest.approx(EXY_PREFERRED, abs=1e-7)
    cells = res.rep.cells
    assert_allclose(cells[0].pieces, [(0.0, EXY_Y)], atol=1e-8)
    assert_allclose(cells[1].pieces, [(0.5, 0.7)], atol=1e-8)
    assert cells[1].hi == pytest.approx(0.7, abs=1e-12)
    assert_allclose(
        cells[2].pieces, [(EXY_Y, 0.5), (0.7, 1.0)], atol=1e-8
    )
    audit = verify_ore(exy, res.rep)
    assert audit.ok
    assert audit.payoff == pytest.approx(res.payoff, abs=1e-12)


def test_preferred_is_the_nested_structure_at_g2():
    """A game with no nested structure at b = g2 is implementable, so
    preferred_ore needs no other family: wherever the commitment outcome
    is not an equilibrium, the nested structure at g2 is one."""
    rng = np.random.default_rng(17)
    no_family = not_implementable = 0
    for _ in range(1000):
        spec = random_plinear_game(rng)
        report = implementable(spec)
        if isinstance(_nested_y(spec, spec.cutoffs[2]), str):
            no_family += 1
            assert report.implementable
        if not report.implementable:
            not_implementable += 1
            result = preferred_ore(spec)
            assert not result.coincides_with_commitment
            assert verify_ore(spec, result.rep).ok
    # both branches run on this draw
    assert no_family >= 100 and not_implementable >= 10


def test_preferred_rejects_many_actions():
    spec = GameSpec(
        uniform_prior(), (0.0, 0.2, 0.45, 0.7, 1.0), (0.0, 0.3, 0.8, 1.4)
    )
    with pytest.raises(SpecError):
        preferred_ore(spec)


def test_payoff_bounds_goldens(gk2016, exs, exy):
    lo, hi = payoff_bounds(gk2016)
    assert lo == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(100.0 / 48.0, abs=1e-9)
    lo, hi = payoff_bounds(exs)
    assert lo == pytest.approx(0.51, abs=1e-12)
    assert hi == pytest.approx(EXS_PREFERRED, abs=1e-7)
    lo, hi = payoff_bounds(exy)
    assert lo == pytest.approx(0.49, abs=1e-12)
    assert hi == pytest.approx(EXY_PREFERRED, abs=1e-7)


def test_ore_at_interior_targets(exy):
    lo, hi = payoff_bounds(exy)
    for t in np.linspace(lo, hi, 7)[1:-1]:
        rep = ore_at_payoff(exy, float(t))
        audit = verify_ore(exy, rep)
        assert audit.ok
        assert is_laminar(rep)
        assert abs(audit.payoff - t) <= 1e-7


def test_ore_at_lands_on_the_payoff_set_targets(exy):
    """The payoff path is solved by one root finder, so each of the
    acceptance gate's 20 targets is met to far below its 1e-7 bound."""
    for t in np.linspace(0.49, EXY_PREFERRED, 20):
        rep = ore_at_payoff(exy, float(t))
        assert abs(verify_ore(exy, rep).payoff - t) <= 1e-11


def test_ore_at_endpoints(exy):
    lo, hi = payoff_bounds(exy)
    rep_hi = ore_at_payoff(exy, hi)
    assert verify_ore(exy, rep_hi).payoff == pytest.approx(hi, abs=1e-9)
    rep_lo = ore_at_payoff(exy, lo)
    assert verify_ore(exy, rep_lo).payoff == pytest.approx(lo, abs=1e-7)


def test_ore_at_rejects_out_of_range(exy):
    lo, hi = payoff_bounds(exy)
    with pytest.raises(SpecError, match="out of range"):
        ore_at_payoff(exy, lo - 0.01)
    with pytest.raises(SpecError, match="out of range"):
        ore_at_payoff(exy, hi + 0.01)


def test_ore_at_two_actions():
    spec = GameSpec(uniform_prior(), (0.0, 0.75, 1.0), (0.0, 1.0))
    lo, hi = payoff_bounds(spec)
    assert lo == pytest.approx(0.25, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-9)
    rep = ore_at_payoff(spec, 0.35)
    audit = verify_ore(spec, rep)
    assert audit.ok
    assert audit.payoff == pytest.approx(0.35, abs=1e-7)


def test_sweep_keeps_equilibrium_property(exy):
    base = preferred_ore(exy).rep
    path = payoff_path(exy, base)
    payoffs = []
    for z in np.linspace(0.0, 0.7, 8):
        rep = sweep_representation(exy, base, float(z))
        audit = verify_ore(exy, rep)
        assert audit.ok, f"sweep broke at z={z}"
        assert path(float(z)) == pytest.approx(audit.payoff, abs=1e-14)
        payoffs.append(audit.payoff)
    assert payoffs[0] == pytest.approx(EXY_PREFERRED, abs=1e-7)
    assert payoffs[-1] == pytest.approx(0.49, abs=1e-9)
    lo, hi = payoff_bounds(exy)
    for p in payoffs:
        assert lo - 1e-9 <= p <= hi + 1e-9


def test_sufficient_conditions_are_sound():
    """Whenever a sufficient condition fires, the commitment outcome
    really is implementable."""
    rng = np.random.default_rng(23)
    fired = 0
    for _ in range(30):
        spec = random_three_action(rng)
        if all(check_nam(spec)) or check_c3i(spec):
            fired += 1
            assert implementable(spec).implementable
    assert fired >= 3


def test_cni_implies_an_equilibrium_for_many_actions():
    """The paper's theorem for four to six actions: under CNI the
    commitment outcome is an equilibrium outcome, and its canonical
    representation is incentive compatible."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        spec = random_cni_many_action(rng)
        assert check_cni(spec)
        report = implementable(spec)
        assert report.implementable
        assert is_incentive_compatible(spec, report.canonical).ok


def test_unraveling_matches_lower_bound(gk2016, exs, exy):
    for spec in (gk2016, exs, exy):
        assert payoff_bounds(spec)[0] == pytest.approx(
            unraveling_payoff(spec), abs=1e-12
        )


def test_gapped_priors_solve_and_agree_with_ic():
    """Zero-density stretches, also at either end of [0, 1], leave every
    mean equation solvable: no verb raises, the commitment solution is
    feasible and below the LP bound, and the implementability verdict
    matches incentive compatibility of the canonical cells."""
    rng = np.random.default_rng(300)
    for k in range(300):
        spec = random_gapped_game(rng)
        sol = commitment_solution(spec)
        assert sol.distribution.validate(spec.prior) == []
        assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
        assert len(check_nam(spec)) == 1
        report = implementable(spec)
        ic = is_incentive_compatible(spec, report.canonical)
        assert report.implementable == ic.ok
        preferred_ore(spec)
        if k % 10 == 0:
            assert sol.payoff <= lp_value(spec) + 1e-9


def test_gapped_many_action_games_agree_with_ic():
    """Four to six actions on gapped priors: the commitment solution is
    feasible, and the Prop 2 verdict is the incentive-compatibility
    verdict. In game 99 a cell runs on through a zero-density stretch
    past a skipped action's cutoff, and in game 103 a revealed sliver of
    mass 9e-10 makes a skipped action look taken; incentive
    compatibility reads both as null sets, and so must Prop 2."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        spec = random_gapped_many_action(rng)
        sol = commitment_solution(spec)
        assert sol.distribution.validate(spec.prior) == []
        assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
        # implementable(spec) is this Prop 2 check on sol.canonical
        assert (
            check_prop2(spec, sol.canonical).ok
            == is_incentive_compatible(spec, sol.canonical).ok
        )
