import numpy as np
import pytest
from numpy.testing import assert_allclose

from disclosure_lab import (
    GameSpec,
    MeanDistribution,
    Prior,
    SpecError,
    cheap_talk_payoff,
    commitment_solution,
    dominance_gap,
    interval,
    is_mpc,
    plinear_prior,
    uniform_prior,
    unraveling_payoff,
    validate,
    value_at,
)
from disclosure_lab.game import action_at

from conftest import (
    random_gapped_game,
    random_gapped_many_action,
    random_many_action,
    random_three_action,
)


def test_validate_reports_each_problem():
    u = uniform_prior()
    assert validate(GameSpec(u, (0.0, 0.4, 1.0), (0.0, 1.0))) == []
    with pytest.raises(
        SpecError, match=r"^invalid game spec: need at least two actions$"
    ):
        GameSpec(u, (0.0, 1.0), (0.0,))
    with pytest.raises(
        SpecError,
        match=r"^invalid game spec: cutoff count must be action count plus one$",
    ):
        GameSpec(u, (0.0, 0.5, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(SpecError, match="cutoffs must start at 0 and end at 1"):
        GameSpec(u, (0.1, 0.5, 1.0), (0.0, 1.0))
    with pytest.raises(SpecError, match="cutoffs not ascending"):
        GameSpec(u, (0.0, 0.6, 0.4, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(SpecError, match="lowest action value must be 0"):
        GameSpec(u, (0.0, 0.5, 1.0), (0.5, 1.0))
    with pytest.raises(SpecError, match="values not increasing"):
        GameSpec(u, (0.0, 0.3, 0.6, 1.0), (0.0, 2.0, 1.0))
    joined = (
        "invalid game spec: cutoffs must start at 0 and end at 1; "
        "cutoffs not ascending; lowest action value must be 0; "
        "values not increasing"
    )
    with pytest.raises(SpecError) as err:
        GameSpec(u, (0.1, 0.6, 0.4), (0.5, 0.2))
    assert str(err.value) == joined
    with pytest.raises(SpecError) as err:
        GameSpec.from_obj(
            {"prior": u.to_obj(), "cutoffs": [0.1, 0.6, 0.4], "values": [0.5, 0.2]}
        )
    assert str(err.value) == joined


def test_value_at_takes_upper_action_at_cutoffs(gk2016):
    third = 1.0 / 3.0
    assert value_at(gk2016, third) == 1.0
    assert value_at(gk2016, third - 1e-12) == 0.0
    assert value_at(gk2016, 2.0 * third) == 3.0
    assert value_at(gk2016, 1.0) == 3.0
    assert value_at(gk2016, 0.0) == 0.0
    assert action_at(gk2016, third) == 1
    assert action_at(gk2016, 0.999) == 2


def test_unraveling_goldens(gk2016, exs, exy):
    assert unraveling_payoff(gk2016) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert unraveling_payoff(exs) == pytest.approx(0.51, abs=1e-12)
    assert unraveling_payoff(exy) == pytest.approx(0.49, abs=1e-12)


def test_cheap_talk_is_value_at_the_prior_mean(gk2016, exs, exy):
    assert cheap_talk_payoff(gk2016) == 1.0
    assert cheap_talk_payoff(exs) == 1.0
    assert cheap_talk_payoff(exy) == 0.0


def test_cheap_talk_can_beat_unraveling(exy):
    """The two baselines are not ordered; this pair goes one way and
    the next test's spec goes the other."""
    assert cheap_talk_payoff(exy) < unraveling_payoff(exy)
    spec = GameSpec(uniform_prior(), (0.0, 0.5, 1.0), (0.0, 1.0))
    assert cheap_talk_payoff(spec) == 1.0
    assert unraveling_payoff(spec) == 0.5
    assert cheap_talk_payoff(spec) > unraveling_payoff(spec)


def test_full_disclosure_distribution_is_feasible():
    u = uniform_prior()
    dist = MeanDistribution((), revealed=interval(0.0, 1.0))
    assert dist.validate(u) == []
    assert dominance_gap(u, dist) <= 1e-14
    assert is_mpc(u, dist)


def test_full_pooling_distribution_is_feasible():
    u = uniform_prior()
    dist = MeanDistribution(((0.5, 1.0),))
    assert dist.validate(u) == []
    assert dominance_gap(u, dist) <= 1e-14
    assert dist.integrated_cdf(u, 0.75) == pytest.approx(0.25, abs=1e-14)
    assert dist.integrated_cdf(u, 0.25) == 0.0


def test_infeasible_spread_is_caught():
    """Mass pushed outward past the prior violates dominance even
    though the mean still matches."""
    u = uniform_prior()
    dist = MeanDistribution(((0.0, 0.5), (1.0, 0.5)))
    assert dist.validate(u) == []
    assert dominance_gap(u, dist) == pytest.approx(0.125, abs=1e-12)
    assert not is_mpc(u, dist)


def test_validate_catches_mass_and_mean_drift():
    u = uniform_prior()
    assert MeanDistribution(((0.5, 0.9),)).validate(u) == [
        "probabilities do not sum to one",
        "mean does not match the prior mean",
    ]
    assert MeanDistribution(((0.5, 0.9), (0.5, 0.1))).validate(u) == []
    assert MeanDistribution(((0.4, 1.0),)).validate(u) == [
        "mean does not match the prior mean"
    ]


def test_mixed_atoms_and_revealed_mean():
    u = uniform_prior()
    dist = MeanDistribution(
        ((0.75, 0.5),), revealed=interval(0.0, 0.5)
    )
    assert dist.total_mass(u) == pytest.approx(1.0, abs=1e-14)
    assert dist.mean(u) == pytest.approx(0.5, abs=1e-14)
    assert dist.validate(u) == []
    assert dominance_gap(u, dist) <= 1e-14


def test_expected_value_uses_upper_cells(exy):
    dist = MeanDistribution(((0.6, 0.5), (0.4, 0.5)))
    assert dist.expected_value(exy) == pytest.approx(0.5, abs=1e-12)


def test_dominance_gap_on_plinear_prior():
    p = plinear_prior((0.0, 1.0), (0.5, 1.5))
    pooled = MeanDistribution(((p.mean, 1.0),))
    assert dominance_gap(p, pooled) <= 1e-14
    assert_allclose(pooled.mean(p), p.mean, atol=1e-15)


def scan_gap(prior, dist, points):
    """Largest integrated-cdf gap on `points` evenly spaced points of
    [0, 1], with the mismatch at 1: the audit as a grid scan."""
    worst = 0.0
    for j in range(points):
        x = j / (points - 1)
        worst = max(worst, dist.integrated_cdf(prior, x) - prior.integrated_cdf(x))
    end = dist.integrated_cdf(prior, 1.0) - prior.integrated_cdf(1.0)
    return max(worst, abs(end))


def test_dominance_gap_finds_a_violation_between_grid_points():
    """Two atoms splitting [0, 0.001] with the right mass and mean, but
    the lower one too low: the gap peaks at 0.00065, between the points
    0 and 0.001 of a 1001-point grid."""
    u = uniform_prior()
    m, low = 0.00065, 0.0003
    high = (5e-7 - m * low) / 0.00035
    dist = MeanDistribution(((low, m), (high, 0.00035)), revealed=interval(0.001, 1.0))
    assert dist.validate(u) == []
    assert scan_gap(u, dist, 1001) <= 1e-15
    assert dominance_gap(u, dist) == pytest.approx(m * m / 2 - m * low, abs=1e-15)
    assert not is_mpc(u, dist)


def spread(dist, step):
    """Each atom split into halves moved by -step and +step, clipped to
    [0, 1]: a spread that breaks dominance wherever an atom's pool is
    narrower than the step."""
    return MeanDistribution(
        tuple(
            (min(max(x + s, 0.0), 1.0), p / 2)
            for x, p in dist.atoms
            for s in (-step, step)
        ),
        revealed=dist.revealed,
    )


def test_dominance_gap_bounds_every_scan():
    """On solved designs and on the same designs with each atom split
    0.05 either way (mostly infeasible), the exact gap is at least every
    grid scan's, and above a 4001-point scan by no more than the
    curvature f_max h^2 / 2 allows between its points."""
    rng = np.random.default_rng(1010)
    makers = (
        random_three_action,
        random_many_action,
        random_gapped_game,
        random_gapped_many_action,
    )
    h = 1.0 / 4000
    for make in makers:
        for _ in range(6):
            spec = make(rng)
            prior = spec.prior
            dist = commitment_solution(spec).distribution
            for d in (dist, spread(dist, 0.05)):
                exact = dominance_gap(prior, d)
                fine = scan_gap(prior, d, 4001)
                assert exact >= scan_gap(prior, d, 1001) - 1e-15
                assert exact >= fine - 1e-15
                assert exact - fine <= max(prior.density) * h * h / 2


def test_dominance_gap_evaluates_a_few_points(monkeypatch):
    """The audit evaluates the prior's integrated cdf at O(atoms +
    revealed pieces) distinct points, never on a grid."""
    rng = np.random.default_rng(11)
    specs = [random_gapped_many_action(rng) for _ in range(8)]
    specs += [random_three_action(rng) for _ in range(4)]
    seen = set()
    integrated_cdf = Prior.integrated_cdf

    def counted(self, x):
        seen.add(x)
        return integrated_cdf(self, x)

    for spec in specs:
        dist = commitment_solution(spec).distribution
        pieces = len(dist.revealed.pieces)
        seen.clear()
        monkeypatch.setattr(Prior, "integrated_cdf", counted)
        dominance_gap(spec.prior, dist)
        monkeypatch.undo()
        assert 0 < len(seen) <= 2 * (len(dist.atoms) + 2 * pieces + 2) + 2
