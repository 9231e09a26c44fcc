import math

import pytest
from numpy.testing import assert_allclose

from disclosure_lab import (
    SellerModel,
    SpecError,
    Voter,
    VotingModel,
    check_prudence,
    seller_to_game,
    validate,
    voting_comparative_statics,
    voting_to_game,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def crra_seller(sigma, price, cost=0.0):
    return SellerModel(
        utility={"kind": "crra", "sigma": sigma}, price=price, cost=cost
    )


def test_crra_cutoff_goldens():
    spec = seller_to_game(crra_seller(0.5, 0.25))
    want = (
        0.0,
        0.25,
        0.25 / (SQ2 - 1.0),
        0.25 / (SQ3 - SQ2),
        0.25 / (2.0 - SQ3),
        1.0,
    )
    assert_allclose(spec.cutoffs, want, atol=1e-9)
    assert spec.values == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))
    assert validate(spec) == []


def test_cost_margin_scales_values():
    spec = seller_to_game(crra_seller(0.5, 0.25, cost=0.05))
    assert spec.values == pytest.approx((0.0, 0.2, 0.4, 0.6, 0.8))
    base = seller_to_game(crra_seller(0.5, 0.25))
    assert spec.cutoffs == pytest.approx(base.cutoffs)


def test_price_scaling_moves_cutoffs():
    lo = seller_to_game(crra_seller(0.5, 0.25))
    hi = seller_to_game(crra_seller(0.5, 0.3))
    for a, b in zip(lo.cutoffs[1:-1], hi.cutoffs[1:]):
        if b >= 1.0:
            break
        assert b / a == pytest.approx(1.2, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
def test_crra_gap_chain_shrinks(sigma):
    """Marginal utility gaps shrink in q, so cutoff spacing grows and
    the interior cutoffs stay strictly ordered."""
    spec = seller_to_game(crra_seller(sigma, 0.3))
    cuts = spec.cutoffs
    assert all(b > a for a, b in zip(cuts, cuts[1:]))


def test_prudence_report_concave_crra():
    rep = check_prudence(crra_seller(0.5, 0.25))
    assert rep.ok
    assert rep.prudent
    assert rep.density_ok
    assert not rep.gap_chain_ok


def test_prudence_report_convex_marginals():
    rep = check_prudence(crra_seller(1.5, 0.25))
    assert not rep.ok
    assert not rep.prudent
    assert rep.density_ok


def test_linear_table_rejected():
    m = SellerModel(
        utility={"kind": "table", "values": [0.0, 1.0, 2.0, 3.0]}, price=0.5
    )
    with pytest.raises(SpecError, match="strictly concave"):
        seller_to_game(m)


def test_concave_table_accepted():
    m = SellerModel(
        utility={"kind": "table", "values": [0.0, 1.0, 1.7, 2.1]}, price=0.8
    )
    spec = seller_to_game(m)
    assert_allclose(spec.cutoffs, (0.0, 0.8, 1.0), atol=1e-12)
    assert spec.values == pytest.approx((0.0, 0.8))


def test_top_cutoff_truncation_warns():
    top = 1.0 + 0.5 / (1.0 - 5e-13)
    m = SellerModel(
        utility={"kind": "table", "values": [0.0, 1.0, top]}, price=0.5
    )
    with pytest.warns(UserWarning, match="truncating"):
        spec = seller_to_game(m)
    assert spec.cutoffs == pytest.approx((0.0, 0.5, 1.0))
    assert spec.values == pytest.approx((0.0, 0.5))


def test_price_that_buys_nothing():
    m = SellerModel(
        utility={"kind": "table", "values": [0.0, 1.0, 1.8]}, price=1.2
    )
    with pytest.raises(SpecError, match="no unit is ever worth buying"):
        seller_to_game(m)


def test_price_that_truncates_every_unit_away():
    """The one cutoff sits at the state bound and is truncated, so no
    unit is left: the reason is the seller's, not the game spec's."""
    with pytest.warns(UserWarning, match="truncating"):
        with pytest.raises(SpecError, match="no unit is ever worth buying"):
            seller_to_game(crra_seller(0.5, 0.9999999999999))


def table_seller(utility, price=0.5):
    """A seller with the utility table U(0), ..., U(5)."""
    values = [utility(q) for q in range(6)]
    return SellerModel(utility={"kind": "table", "values": values}, price=price)


def test_prudence_report_on_tables():
    """Both readings of a table utility. q^0.8 is prudent, but its last
    cutoff gap, up to 1, is wider than the one before, so the literal
    chain fails. CARA has P = A < 2A, so it is not prudent, and its one
    interior cutoff leaves a chain that holds."""
    power = table_seller(lambda q: q**0.8)
    rep = check_prudence(power)
    assert (rep.ok, rep.prudent, rep.gap_chain_ok) == (True, True, False)
    assert seller_to_game(power).n_actions == 6
    rep = check_prudence(table_seller(lambda q: 1.0 - math.exp(-q)))
    assert (rep.prudent, rep.gap_chain_ok) == (False, True)


def test_price_too_low_to_close():
    with pytest.raises(SpecError, match="price too low"):
        seller_to_game(crra_seller(0.5, 1e-6))


def test_bad_seller_inputs():
    with pytest.raises(SpecError, match="price must be positive"):
        seller_to_game(crra_seller(0.5, 0.0))
    with pytest.raises(SpecError, match="cost must lie"):
        seller_to_game(crra_seller(0.5, 0.25, cost=0.3))


def golden_voters():
    mid = Voter(alpha_ab=-0.3, alpha_b=-1.1, beta_ab=1.0, beta_b=3.0)
    lo = Voter(alpha_ab=-0.2, alpha_b=-0.9, beta_ab=1.0, beta_b=3.0)
    hi = Voter(alpha_ab=-0.45, alpha_b=-1.45, beta_ab=1.0, beta_b=3.0)
    return (lo, mid, hi)


def test_voting_cutoff_goldens():
    model = VotingModel(golden_voters(), v_ab=1.0, v_b=1.3)
    spec, median = voting_to_game(model)
    assert spec.cutoffs[1] == pytest.approx(0.3, abs=1e-12)
    assert spec.cutoffs[2] == pytest.approx(0.4, abs=1e-12)
    assert spec.values == pytest.approx((0.0, 1.0, 1.3))
    assert median == 1
    assert validate(spec) == []


def test_identical_voters_pick_first():
    v = Voter(-0.3, -1.1, 1.0, 3.0)
    spec, median = voting_to_game(VotingModel((v, v, v), 1.0, 1.3))
    assert median == 0
    assert spec.cutoffs[1] == pytest.approx(0.3)


def test_second_cutoff_comparative_statics():
    """gamma2 falls when the b-only alternative gets steeper or when
    its intercept rises; gamma1 never moves."""
    base = VotingModel(golden_voters(), 1.0, 1.3)
    g1, g2 = voting_to_game(base)[0].cutoffs[1:3]
    eps = 1e-6
    for field, sign in (("beta_b", -1.0), ("alpha_b", -1.0)):
        bumped = []
        for v in golden_voters():
            kw = {
                "alpha_ab": v.alpha_ab,
                "alpha_b": v.alpha_b,
                "beta_ab": v.beta_ab,
                "beta_b": v.beta_b,
            }
            kw[field] += eps
            bumped.append(Voter(**kw))
        spec2, _ = voting_to_game(VotingModel(tuple(bumped), 1.0, 1.3))
        assert spec2.cutoffs[1] == pytest.approx(g1, abs=1e-15)
        deriv = (spec2.cutoffs[2] - g2) / eps
        assert sign * deriv > 0.1


def test_median_must_agree_at_both_cutoffs():
    bad = (
        Voter(-0.2, -0.7, 1.0, 2.0),
        Voter(-0.3, -0.7, 1.0, 2.0),
        Voter(-0.4, -0.85, 1.0, 2.0),
    )
    with pytest.raises(SpecError, match="median at both cutoffs"):
        voting_to_game(VotingModel(bad, 1.0, 1.05))


def test_even_voter_count_rejected():
    v = Voter(-0.3, -1.1, 1.0, 3.0)
    with pytest.raises(SpecError, match="odd"):
        voting_to_game(VotingModel((v, v), 1.0, 1.3))


def test_voting_model_checks_itself_on_construction():
    v = Voter(-0.3, -1.1, 1.0, 3.0)
    with pytest.raises(SpecError, match="odd"):
        VotingModel((v, v), 1.0, 1.3)
    with pytest.raises(SpecError) as err:
        VotingModel((v, v), 1.3, 1.0)
    assert str(err.value) == (
        "voter count must be odd; expert values must satisfy v_b > v_ab > 0"
    )


def sweep_model(v_b):
    voters = tuple(Voter(-0.6, -1.5, 1.0, b) for b in (1.99, 2.0, 2.01))
    return VotingModel(voters, 1.0, v_b)


def test_sweep_detects_payoff_decrease():
    res = voting_comparative_statics(
        sweep_model(1.05), [0.0, 0.03, 0.06, 0.09, 0.12], "beta_b"
    )
    assert res.payoff_decrease
    deltas = [r.parameter for r in res.rows]
    assert deltas == [0.0, 0.03, 0.06, 0.09, 0.12]
    assert_allclose(
        [r.gamma2_m for r in res.rows],
        [0.9 / (1.0 + d) for d in deltas],
        atol=1e-12,
    )
    want = [
        0.7136900656813133,
        0.6951726302656462,
        0.6800901625523365,
        0.668516678368329,
        0.6605456909443133,
    ]
    assert_allclose([r.payoff for r in res.rows], want, atol=1e-8)
    assert not any(r.implementable for r in res.rows)


def test_sweep_implementable_regime():
    res = voting_comparative_statics(
        sweep_model(2.5), [0.0, 0.03, 0.06], "beta_b"
    )
    assert not res.payoff_decrease
    payoffs = [r.payoff for r in res.rows]
    assert payoffs[0] == pytest.approx(0.9, abs=1e-9)
    assert all(b >= a - 1e-12 for a, b in zip(payoffs, payoffs[1:]))
    assert all(r.implementable for r in res.rows)


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(SpecError):
        voting_comparative_statics(sweep_model(1.05), [0.0], "gamma")


@pytest.mark.parametrize(
    "utility, message",
    [
        ({"kind": "table"}, "table utility needs 'values'"),
        ({"kind": "crra"}, "crra utility needs 'sigma'"),
        ("crra", "utility must be an object with a kind"),
    ],
)
def test_malformed_utility_is_a_spec_error(utility, message):
    """The game and the prudence check read a utility the same way."""
    model = SellerModel(utility=utility, price=0.5)
    for read in (seller_to_game, check_prudence):
        with pytest.raises(SpecError, match=message):
            read(model)
