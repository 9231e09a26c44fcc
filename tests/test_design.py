import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from disclosure_lab import (
    BiPoolingSolution,
    GameSpec,
    IntervalUnion,
    MeanDistribution,
    SellerModel,
    SolverError,
    SpecError,
    check_prop2,
    commitment_solution,
    dominance_gap,
    implementable,
    interval,
    is_incentive_compatible,
    is_laminar,
    is_obedient,
    lp_value,
    ore_at_payoff,
    plinear_prior,
    preferred_ore,
    representation_payoff,
    seller_to_game,
    solve_three_action,
    solve_two_action,
    uniform_prior,
    unraveling_payoff,
    value_at,
)
from disclosure_lab import cli, design, equilibrium, representation
from disclosure_lab import prior as prior_module
from disclosure_lab.design import _DualSimplex, _solve_cells
from disclosure_lab.prior import LP_TOL, MPC_TOL, TIE_MARGIN, find_root, solve_h

from conftest import (
    SLIVER_WINDOW_GAMES,
    random_gapped_game,
    random_gapped_many_action,
    random_gapped_prior,
    random_many_action,
    random_plinear_game,
    random_three_action,
)


def atom_locations(dist):
    return sorted(x for x, _ in dist.atoms)


def test_two_action_top_pool_golden():
    spec = GameSpec(uniform_prior(), (0.0, 0.75, 1.0), (0.0, 1.0))
    sol = solve_two_action(spec)
    assert sol.payoff == pytest.approx(0.5, abs=1e-12)
    assert len(sol.distribution.atoms) == 1
    loc, mass = sol.distribution.atoms[0]
    assert loc == pytest.approx(0.75, abs=1e-12)
    assert mass == pytest.approx(0.5, abs=1e-12)
    assert_allclose(sol.distribution.revealed.pieces, [(0.0, 0.5)], atol=1e-12)
    assert sol.distribution.validate(spec.prior) == []


def test_two_action_full_pool_when_mean_clears_cutoff():
    spec = GameSpec(uniform_prior(), (0.0, 0.4, 1.0), (0.0, 1.0))
    sol = solve_two_action(spec)
    assert sol.payoff == pytest.approx(1.0, abs=1e-12)
    assert atom_locations(sol.distribution) == [pytest.approx(0.5)]


def test_three_action_golden_equal_thirds(gk2016):
    sol = solve_three_action(gk2016)
    assert sol.payoff == pytest.approx(100.0 / 48.0, abs=1e-9)
    locs = atom_locations(sol.distribution)
    assert_allclose(locs, [1.0 / 12.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-8)
    masses = dict(sol.distribution.atoms)
    assert masses[locs[1]] == pytest.approx(10.0 / 48.0, abs=1e-8)
    assert masses[locs[2]] == pytest.approx(30.0 / 48.0, abs=1e-8)
    cells = sol.canonical.cells
    assert_allclose(cells[0].pieces, [(0.0, 8.0 / 48.0)], atol=1e-8)
    assert_allclose(cells[1].pieces, [(11.0 / 48.0, 21.0 / 48.0)], atol=1e-8)
    assert_allclose(
        cells[2].pieces,
        [(8.0 / 48.0, 11.0 / 48.0), (21.0 / 48.0, 1.0)],
        atol=1e-8,
    )
    assert sol.distribution.pool_threshold == pytest.approx(
        1.0 / 3.0, abs=1e-8
    )
    assert sol.distribution.validate(gk2016.prior) == []
    assert dominance_gap(gk2016.prior, sol.distribution) <= 1e-8


def test_three_action_full_pool_golden(exs):
    sol = solve_three_action(exs)
    assert sol.payoff == pytest.approx(1.0, abs=1e-12)
    assert sol.distribution.atoms == ((0.5, 1.0),)
    assert sol.distribution.revealed.is_empty


def test_three_action_golden_tight_cutoffs(exy):
    sol = solve_three_action(exy)
    assert sol.payoff == pytest.approx(121.0 / 150.0, abs=1e-9)
    locs = atom_locations(sol.distribution)
    assert_allclose(locs, [2.0 / 15.0, 0.6, 0.7], atol=1e-8)
    cells = sol.canonical.cells
    assert_allclose(cells[0].pieces, [(0.0, 4.0 / 15.0)], atol=1e-8)
    assert_allclose(cells[1].pieces, [(16.0 / 45.0, 38.0 / 45.0)], atol=1e-8)
    assert_allclose(
        cells[2].pieces,
        [(4.0 / 15.0, 16.0 / 45.0), (38.0 / 45.0, 1.0)],
        atol=1e-8,
    )


def test_canonical_cells_land_on_closed_forms(gk2016, exy):
    """The nested optimum is a root of the first-order condition, so
    its cell ends are exact and not just within a search tolerance."""
    for spec, want in (
        (gk2016, [1.0 / 6.0, 11.0 / 48.0, 21.0 / 48.0]),
        (exy, [4.0 / 15.0, 16.0 / 45.0, 38.0 / 45.0]),
    ):
        cells = solve_three_action(spec).canonical.cells
        got = [cells[0].hi, cells[1].lo, cells[1].hi]
        assert_allclose(got, want, rtol=0.0, atol=1e-13)


def _scan_prior(rng, family):
    """Uniform, two-piece, many-knot with near-zero densities, or
    many-knot with zero-density stretches."""
    if family == "uniform":
        return uniform_prior()
    if family == "two-piece":
        knots = (0.0, float(rng.uniform(0.15, 0.85)), 1.0)
        return plinear_prior(knots, tuple(rng.uniform(0.4, 1.6, 3).tolist()))
    n = int(rng.integers(6, 10))
    inner = np.sort(rng.uniform(0.05, 0.95, n - 2))
    while np.diff(inner).min() < 0.02:
        inner = np.sort(rng.uniform(0.05, 0.95, n - 2))
    density = rng.uniform(0.5, 3.0, n)
    low = rng.uniform(size=n) < 0.4
    density[low] = 0.0 if family == "gaps" else rng.uniform(0.0, 0.02, low.sum())
    density[0] = 1.0  # keeps some mass whatever the draw
    return plinear_prior([0.0, *inner.tolist(), 1.0], density.tolist())


def _scan_game(rng, family, tight):
    """Three-action game on a _scan_prior family with spread (mostly
    implementable) or tight cutoffs."""
    prior = _scan_prior(rng, family)
    if tight:
        g1 = float(rng.uniform(0.5, 0.75))
        g2 = g1 + float(rng.uniform(0.05, 0.15))
        v2 = float(rng.uniform(1.05, 1.6))
    else:
        g1 = float(rng.uniform(0.15, 0.45))
        g2 = g1 + float(rng.uniform(0.2, 0.45))
        v2 = float(rng.uniform(2.0, 4.0))
    return GameSpec(prior, (0.0, g1, g2, 1.0), (0.0, 1.0, v2))


def _nested_scan_payoff(spec, n=301):
    """Best payoff of the nested structure over an even grid of its free
    endpoint b, from the prior's mean equations alone: [h, b] pooled at
    the lower cutoff, [y, h] + [b, 1] at the upper one and [0, y] at its
    own mean. Each is a partition of the states, so a feasible outcome
    whose payoff bounds the commitment payoff from below. Points where
    [g1, b] or [b, 1] carry no mass have no such partition and are
    skipped."""
    prior = spec.prior
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    v1, v2 = spec.values[1], spec.values[2]
    best = None
    for b in np.linspace(g1, 1.0, n)[1:-1].tolist():
        if min(prior.mass(interval(g1, b)), prior.mass(interval(b, 1.0))) < 1e-12:
            continue
        if prior.partial_mean(interval(0.0, b)) > g1:
            break  # the mean of [0, b] only grows with b
        h = find_root(lambda t: prior.partial_mean(interval(t, b)) - g1, 0.0, g1)
        top = lambda t: interval(t, h).union(interval(b, 1.0))
        res = lambda t: prior.partial_mean(top(t)) - g2
        if res(0.0) > 0.0 or res(h) < 0.0:
            continue
        y = find_root(res, 0.0, h)
        payoff = v1 * prior.mass(interval(h, b)) + v2 * prior.mass(top(y))
        low = interval(0.0, y)
        if prior.mass(low) > 1e-14:
            payoff += value_at(spec, prior.partial_mean(low)) * prior.mass(low)
        best = payoff if best is None else max(best, payoff)
    return best


def _beats_scan(spec):
    best = _nested_scan_payoff(spec)
    if best is None:
        return False
    sol = solve_three_action(spec)
    assert sol.payoff >= best - 1e-12
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
    assert not sol.distribution.validate(spec.prior)
    return True


def test_nested_optimum_beats_a_dense_scan_of_its_endpoint():
    """The solver puts the nested optimum where the payoff slope in b
    changes sign, which it does once for every prior; no point of a
    dense scan may beat it, also for multi-modal priors and priors with
    near-zero or zero density over a stretch."""
    rng = np.random.default_rng(2024)
    scanned = {}
    for k in range(24):
        family = ("uniform", "two-piece", "near-zero", "gaps")[k % 4]
        spec = _scan_game(rng, family, tight=k // 4 % 2 == 1)
        scanned[family] = scanned.get(family, 0) + _beats_scan(spec)
    assert min(scanned.values()) >= 2, scanned


def test_nested_optimum_past_a_zero_density_gap():
    """With g1 inside a zero-density gap the payoff is flat in b from
    g1 to the end of the gap and peaks past it."""
    prior = plinear_prior(
        (0.0, 0.35, 0.4, 0.6, 0.65, 1.0), (1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    )
    for g1, g2, v2 in ((0.41, 0.71, 3.0), (0.47, 0.67, 1.5), (0.53, 0.73, 1.5)):
        assert _beats_scan(GameSpec(prior, (0.0, g1, g2, 1.0), (0.0, 1.0, v2)))


def _split_at_a_gap_games():
    """Cutoffs at the means of the two halves of a symmetric gapped
    prior, with a top value of 1.5 or 3."""
    prior = plinear_prior(
        (0.0, 0.4, 0.41, 0.59, 0.6, 1.0), (1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    )
    g1 = prior.partial_mean(interval(0.0, 0.5))
    g2 = prior.partial_mean(interval(0.5, 1.0))
    return [GameSpec(prior, (0.0, g1, g2, 1.0), (0.0, 1.0, v2)) for v2 in (1.5, 3.0)]


def test_nested_range_ending_inside_a_zero_density_gap():
    """In _split_at_a_gap_games the mean of [0, b] is g1 across the gap,
    so the nested range ends at b_cap inside it, and the optimum splits
    the states at the gap, each half to its own action."""
    for spec in _split_at_a_gap_games():
        sol = solve_three_action(spec)
        assert sol.payoff == pytest.approx(0.5 + 0.5 * spec.values[2], abs=1e-12)
        assert not sol.distribution.validate(spec.prior)


def _nested_y_at(spec, b):
    """y of ``_nested_y`` at b, or the name of the condition b fails."""
    end = design._nested_y(spec, b)
    return end if isinstance(end, str) else end[1]


def _nested_range_end(spec, n=201):
    """Least y of the nested structure over its feasible b, from a scan
    of ``_nested_y`` on an even grid of [b_lo, 1] and a bisection of the
    grid step where feasibility ends, with the condition that fails just
    past that end. The scan checks that the feasible b form one run from
    b_lo, the premise of reading the end off its edges."""
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    b_lo = max(g1, solve_h(spec.prior, g2, 1.0))
    grid = np.linspace(b_lo, 1.0, n).tolist()
    ys = [_nested_y_at(spec, b) for b in grid]
    run = [k for k, y in enumerate(ys) if not isinstance(y, str)]
    assert run == list(range(len(run))), "feasible b are not one run from b_lo"
    if len(run) == n:
        return min(ys), None
    k = len(run)
    lo, hi, least = grid[k - 1], grid[k], ys[k - 1]
    for _ in range(60):
        mid = (lo + hi) / 2.0
        y = _nested_y_at(spec, mid)
        if isinstance(y, str):
            hi = mid
        else:
            lo, least = mid, min(least, y)
    return least, _nested_y_at(spec, hi)


def test_nested_range_ends_where_its_edges_say():
    """On seeded uniform and gapped games, and on _split_at_a_gap_games,
    whose range ends at b_cap, the nested optimum is y* clipped at the
    least y a scan of the feasible b reaches. Between them the games end
    the range at all three of its ends: where y reaches 0, where [b, 1]
    runs out of mass and where the mean of [0, b] reaches g1."""
    specs = _split_at_a_gap_games()
    rng = np.random.default_rng(7)
    specs += [random_three_action(rng) for _ in range(25)]
    rng = np.random.default_rng(11)
    specs += [random_gapped_game(rng) for _ in range(60)]
    ends = set()
    for spec in specs:
        g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
        v1, v2 = spec.values[1], spec.values[2]
        if spec.prior.mean > g2:
            continue
        x_hi = solve_h(spec.prior, g2, 1.0)
        y = design._best_nested(spec, x_hi)
        y_lo = _nested_y_at(spec, max(g1, x_hi))
        y_star = g2 - v2 * (g2 - g1) / (v2 - v1)
        if y is None or y_star >= y_lo:
            continue
        least, end = _nested_range_end(spec)
        ends.add(end)
        assert y == pytest.approx(max(y_star, least), abs=1e-9)
    assert ends >= {"y below 0", "no mass in [b, 1]", "mean of [0, b] above g1"}


# Two games whose nested optimum is b = g1, where [h, b] is the point g1
# and pools no mass, so no bi-pool of that structure has an inner window.
DEGENERATE_NESTED = [
    ((0.0, 0.04374683213943309, 0.9380953625949208, 1.0),
     (33.09123455337026, 0.0, 0.0, 8.92280998421262),
     (0.0, 0.3441379224095804, 0.5073545207558579, 1.0),
     (0.0, 1.950403112446276, 7.10770603694621)),
    ((0.0, 0.03261170563786472, 0.6654236812752549, 1.0),
     (1.3570523035000568, 0.5730976531987443, 1.4503923401043186, 0.0),
     (0.0, 0.6639048478206616, 0.6944733776248913, 1.0),
     (0.0, 0.8821177430816161, 2.531115409868669)),
]


@pytest.mark.parametrize("knots, density, cutoffs, values", DEGENERATE_NESTED)
def test_degenerate_nested_optimum_solves(knots, density, cutoffs, values, capsys):
    """The degenerate nested structure is top-pool with its bottom pooled
    below g1 and pays the same, so every verb solves the game with a
    feasible design that the grid LP does not beat."""
    spec = GameSpec(plinear_prior(knots, density), cutoffs, values)
    sol = commitment_solution(spec)
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
    lp = lp_value(spec, 961)
    assert lp - 1e-6 <= sol.payoff <= lp + 1e-9
    assert implementable(spec).commitment_payoff == sol.payoff
    preferred_ore(spec)
    assert cli.main(["solve", json.dumps(spec.to_obj())]) == 0


def test_three_action_solves_make_few_window_solves(gk2016, exs, exy, monkeypatch):
    """A cost guard that needs no clock: the nested optimum reads the end
    of its b range off the range's edges, so a three-action solve makes
    a handful of solve_h calls, where a search over b would make dozens."""
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_h(*args)

    monkeypatch.setattr(design, "solve_h", counting)
    for spec in (gk2016, exs, exy):
        calls.clear()
        commitment_solution(spec)
        assert len(calls) <= 10, len(calls)


@pytest.mark.parametrize("game", SLIVER_WINDOW_GAMES)
def test_sliver_top_windows_solve(game):
    """A top window of next to no mass is solved where its mean falls
    short of its cutoff by rounding, and the design is feasible and no
    better than the grid LP allows."""
    spec = GameSpec.from_obj(game)
    sol = commitment_solution(spec)
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
    assert sol.payoff <= lp_value(spec, 961) + 1e-9
    assert implementable(spec).commitment_payoff == sol.payoff
    preferred_ore(spec)


def test_solution_reaches_the_end_of_a_faint_tail():
    """The density is positive up to 1 but faint past 0.32, so inverting
    the cdf at 1 cancels and stops short; the design's regions run to the
    support end read off the knots."""
    spec = GameSpec.from_obj(SLIVER_WINDOW_GAMES[1])
    assert spec.prior.quantile(1.0) < 0.9997
    assert spec.prior.support_end == 1.0
    sol = commitment_solution(spec)
    assert max(seg.outer.hi for seg in sol.segments) == 1.0
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8


def _best_realized(spec):
    """The small-game solver's answer the long way: every candidate
    realized in full, and the best kept, ties resolved toward the
    earlier candidate."""
    best = None
    for _, segs in design._small_game_candidates(spec):
        sol = design._realize_segments(spec, design._place(spec, segs))
        if best is None or sol.payoff > best.payoff + TIE_MARGIN:
            best = sol
    return best


def _best_placed(spec):
    """The best candidate payoff ``_place`` gives, ties resolved toward
    the earlier candidate."""
    best = None
    for _, segs in design._small_game_candidates(spec):
        payoff = design._place(spec, segs)[0]
        if best is None or payoff > best + TIE_MARGIN:
            best = payoff
    return best


def test_small_game_solver_assembles_only_the_winner(monkeypatch):
    """Placing every candidate and realizing the best gives the same
    solution as realizing every candidate, builds one BiPoolingSolution
    per solve, and reports, bit for bit, the payoff the winner was
    ranked by."""
    rng = np.random.default_rng(31)
    specs = [
        GameSpec(prior, (0.0, float(rng.uniform(0.05, 0.95)), 1.0), (0.0, 1.0))
        for prior in [uniform_prior()] * 5 + [random_gapped_prior(rng) for _ in range(10)]
    ]
    for draw in (random_three_action, random_gapped_game, random_plinear_game):
        specs += [draw(rng) for _ in range(15)]
    built = []
    init = BiPoolingSolution.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BiPoolingSolution, "__init__", counting_init)
    realized = 0
    for spec in specs:
        built.clear()
        want = repr(_best_realized(spec))
        realized += len(built)
        built.clear()
        sol = commitment_solution(spec)
        assert repr(sol) == want
        assert len(built) == 1
        assert sol.payoff == _best_placed(spec)
    # the reference realizes 2.5 candidates per solve on these games
    assert realized > 2 * len(specs)


def test_placed_payoff_is_the_designs_payoff(monkeypatch):
    """Every small-game candidate placed on the prior's cdf and first
    moment pays, to 1e-13, what its realized design pays, read off the
    atoms and revealed union and off the cells, on 2-action games and
    seeded three-action games of all three families. Placing builds no
    IntervalUnion, splits no bi-pool and reaches find_root only through
    the trim's solve_h. A multi-piece outer is refused."""
    rng = np.random.default_rng(43)
    specs = [
        GameSpec(prior, (0.0, float(rng.uniform(0.05, 0.95)), 1.0), (0.0, 1.0))
        for prior in [uniform_prior()] * 10 + [random_gapped_prior(rng) for _ in range(30)]
    ]
    for draw in (random_three_action, random_gapped_game, random_plinear_game):
        specs += [draw(rng) for _ in range(60)]

    placing, in_solve_h, stray = [False], [0], []
    post_init, trusted = IntervalUnion.__post_init__, IntervalUnion._trusted

    def counting_post_init(self):
        if placing[0]:
            stray.append(("IntervalUnion", self.pieces))
        post_init(self)

    def counting_trusted(cls, pieces):
        if placing[0]:
            stray.append(("IntervalUnion", pieces))
        return trusted(pieces)

    def counting_solve_h(*args):
        in_solve_h[0] += 1
        try:
            return solve_h(*args)
        finally:
            in_solve_h[0] -= 1

    def counting_find_root(f, a, b):
        if placing[0] and not in_solve_h[0]:
            stray.append(("find_root", a, b))
        return find_root(f, a, b)

    def no_split(*args):
        if placing[0]:
            stray.append(("nested_interval_rep",))
        return representation.nested_interval_rep(*args)

    monkeypatch.setattr(IntervalUnion, "__post_init__", counting_post_init)
    monkeypatch.setattr(IntervalUnion, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(design, "solve_h", counting_solve_h)
    monkeypatch.setattr(design, "nested_interval_rep", no_split)
    for module in (prior_module, design, representation):
        monkeypatch.setattr(module, "find_root", counting_find_root)

    # hand-built structures that reach the rules few candidates do: a trim
    # that reveals a sliver and one that leaves nothing to pool, regions
    # past the support end, a bi-pool split and one with equal targets
    seg = design.Segment
    gk = GameSpec(uniform_prior(), (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0), (0.0, 1.0, 3.0))
    tail = GameSpec(
        plinear_prior((0.0, 0.5, 0.6, 1.0), (1, 1, 0, 0)), (0.0, 0.4, 1.0), (0.0, 1.0)
    )
    four = GameSpec(uniform_prior(), (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 2.0, 4.0))
    hand_built = [
        (gk, [seg(interval(0.0, 0.3), "revealed", ()),
              seg(interval(0.3, 0.8), "pooling", (2.0 / 3.0,)),
              seg(interval(0.8, 1.0), "revealed", ())]),
        (four, [seg(interval(0.0, 0.4999924), "revealed", ()),
                seg(interval(0.4999924, 0.5), "pooling", (0.5,)),
                seg(interval(0.5, 1.0), "revealed", ())]),
        (tail, [seg(interval(0.0, 0.3), "revealed", ()),
                seg(interval(0.3, 1.0), "pooling", (0.45,))]),
        (tail, [seg(interval(0.0, 0.2), "pooling", (0.1,)),
                seg(interval(0.2, 1.0), "revealed", ())]),
        (gk, [seg(interval(0.0, 0.2), "revealed", ()),
              seg(interval(0.2, 1.0), "bipooling", (1.0 / 3.0, 2.0 / 3.0))]),
        (gk, [seg(interval(0.0, 1.0), "bipooling", (0.5, 0.5))]),
    ]

    def gap(spec, segs):
        """How far the placed payoff lies from the built design's two, or
        None when the design cannot be built."""
        placing[0] = True
        try:
            placement = design._place(spec, segs)
        finally:
            placing[0] = False
        placed = placement[0]
        try:
            sol = design._realize_segments(spec, placement)
        except SolverError:  # a losing candidate whose split fails
            return None
        assert sol.payoff == placed
        return max(
            abs(placed - sol.distribution.expected_value(spec)),
            abs(placed - representation_payoff(spec, sol.canonical)),
        )

    kinds = set()
    worst = max(gap(spec, segs) for spec, segs in hand_built)
    for spec in specs:
        for name, segs in design._small_game_candidates(spec):
            found = gap(spec, segs)
            if found is not None:
                kinds.add(name)
                worst = max(worst, found)
    assert worst <= 1e-13
    assert stray == []
    assert kinds == {"full-pool", "top-pool", "two-pools", "skip-top", "nested"}

    spec = GameSpec(uniform_prior(), (0.0, 0.3, 0.6, 1.0), (0.0, 1.0, 2.0))
    split = IntervalUnion.of((0.0, 0.2), (0.5, 1.0))
    for kind, means in (
        ("revealed", ()), ("pooling", (0.6,)), ("bipooling", (0.3, 0.6))
    ):
        with pytest.raises(SpecError, match="not one interval"):
            design._place(spec, [design.Segment(split, kind, means)])


# Games on which a losing nested candidate's split fails, which made the
# whole solve raise before candidates were priced without it: ROADMAP
# item 7's six-knot game, and two near-tail games, density (1, 0, 0) on
# knots (0, k, 1) with the top cutoff just below k.
LOSING_SPLIT_FAILS = [
    ((0.0, 0.0874750885347554, 0.1508297010290126, 0.44795658052564113,
      0.9004299338156445, 1.0),
     (4.693389416646634, 10.420874840544451, 0.0, 0.0, 0.0, 0.17744196893432046),
     (0.0, 0.1049949123472867, 0.199543385713305, 1.0),
     (0.0, 1.0, 2.523719759450433)),
    ((0.0, 0.6406150249411314, 1.0), (1.0, 0.0, 0.0),
     (0.0, 0.21935701259227017, 0.6406141795693702, 1.0), (0.0, 1.0, 3.0)),
    ((0.0, 0.7912286680933565, 1.0), (1.0, 0.0, 0.0),
     (0.0, 0.7011627732547658, 0.7912234366529989, 1.0), (0.0, 1.0, 3.0)),
]


@pytest.mark.parametrize("knots, density, cutoffs, values", LOSING_SPLIT_FAILS)
def test_a_losing_candidates_failed_split_does_not_stop_the_solve(
    knots, density, cutoffs, values
):
    """The solve, implementability and the preferred equilibrium all
    return a feasible design. Its payoff is no more than 1e-9 below the
    cell solver's, which may itself fall short of the optimum."""
    spec = GameSpec(plinear_prior(knots, density), cutoffs, values)
    sol = commitment_solution(spec)
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= MPC_TOL
    assert sol.payoff >= _solve_cells(spec).payoff - 1e-9
    assert implementable(spec).commitment_payoff == sol.payoff
    preferred_ore(spec)


def test_no_root_finder_residual_builds_an_interval_union(
    gk2016, exs, exy, monkeypatch
):
    """Every residual the three solves and ore_at_payoff hand to
    find_root is written on the prior's cdf and first moment: none builds
    an IntervalUnion, whose normalisation would run at every root-finder
    step."""
    depth, built = [0], []
    post_init, trusted = IntervalUnion.__post_init__, IntervalUnion._trusted

    def counting_post_init(self):
        if depth[0]:
            built.append(self.pieces)
        post_init(self)

    def counting_trusted(cls, pieces):
        if depth[0]:
            built.append(pieces)
        return trusted(pieces)

    def counted(find_root):
        def wrapped(f, a, b, **kwargs):
            def residual(x):
                depth[0] += 1
                try:
                    return f(x)
                finally:
                    depth[0] -= 1

            return find_root(residual, a, b, **kwargs)

        return wrapped

    monkeypatch.setattr(IntervalUnion, "__post_init__", counting_post_init)
    monkeypatch.setattr(IntervalUnion, "_trusted", classmethod(counting_trusted))
    for module in (prior_module, design, equilibrium, representation):
        monkeypatch.setattr(module, "find_root", counted(module.find_root))
    rng = np.random.default_rng(11)
    for spec in [gk2016, exs, exy] + [random_gapped_game(rng) for _ in range(20)]:
        commitment_solution(spec)
        implementable(spec)
        low, high = unraveling_payoff(spec), preferred_ore(spec).payoff
        ore_at_payoff(spec, low + 0.4 * (high - low))
    assert built == []


def test_lp_value_close_to_structural(gk2016, exy):
    assert lp_value(gk2016, 481) == pytest.approx(100.0 / 48.0, abs=1e-3)
    assert lp_value(exy, 481) == pytest.approx(121.0 / 150.0, abs=1e-3)


def test_lp_grid_refinement_is_monotone(gk2016, exy):
    """The coarse atom grid nests inside the fine one while the
    dominance check points stay fixed, so refining can only help."""
    for spec in (gk2016, exy):
        assert lp_value(spec, 961) >= lp_value(spec, 481) - 1e-9


def test_four_action_full_pool_is_exact():
    """With the prior mean sitting on the top cutoff, pooling
    everything hits the maximum value, an exact upper bound."""
    spec = GameSpec(
        uniform_prior(), (0.0, 0.1, 0.2, 0.5, 1.0), (0.0, 1.0, 1.05, 1.1)
    )
    sol = commitment_solution(spec)
    assert sol.payoff == pytest.approx(1.1, abs=1e-9)
    assert len(sol.distribution.atoms) == 1
    loc, mass = sol.distribution.atoms[0]
    assert loc == pytest.approx(0.5, abs=1e-9)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_four_action_lp_cross_checks():
    spec = GameSpec(
        uniform_prior(), (0.0, 0.2, 0.45, 0.7, 1.0), (0.0, 0.3, 0.8, 1.4)
    )
    coarse = lp_value(spec, 481)
    fine = lp_value(spec, 961)
    assert fine >= coarse - 1e-9
    assert abs(fine - coarse) <= 1e-3
    sol = commitment_solution(spec)
    assert sol.payoff <= fine + 1e-6
    assert sol.payoff >= fine - 2e-4
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
    assert is_obedient(spec, sol.canonical).ok
    assert is_laminar(sol.canonical)


def test_four_action_plinear_prior_solution():
    prior = plinear_prior((0.0, 1.0), (0.5, 1.5))
    spec = GameSpec(
        prior, (0.0, 0.3, 0.55, 0.75, 1.0), (0.0, 0.6, 1.0, 1.2)
    )
    sol = commitment_solution(spec)
    assert sol.distribution.validate(prior) == []
    assert dominance_gap(prior, sol.distribution) <= 1e-8
    assert is_obedient(spec, sol.canonical).ok
    assert abs(lp_value(spec, 961) - sol.payoff) <= 2e-4


def test_lp_vs_structural_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = random_three_action(rng)
        exact = solve_three_action(spec).payoff
        assert abs(lp_value(spec, 961) - exact) <= 2e-3


def test_commitment_payoff_dispatch(gk2016):
    assert commitment_solution(gk2016).payoff == pytest.approx(
        solve_three_action(gk2016).payoff, abs=1e-12
    )
    spec = GameSpec(
        uniform_prior(), (0.0, 0.2, 0.45, 0.7, 1.0), (0.0, 0.3, 0.8, 1.4)
    )
    assert commitment_solution(spec).payoff == _solve_cells(spec).payoff


def test_tiny_grid_rejected(gk2016):
    with pytest.raises(SpecError):
        lp_value(gk2016, 11)


def test_structural_beats_all_single_pools(gk2016):
    """The optimum dominates every single-pool alternative, checked on
    a sweep of pool-everything-above-x distributions."""
    best = solve_three_action(gk2016).payoff
    prior = gk2016.prior
    for x in np.linspace(0.0, 0.95, 40):
        region = interval(float(x), 1.0)
        mass = prior.mass(region)
        if mass <= 1e-9:
            continue
        pooled = MeanDistribution(
            ((prior.partial_mean(region), mass),),
            revealed=interval(0.0, float(x)),
        )
        assert pooled.expected_value(gk2016) <= best + 1e-9


def test_fault_game_pays_its_closed_form():
    """Pool [0, 0.62] at 0.31 and bi-pool [0.62, 1] at the two top
    cutoffs; the grid LP's segment recovery used to fail here."""
    spec = GameSpec(
        uniform_prior(), (0.0, 0.25, 0.78, 0.94, 1.0), (0.0, 1.3, 2.6, 3.9)
    )
    sol = commitment_solution(spec)
    assert sol.payoff == pytest.approx(1.886625, abs=1e-9)
    assert [s.kind for s in sol.segments] == ["pooling", "bipooling"]
    assert sol.segments[0].outer.hi == pytest.approx(0.62, abs=1e-5)
    assert sol.segments[1].means == (0.78, 0.94)
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8


def test_seller_example_cells_land_on_closed_forms():
    """The README seller game pools [0, 1/2], [1/2, 1/sqrt 2],
    [1/sqrt 2, sqrt 3/2] and [sqrt 3/2, 1] exactly at their cutoffs."""
    spec = seller_to_game(
        SellerModel(utility={"kind": "crra", "sigma": 0.5}, price=0.25)
    )
    sol = commitment_solution(spec)
    want = (7.0 - np.sqrt(2.0) - np.sqrt(3.0)) / 8.0
    assert sol.payoff == pytest.approx(want, abs=1e-11)
    ends = [s.outer.hi for s in sol.segments]
    assert_allclose(ends, [0.5, 1 / np.sqrt(2.0), np.sqrt(3.0) / 2.0, 1.0], atol=1e-10)


def test_implementable_agrees_with_incentive_compatibility():
    """A pinned game whose commitment outcome is not an equilibrium; a
    revealed sliver inside a skipped action's cell made the LP route
    answer true here."""
    prior = plinear_prior((0.0, 0.546, 1.0), (0.748, 0.971, 1.368))
    spec = GameSpec(
        prior,
        (0.0, 0.12, 0.386, 0.654, 0.771, 0.854, 1.0),
        (0.0, 0.89, 1.69, 2.25, 3.21, 4.16),
    )
    report = implementable(spec)
    assert not is_incentive_compatible(spec, report.canonical).ok
    assert not report.implementable


@pytest.mark.parametrize(
    "knots, density, cutoffs, values",
    [
        ((0.0, 0.283, 0.529, 0.556, 0.728, 1.0), (7.07, 0, 0, 0, 0, 0),
         (0.0, 0.63, 0.9, 1.0), (0.0, 1.0, 1.83)),
        ((0.0, 0.5, 0.6, 1.0), (1, 1, 0, 0), (0.0, 0.7, 1.0), (0.0, 1.0)),
    ],
)
def test_no_prior_mass_above_the_cutoffs(knots, density, cutoffs, values):
    """No posterior mean can reach a cutoff above the prior's support,
    so the sender gets nothing and nothing is pooled away; the empty top
    tail used to raise."""
    spec = GameSpec(plinear_prior(knots, density), cutoffs, values)
    assert commitment_solution(spec).payoff == pytest.approx(0.0, abs=1e-12)
    report = implementable(spec)
    assert report.commitment_payoff == pytest.approx(0.0, abs=1e-12)
    assert report.implementable
    assert is_incentive_compatible(spec, report.canonical).ok


def test_three_actions_with_an_empty_top_tail():
    spec = GameSpec(
        plinear_prior((0.0, 0.5, 0.6, 1.0), (1, 1, 0, 0)),
        (0.0, 0.3, 0.8, 1.0),
        (0.0, 1.0, 2.0),
    )
    sol = commitment_solution(spec)
    assert sol.payoff == pytest.approx(lp_value(spec, 961), abs=1e-6)
    assert sol.distribution.validate(spec.prior) == []
    assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
    # the top pool stops at 0.6, where the prior's mass does, so it does
    # not reach past the unreached cutoff 0.8
    assert sol.canonical.cells[1].hi == pytest.approx(0.6, abs=1e-12)
    assert implementable(spec).implementable


def test_trim_reveals_a_sliver_with_nothing_left_to_pool():
    """A pooled sliver whose mean falls just below its cutoff leaves an
    empty upper window at that cutoff; the trim reveals the sliver
    instead of pooling no mass, which used to raise ZeroMassError."""
    spec = GameSpec(
        uniform_prior(), (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 2.0, 4.0)
    )
    segments = [
        design.Segment(interval(0.0, 0.4999924), "revealed", ()),
        design.Segment(interval(0.4999924, 0.5), "pooling", (0.5,)),
        design.Segment(interval(0.5, 1.0), "revealed", ()),
    ]
    dist = design._realize_segments(spec, design._place(spec, segments)).distribution
    assert dist.validate(spec.prior) == []
    assert dominance_gap(spec.prior, dist) <= 1e-8
    assert dist.atoms == ()
    assert dist.revealed.pieces == ((0.0, 1.0),)


def test_many_action_games_match_the_lp_oracle():
    """Seeded 4-6 action games: the exact solver never fails, lands
    within the grid LP's discretisation error of its value, and emits
    feasible, obedient, laminar designs whose Prop 2 verdict is the
    incentive-compatibility verdict."""
    rng = np.random.default_rng(2021)
    for _ in range(12):
        spec = random_many_action(rng)
        sol = commitment_solution(spec)
        lp = lp_value(spec, 961)
        assert lp - 2e-6 <= sol.payoff <= lp + 1e-6
        assert sol.distribution.validate(spec.prior) == []
        assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
        assert is_obedient(spec, sol.canonical).ok
        assert is_laminar(sol.canonical)
        assert (
            check_prop2(spec, sol.canonical).ok
            == is_incentive_compatible(spec, sol.canonical).ok
        )


def test_cell_solver_matches_the_closed_forms():
    """The one-atom-per-cell program against the independent two- and
    three-action closed forms, on uniform and plinear priors."""
    rng = np.random.default_rng(23)
    priors = (uniform_prior(), plinear_prior((0.0, 0.3, 1.0), (1.4, 0.3, 1.1)))
    for _ in range(6):
        base = random_three_action(rng)
        g1, v1 = base.cutoffs[1], base.values[1]
        for prior in priors:
            three = GameSpec(prior, base.cutoffs, base.values)
            two = GameSpec(prior, (0.0, g1, 1.0), (0.0, v1))
            assert _solve_cells(three).payoff == pytest.approx(
                solve_three_action(three).payoff, abs=1e-8
            )
            assert _solve_cells(two).payoff == pytest.approx(
                solve_two_action(two).payoff, abs=1e-8
            )


def test_cell_solver_on_payoff_ties():
    """Values linear in the cutoffs make many designs optimal, and the LP
    optimum is then degenerate. The solver must still land on a design
    that realizes: a vertex picked by rounding noise can leave slivers
    of mass at the cutoffs whose pools do not realize. Here atoms at 0,
    0.25 and 0.5 pay as much as one pool at 0.25 between them."""
    spec = GameSpec(
        uniform_prior(), (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 2.0, 4.0)
    )
    sol = _solve_cells(spec)
    assert sol.payoff == pytest.approx(2.5, abs=1e-12)
    assert atom_locations(sol.distribution) == [0.25, 0.75]
    rng = np.random.default_rng(99)
    for _ in range(12):
        n = int(rng.integers(4, 7))
        cuts = np.sort(rng.choice(np.arange(1, 20), size=n - 1, replace=False)) / 20
        slope = rng.uniform(1.0, 6.0)
        # a value on the line slope * cutoff, or a step above the last
        values = [0.0]
        for c in cuts.tolist():
            linear = rng.uniform() < 0.6 and slope * c > values[-1]
            values.append(slope * c if linear else values[-1] + rng.uniform(0.1, 1.5))
        spec = GameSpec(uniform_prior(), (0.0, *cuts.tolist(), 1.0), tuple(values))
        sol = _solve_cells(spec)
        assert sol.distribution.validate(spec.prior) == []
        assert dominance_gap(spec.prior, sol.distribution) <= 1e-8
        lp = lp_value(spec, 961)
        assert lp - 2e-6 <= sol.payoff <= lp + 1e-6


def _tangent_rows(n, slope, bound):
    """The n - 1 rows slope P_k - Q_k <= bound that a tangent stands for."""
    rows = []
    for k in range(1, n):
        rest = [0.0] * (n - k)
        rows.append([slope] * k + rest + [-1.0] * k + rest)
    return rows, [bound] * (n - 1)


def _cell_lp(rng):
    """A seeded LP shaped like the cell LP of ``_solve_cells``: n = 4-6
    atoms (p, q), total mass and mean pairs, cutoff rows, and tangents
    (slope, bound) at 4-20 random points of the prior's Lorenz curve."""
    spec = random_many_action(rng)
    prior, n, g = spec.prior, spec.n_actions, spec.cutoffs
    ones, zeros = [1.0] * n, [0.0] * n
    rows, bounds = [], []
    for row, bound in ((ones + zeros, 1.0), (zeros + ones, prior.mean)):
        rows += [row, [-a for a in row]]
        bounds += [bound, -bound]
    for i in range(n):
        unit = [float(j == i) for j in range(n)]
        rows += [[g[i] * u for u in unit] + [-u for u in unit],
                 [-g[i + 1] * u for u in unit] + unit]
        bounds += [0.0, 0.0]
    tangents = []
    for s in rng.uniform(0.0, 1.0, size=int(rng.integers(4, 21))).tolist():
        x = prior.quantile(s)
        tangents.append((x, x * s - prior.first_moment(x)))
    return list(spec.values) + zeros, rows, bounds, tangents


def _assert_matches_highs(objective, rows, bounds, x):
    """x is feasible within LP_TOL and as good as HiGHS within 1e-9, at
    HiGHS's feasibility tolerances of LP_TOL: at its defaults of 1e-7 it
    gains up to 5e-7 on these LPs by missing constraints."""
    res = linprog([-c for c in objective], A_ub=rows, b_ub=bounds,
                  bounds=(0.0, None), method="highs", options=design._LP_OPTS)
    assert res.success
    assert min(x) >= -LP_TOL
    assert max(np.dot(rows, x) - bounds) <= LP_TOL
    assert np.dot(objective, x) == pytest.approx(-res.fun, abs=1e-9)


def test_dual_simplex_matches_highs_on_cell_shaped_lps():
    """Seeded LPs shaped like the cell LP, solved cold in one go and warm
    from the optimum of half of their rows, with tangents added through
    ``add_tangent``. The warm solve takes rows and tangents in a shuffled
    order, so that dense rows also come after tangents."""
    rng, shuffle = np.random.default_rng(31), np.random.default_rng(32)
    for _ in range(40):
        objective, rows, bounds, tangents = _cell_lp(rng)
        n = len(objective) // 2
        # (method, its arguments, the rows and bounds they stand for)
        items = [("add", (row, b), [row], [b]) for row, b in zip(rows[1:], bounds[1:])]
        items += [("add_tangent", t, *_tangent_rows(n, *t)) for t in tangents]
        cold = _DualSimplex(objective, rows[0], bounds[0])
        warm = _DualSimplex(objective, rows[0], bounds[0])
        for method, args, _, _ in items:
            getattr(cold, method)(*args)
        seen_rows, seen_bounds = rows[:1], bounds[:1]
        order = shuffle.permutation(len(items)).tolist()
        for step, i in enumerate(order):
            if step == len(items) // 2:
                _assert_matches_highs(objective, seen_rows, seen_bounds, warm.solve())
            method, args, more_rows, more_bounds = items[i]
            getattr(warm, method)(*args)
            seen_rows, seen_bounds = seen_rows + more_rows, seen_bounds + more_bounds
        _assert_matches_highs(objective, seen_rows, seen_bounds, cold.solve())
        _assert_matches_highs(objective, seen_rows, seen_bounds, warm.solve())


def test_dual_simplex_matches_highs_on_the_cut_loops_lps(monkeypatch):
    """Every LP that the cut loop solves on seeded 4-6 action games,
    on plain and on gapped priors, each warm-started from the last."""
    seen = []

    class Recording(_DualSimplex):
        def solve(self):
            x = super().solve()
            seen.append((self.objective, self.cols[self.m:],
                         self.bounds[self.m:], x))
            return x

    monkeypatch.setattr(design, "_DualSimplex", Recording)
    for family, seed in ((random_many_action, 41), (random_gapped_many_action, 42)):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            _solve_cells(family(rng))
    assert len(seen) > 40
    for objective, rows, bounds, x in seen:
        _assert_matches_highs(objective, rows, bounds, x)


def test_tangent_pricing_gives_the_dense_answer(monkeypatch):
    """The cell solver with its tangents priced from running sums and
    with the same rows added and priced as dense rows: both designs are
    feasible and pay the same within 1e-9."""
    games = []
    for family, seed in ((random_many_action, 43), (random_gapped_many_action, 44)):
        rng = np.random.default_rng(seed)
        games += [family(rng) for _ in range(15)]
    by_tangent = [_solve_cells(spec) for spec in games]

    class Dense(_DualSimplex):
        def add_tangent(self, slope, bound):
            for row, b in zip(*_tangent_rows(self.m // 2, slope, bound)):
                self.add(row, b)

    monkeypatch.setattr(design, "_DualSimplex", Dense)
    for spec, tangent in zip(games, by_tangent):
        dense = _solve_cells(spec)
        assert dense.payoff == pytest.approx(tangent.payoff, abs=1e-9)
        for sol in (tangent, dense):
            assert sol.distribution.validate(spec.prior) == []
            assert dominance_gap(spec.prior, sol.distribution) <= 1e-8


def test_the_cut_loop_takes_one_lorenz_value_per_point(monkeypatch):
    """A cost guard that needs no clock: the cut loop evaluates the
    prior's first moment once per tangent point and once per slack it
    checks, so a tangent does not cost one Lorenz value per row."""
    spec = random_many_action(np.random.default_rng(4))
    n = spec.n_actions
    calls, counts, placed = [0], {"tangents": 0, "rounds": 0}, []
    first_moment, place = prior_module.Prior.first_moment, design._place

    def counting(self, x):
        calls[0] += 1
        return first_moment(self, x)

    def placing(*args):
        placed.append(calls[0])
        return place(*args)

    class Counting(_DualSimplex):
        def add_tangent(self, slope, bound):
            counts["tangents"] += 1
            super().add_tangent(slope, bound)

        def solve(self):
            counts["rounds"] += 1
            return super().solve()

    monkeypatch.setattr(prior_module.Prior, "first_moment", counting)
    monkeypatch.setattr(design, "_place", placing)
    monkeypatch.setattr(design, "_DualSimplex", Counting)
    _solve_cells(spec)
    assert n == 6 and counts["rounds"] >= 3
    assert placed[0] <= counts["tangents"] + (n - 1) * counts["rounds"], (
        placed[0], counts)


def test_dual_simplex_starts_dual_feasible():
    """The first row of a cell-shaped LP, sum p <= 1, prices every
    objective entry: the fresh basis has no negative value."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        objective, rows, bounds, _ = _cell_lp(rng)
        assert min(_DualSimplex(objective, rows[0], bounds[0]).x_b) >= 0.0


def test_dual_simplex_failures_are_typed(monkeypatch):
    # x >= 1 and x <= 0: the dual is unbounded
    lp = _DualSimplex([0.0], [1.0], 0.0)
    lp.add([-1.0], -1.0)
    with pytest.raises(SolverError, match="LP is infeasible"):
        lp.solve()
    # max x_1 subject to x_1 - x_2 <= 1: the row prices x_2 below zero
    with pytest.raises(SolverError, match="LP start row does not price"):
        _DualSimplex([1.0, 0.0], [1.0, -1.0], 1.0)
    # max x_1 + 2 x_2 subject to x_1 + x_2 <= 10, x_1 <= 1 and x_2 <= 1
    # takes two pivots: both start columns leave the basis
    monkeypatch.setattr(design, "PIVOT_CAP", 1)
    lp = _DualSimplex([1.0, 2.0], [1.0, 1.0], 10.0)
    lp.add([1.0, 0.0], 1.0)
    lp.add([0.0, 1.0], 1.0)
    with pytest.raises(SolverError, match="cap of 1 pivots"):
        lp.solve()
    monkeypatch.setattr(design, "PIVOT_CAP", 2)
    assert lp.solve() == [1.0, 1.0]
