"""Commitment-optimal information design.

The sender's commitment problem is linear in the distribution over
posterior means, with feasibility exactly the mean-preserving
contractions of the prior. Optimal solutions partition the state space
into segments that are either revealed or pooled, where a pooled
segment carries one posterior mean and a bi-pooled segment carries
two. For two and three actions this module enumerates the candidate
structures in closed form, places each on the prior's cdf and first
moment, with no interval union built and no bi-pool split, and builds
the cells of the best one only, from the same placement. For larger
games it solves for one atom per action cell under the prior's
Lorenz-curve constraints, and reads the segments off the binding ones,
with a small dense simplex of its own.
A grid LP (``lp_value``) stays as the oracle the exact solvers are
checked against.

Only that oracle needs numpy and scipy, and it imports them where it
runs: every solve, whatever its number of actions, runs on the standard
library alone, and importing this module loads neither.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Optional

from .game import (
    GameSpec,
    MeanDistribution,
    action_at,
    value_at,
)
from .prior import (
    CHECK_POINTS,
    LP_TOL,
    MEAN_GUARD,
    NEGLIGIBLE,
    NO_MEAN_MASS,
    PIVOT_CAP,
    PIVOT_TOL,
    SNAP_TOL,
    TIE_MARGIN,
    IntervalUnion,
    Prior,
    Record,
    SolverError,
    SpecError,
    find_root,
    interval,
    merge_pieces,
    solve_h,
)
from .representation import DeterministicRepresentation, nested_interval_rep

if TYPE_CHECKING:
    import numpy as np


def _snap_to_cutoff(spec: GameSpec, mean: float) -> float:
    """A mean within SNAP_TOL of an interior cutoff, moved onto it: one
    ulp below would flip the receiver to the lower action."""
    return next((c for c in spec.cutoffs[1:-1] if abs(c - mean) <= SNAP_TOL), mean)


def _snap_loc(spec: GameSpec, mean: float, target: float) -> float:
    """Atom location for a pooled mean, absorbing root-finder dust."""
    if abs(mean - target) <= SNAP_TOL:
        return target
    return _snap_to_cutoff(spec, mean)


class Segment(Record):
    """One maximal interval of the optimal partition."""

    __slots__ = _fields = ("outer", "kind", "means")

    def __init__(
        self, outer: IntervalUnion, kind: str, means: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "kind", kind)  # "revealed" | "pooling" | "bipooling"
        object.__setattr__(self, "means", means)


class BiPoolingSolution(Record):
    __slots__ = _fields = ("distribution", "segments", "canonical")

    def __init__(
        self,
        distribution: MeanDistribution,
        segments: tuple[Segment, ...],
        canonical: DeterministicRepresentation,
    ) -> None:
        object.__setattr__(self, "distribution", distribution)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "canonical", canonical)

    @property
    def payoff(self) -> float:
        return self.distribution.payoff


def _place(spec: GameSpec, segments: list[Segment]) -> tuple[float, list, list]:
    """Place a segment structure on the prior, on floats alone.

    Returns the payoff, the revealed pieces of each action's cell, and
    the placed segments as (kind, lo, hi, means) records. Regions stop
    at the support end, where the prior's mass does, so no cell reaches
    through an empty tail past a cutoff its states never cross, and a
    region of NEGLIGIBLE mass is dropped. A pooled segment's mean is
    recomputed from the prior. When it falls below the cutoff of the
    action its annotated mean induces, the segment is trimmed: the left
    sliver is revealed and the rest pooled to exactly that cutoff, as
    two records, or all of it revealed when no mass is left to pool
    there. A bi-pool's two masses come from the barycenter identity
    mass(inner) = mass(outer) (z_hi - m) / (z_hi - z_lo), with
    ``nested_interval_rep``'s early returns, so no split is searched for
    and a split that would fail is placed all the same: only the
    structure that wins can raise. The revealed pieces are merged as
    IntervalUnion merges them, then cut at the cutoffs.

    It builds no IntervalUnion, and calls ``find_root`` only through the
    trim's ``solve_h``. Every segment's outer must be one interval.
    """
    prior = spec.prior
    F, M = prior.cdf, prior.first_moment
    end = prior.support_end
    atoms: list[tuple[float, float]] = []
    placed: list[tuple] = []

    for seg in sorted(segments, key=lambda s: s.outer.lo):
        if len(seg.outer.pieces) != 1:
            raise SpecError(f"segment {seg.outer.pieces!r} is not one interval")
        lo, hi = seg.outer.pieces[0]
        hi = min(hi, end)
        mass = F(hi) - F(lo)
        if mass <= NEGLIGIBLE:
            continue
        if seg.kind == "revealed":
            placed.append(("revealed", lo, hi, ()))
        elif seg.kind == "pooling":
            target = seg.means[0]
            want = action_at(spec, target)
            loc = _snap_loc(spec, (M(hi) - M(lo)) / mass, target)
            if action_at(spec, loc) < want:
                # The region is one interval with mean below cut, so the
                # upper window with mean cut starts inside it. Where the
                # window's mean falls short by rounding, its start lands
                # below lo and is clamped there.
                cut = spec.cutoffs[want]
                x = max(solve_h(prior, cut, hi), lo)
                mass = F(hi) - F(x)
                if mass <= NEGLIGIBLE:
                    placed.append(("revealed", lo, hi, ()))
                    continue
                if F(x) - F(lo) > NEGLIGIBLE:
                    placed.append(("revealed", lo, x, ()))
                loc = _snap_loc(spec, (M(hi) - M(x)) / mass, cut)
                lo = x
            atoms.append((loc, mass))
            placed.append(("pooling", lo, hi, (loc,)))
        elif seg.kind == "bipooling":
            z_lo, z_hi = seg.means
            inner = mass
            if z_hi - z_lo > MEAN_GUARD:
                m = (M(hi) - M(lo)) / mass
                inner = min(max(mass * (z_hi - m) / (z_hi - z_lo), 0.0), mass)
                if inner >= mass - NO_MEAN_MASS:
                    inner = mass
                elif inner <= NO_MEAN_MASS:
                    inner = 0.0
            for loc, part in ((z_lo, inner), (z_hi, mass - inner)):
                if part > NEGLIGIBLE:
                    atoms.append((loc, part))
            placed.append(("bipooling", lo, hi, (z_lo, z_hi)))
        else:
            raise SpecError(f"unknown segment kind {seg.kind!r}")

    merged = merge_pieces((lo, hi) for kind, lo, hi, _ in placed if kind == "revealed")
    atoms.sort()
    payoff = sum(p * value_at(spec, x) for x, p in atoms)
    seen = []
    for v, c, d in zip(spec.values, spec.cutoffs, spec.cutoffs[1:]):
        cell = [(max(a, c), min(b, d)) for a, b in merged if max(a, c) <= min(b, d)]
        payoff += v * sum(F(b) - F(a) for a, b in cell)
        seen.append(cell)
    return payoff, seen, placed


def _realize_segments(
    spec: GameSpec, placement: tuple[float, list, list]
) -> BiPoolingSolution:
    """Build the design of a ``_place`` result: its cells, atoms and
    segments.

    Every output is recomputed from the prior itself, so the returned
    distribution is a mean-preserving contraction regardless of how
    approximate the incoming segment annotations were. ``_place``
    applies every placement rule; this adds only what a built design
    needs: each bi-pool split by ``nested_interval_rep``, whose parts
    give its two atoms their masses, the revealed union, each cell
    built once from its pieces, and the pool threshold. Those pieces
    lie in [0, 1] already, as ``_place`` and the split leave them, so
    the unions are merged and built trusted. The payoff is ``_place``'s,
    the one the small-game solver ranks candidates by.
    """
    prior = spec.prior
    payoff, seen, placed = placement
    pooled: list[list[tuple[float, float]]] = [[] for _ in spec.values]
    atoms: list[tuple[float, float]] = []
    out = tuple(Segment(interval(lo, hi), kind, means) for kind, lo, hi, means in placed)
    for seg in out:
        parts = (seg.outer,)
        if seg.kind == "bipooling":
            parts = nested_interval_rep(prior, seg.outer, *seg.means)
        # a revealed segment has no means and so no atom; a split part
        # is kept on its own mass, not on _place's barycenter mass
        for part, loc in zip(parts, seg.means):
            mass = prior.mass(part)
            if mass > NEGLIGIBLE:
                atoms.append((loc, mass))
                pooled[action_at(spec, loc)].extend(part.pieces)

    atoms.sort()
    cells = []
    for i, pieces in enumerate(seen):
        cell = IntervalUnion._trusted(merge_pieces((*pooled[i], *pieces)))
        if prior.mass(cell) <= NEGLIGIBLE and cell.length <= NEGLIGIBLE:
            cell = interval(spec.cutoffs[i], spec.cutoffs[i])
        cells.append(cell)

    cutoff_atoms = [
        x
        for x, _ in atoms
        if any(abs(x - c) <= SNAP_TOL for c in spec.cutoffs[1:-1])
    ]
    threshold = min(cutoff_atoms) if cutoff_atoms and len(cutoff_atoms) < len(atoms) else None

    revealed = IntervalUnion._trusted(merge_pieces(p for cell in seen for p in cell))
    dist = MeanDistribution(
        tuple(atoms), revealed=revealed, payoff=payoff, pool_threshold=threshold
    )
    return BiPoolingSolution(dist, out, DeterministicRepresentation(tuple(cells)))


def _top_pool(prior: Prior, g: float) -> tuple[float, list[Segment]]:
    """Reveal the bottom and pool the top to exactly the cutoff g: the
    window [x, 1] with mean g, and its lower end x."""
    x = solve_h(prior, g, 1.0)
    return x, [
        Segment(interval(0.0, x), "revealed", ()),
        Segment(interval(x, 1.0), "pooling", (g,)),
    ]


def _small_game_candidates(spec: GameSpec):
    """Candidate segment structures for two and three actions.

    Yields (name, segments) in order of structural simplicity; the
    caller keeps the best payoff with ties resolved toward the earlier
    candidate. "top-pool" pools to the top action's cutoff; a
    three-action game adds "two-pools", "skip-top" (the top pool at g1)
    and "nested".
    """
    prior = spec.prior
    g1, g_top = spec.cutoffs[1], spec.cutoffs[-2]
    mu = prior.mean

    yield "full-pool", [Segment(interval(0.0, 1.0), "pooling", (mu,))]

    x_hi = None
    if mu <= g_top:
        x_hi, top = _top_pool(prior, g_top)
        if x_hi > NEGLIGIBLE:
            yield "top-pool", top
            low = top[0].outer
            if spec.n_actions == 3 and prior.partial_mean(low) >= g1:
                yield "two-pools", [
                    Segment(low, "pooling", (prior.partial_mean(low),)),
                    top[1],
                ]
    if spec.n_actions == 2:
        return

    if mu <= g1:
        x_lo, skip = _top_pool(prior, g1)
        if x_lo > NEGLIGIBLE:
            yield "skip-top", skip

    y = _best_nested(spec, x_hi)
    if y is not None:
        segs = []
        if prior.cdf(y) > NEGLIGIBLE:
            segs.append(Segment(interval(0.0, y), "pooling",
                                (prior.partial_mean(interval(0.0, y)),)))
        segs.append(Segment(interval(y, 1.0), "bipooling", (g1, g_top)))
        yield "nested", segs


_Y_BELOW_0 = "y below 0"


def _nested_y(spec: GameSpec, b: float) -> tuple[float, float] | str:
    """(h, y) of the nested structure at its free endpoint b, or the name
    of the condition b fails: [h, b] has mean g1, [y, h] + [b, 1] mean g2.
    At b = g2 it is the preferred equilibrium."""
    prior = spec.prior
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    if prior.window_mean(0.0, b, b) > g1 + MEAN_GUARD:
        return "mean of [0, b] above g1"
    h = solve_h(prior, g1, b)
    FM = prior._cdf_moment
    Fh, Mh = FM(h)
    # the top cell [y, h] + [b, 1] loses mass as y grows, down to that of
    # [b, 1] at y = h, so its guard bounds every denominator of y_res
    (F1, M1), (Fb, Mb) = FM(1.0), FM(b)
    top_f, top_m = F1 - Fb, M1 - Mb
    if top_f <= MEAN_GUARD:
        return "no mass in [b, 1]"

    def y_res(y: float) -> float:
        Fy, My = FM(y)
        return ((Mh - My) + top_m) / ((Fh - Fy) + top_f) - g2

    r0 = y_res(0.0)
    if r0 > MEAN_GUARD:
        return _Y_BELOW_0
    rh = y_res(h)
    if rh < -MEAN_GUARD:
        return "y above h"
    if r0 >= 0.0:
        return h, 0.0
    if rh <= 0.0:
        return h, h
    return h, find_root(y_res, 0.0, h)


def _best_nested(spec: GameSpec, x_hi: Optional[float]) -> Optional[float]:
    """Best nested structure: [h, b] pooled at the lower cutoff g1,
    [y, h] + [b, 1] at the upper cutoff g2 and [0, y] below both, with
    h and y fixed by the free endpoint b through two mean equations.

    As b grows, h falls and the pool [h, b] gains mass, so y falls.
    Every feasibility condition is monotone in b, so the feasible b form
    one interval [b_lo, b_hi]. Differentiating the mean equations gives
    a payoff slope of

        f(b) (b - h) / (g1 - h) * (v1 - v2 + v2 (g2 - g1) / (g2 - y)),

    so the payoff rises while y > y* = g2 - v2 (g2 - g1) / (v2 - v1)
    and falls once y < y*. The optimum is y* clipped to the range of y,
    for every prior, zero-density stretches included.

    The range of y ends at y(b_hi), where b_hi is the first of three
    ends: b_cap, where the mean of [0, b] reaches g1; where [b, 1] runs
    out of mass, read off ``Prior.quantile``; and where y reaches 0.
    r0 = mean([0, h] + [b, 1]) - g2 only grows once positive, and y = 0
    while it lies in [0, MEAN_GUARD], so when r0 is past MEAN_GUARD at
    the lesser of the first two ends, y has reached 0 before it: one
    solve there settles the end, with no search.

    Returns the optimum's y, or None when no b is feasible or the optimum
    is b = g1: [h, b] is then the point g1, a top-pool that pays the same.
    """
    prior = spec.prior
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    v1, v2 = spec.values[1], spec.values[2]
    if x_hi is None or prior.mean > g2:
        return None
    if prior.mean > g1:
        b_cap = find_root(lambda b: prior.window_mean(0.0, b, b) - g1, g1, 1.0)
    else:
        b_cap = 1.0
    b_lo = max(g1, x_hi)
    if b_cap <= b_lo + NEGLIGIBLE:
        return None

    lo_end = _nested_y(spec, b_lo)
    if isinstance(lo_end, str):
        return None
    y_lo = lo_end[1]
    y_star = g2 - v2 * (g2 - g1) / (v2 - v1)
    if y_star >= y_lo:
        return None if b_lo == g1 else y_lo

    # at twice the guard, so the quantile's rounding keeps [b, 1] above it
    b_mass = prior.quantile(prior.cdf(1.0) - 2.0 * MEAN_GUARD)
    b_hi = max(b_lo, min(b_cap, b_mass))
    hi_end = _nested_y(spec, b_hi)
    if hi_end == _Y_BELOW_0:
        return max(y_star, 0.0)
    if isinstance(hi_end, str):
        raise SolverError(f"nested range end b={b_hi!r} fails: {hi_end}")
    return max(y_star, hi_end[1])


def _solve_small_game(spec: GameSpec, n_actions: int) -> BiPoolingSolution:
    """Exact commitment optimum for two or three actions. Each candidate
    is placed by ``_place``, and only the best, ties resolved toward the
    earlier one, is realized from the placement it was ranked by."""
    if spec.n_actions != n_actions:
        raise SpecError(f"this solver needs exactly {n_actions} actions")
    best: Optional[tuple[float, list, list]] = None
    for _, segs in _small_game_candidates(spec):
        placement = _place(spec, segs)
        if best is None or placement[0] > best[0] + TIE_MARGIN:
            best = placement
    assert best is not None
    return _realize_segments(spec, best)


def solve_two_action(spec: GameSpec) -> BiPoolingSolution:
    """Exact commitment optimum for two actions."""
    return _solve_small_game(spec, 2)


def solve_three_action(spec: GameSpec) -> BiPoolingSolution:
    """Exact commitment optimum for three actions."""
    return _solve_small_game(spec, 3)


# Round cap of the cutting-plane loop. _DualSimplex meets every cut to
# within rounding, so the Lorenz violations a round leaves are the cuts'
# own, and each round shrinks them.
_CUT_ROUNDS = 50


class _DualSimplex:
    """Maximise objective . x over x >= 0 under rows row . x <= bound,
    by the primal simplex on the dual

        minimise sum_j bound_j y_j over y >= 0,  sum_j y_j row_j >= objective.

    The dual has one constraint per primal variable and one column per
    primal row, so rows added after a solve are new dual columns: the
    basis stays feasible and the next solve starts from the last
    optimum. Column i < m is the surplus -e_i of dual constraint i, and
    its reduced cost is x_i; column m + j is primal row j, and its
    reduced cost is that row's slack bound_j - row_j . x. The basis
    inverse is dense and updated at each pivot. An optimum is accepted
    on an inverse fewer than m updates old, an unbounded ray only on one
    refactored from the basis.

    Rows come in two kinds, and pricing keeps them in column order. A
    row given to ``add`` is priced by its dot product with x. A tangent
    given to ``add_tangent`` stands for the n - 1 rows
    slope P_k - Q_k <= bound on an x = (p, q) of 2n entries, where P_k
    and Q_k are the sums of the first k entries of p and of q; those
    sums are taken once per pricing pass, so a tangent is priced in
    O(n), not O(n^2). Its rows are kept dense too, for the refactor and
    the entering column.

    The constructor takes the first row and prices it at
    y = max objective_i / row_i over row_i > 0. The start basis holds
    that row's column where the maximum is reached and the surplus
    column of every other dual constraint, at y row_i - objective_i. A
    row with no positive entry, or a start that is not dual feasible
    (y < 0 or some y row_i below objective_i), raises SolverError. On
    the cell LP the row is sum p <= 1 and y the top value.

    The entering column is the one of least reduced cost (Dantzig), the
    leaving row the one of largest pivot among those that tie for the
    least step within LP_TOL (Harris). A game with payoff ties has a
    degenerate optimum, where an exact least step would let rounding
    noise pick the leaving row and so the design; the tolerance lets
    the pivot size pick instead.
    """

    def __init__(
        self, objective: list[float], row: list[float], bound: float
    ) -> None:
        m = self.m = len(objective)
        self.objective = list(objective)
        self.cols = [[-float(r == i) for r in range(m)] for i in range(m)]
        self.bounds = [0.0] * m
        # what prices the primal rows, in column order: (row, 0, bound)
        # for a row, (None, slope, bound) for a tangent's n - 1 rows
        self.pricing: list[tuple[Optional[list[float]], float, float]] = []
        self.add(row, bound)
        ratio = {i: c / a for i, (a, c) in enumerate(zip(row, objective)) if a > 0.0}
        top = max(ratio, key=ratio.get, default=None)
        if top is None or ratio[top] < 0.0 or any(
            ratio[top] * a < c - LP_TOL for a, c in zip(row, objective)
        ):
            raise SolverError(
                "LP start row does not price the objective: "
                "y = max objective_i / row_i over row_i > 0 must be >= 0 "
                "and meet y * row_i >= objective_i for every i"
            )
        self.basis = [m if i == top else i for i in range(m)]
        self._refactor()

    def add(self, row: list[float], bound: float) -> None:
        self.cols.append(row)
        self.bounds.append(bound)
        self.pricing.append((row, 0.0, bound))

    def add_tangent(self, slope: float, bound: float) -> None:
        """The rows slope P_k - Q_k <= bound, for k = 1..n - 1."""
        n = self.m // 2
        for k in range(1, n):
            rest = [0.0] * (n - k)
            self.cols.append([slope] * k + rest + [-1.0] * k + rest)
            self.bounds.append(bound)
        self.pricing.append((None, slope, bound))

    def solve(self) -> list[float]:
        """The optimal x, pivoting on from the last basis."""
        m, cols, bounds, basis = self.m, self.cols, self.bounds, self.basis
        n = m // 2
        pivots = 0
        while True:
            cb = [bounds[j] for j in basis]
            pi = [sum(map(mul, cb, col)) for col in zip(*self.binv)]
            run = list(zip(accumulate(pi[: n - 1]), accumulate(pi[n:-1])))
            # reduced costs of the surplus columns, then the primal rows
            rc = list(pi)
            for row, slope, b in self.pricing:
                if row is None:
                    rc += [b - (slope * pk - qk) for pk, qk in run]
                else:
                    rc.append(b - sum(map(mul, pi, row)))
            k = rc.index(min(rc))
            if rc[k] >= -LP_TOL:
                # an optimum stands on a factor fewer than m updates old
                if self.updates < m:
                    return pi
                self._refactor()
                continue
            d = [sum(map(mul, row, cols[k])) for row in self.binv]
            rows = [r for r in range(m) if d[r] > PIVOT_TOL]
            if not rows:
                # and an unbounded ray only on a fresh one
                if self.updates:
                    self._refactor()
                    continue
                raise SolverError("LP is infeasible: its dual is unbounded")
            if pivots == PIVOT_CAP:
                raise SolverError(
                    f"LP simplex hit its cap of {PIVOT_CAP} pivots without an optimum"
                )
            # a row ties for the least step if every row would stay
            # within LP_TOL of zero at its own step
            x_b = self.x_b
            most = min((max(x_b[r], 0.0) + LP_TOL) / d[r] for r in rows)
            ties = [r for r in rows if max(x_b[r], 0.0) / d[r] <= most]
            self._pivot(max(ties, key=d.__getitem__), k, d)
            pivots += 1

    def _pivot(self, r: int, enter: int, d: list[float]) -> None:
        binv, x_b = self.binv, self.x_b
        head = binv[r] = [v / d[r] for v in binv[r]]
        step = max(x_b[r], 0.0) / d[r]
        for i in range(self.m):
            if i != r and d[i] != 0.0:
                binv[i] = [a - d[i] * b for a, b in zip(binv[i], head)]
                x_b[i] -= d[i] * step
        x_b[r] = step
        self.basis[r] = enter
        self.updates += 1

    def _refactor(self) -> None:
        """Basis inverse and basic values afresh, by Gauss-Jordan
        elimination with partial pivoting."""
        m = self.m
        a = [
            [self.cols[j][i] for j in self.basis] + [float(k == i) for k in range(m)]
            for i in range(m)
        ]
        for c in range(m):
            p = max(range(c, m), key=lambda i: abs(a[i][c]))
            if abs(a[p][c]) <= PIVOT_TOL:
                raise SolverError("LP simplex basis became singular")
            a[c], a[p] = a[p], a[c]
            head = a[c] = [v / a[c][c] for v in a[c]]
            for i in range(m):
                if i != c and a[i][c] != 0.0:
                    f = a[i][c]
                    a[i] = [u - f * v for u, v in zip(a[i], head)]
        self.binv = [row[m:] for row in a]
        self.x_b = [sum(map(mul, row, self.objective)) for row in self.binv]
        self.updates = 0


def _solve_cells(spec: GameSpec) -> BiPoolingSolution:
    """Exact commitment optimum for any number of actions.

    Merging the atoms of one action cell into their barycentre contracts
    the distribution and keeps the payoff, so some optimum has one atom
    per cell, with mass p_i and first moment q_i. With P_k, Q_k the
    running sums, the atoms are a mean-preserving contraction of the
    prior iff Q_k >= L(P_k) for every k, where L(s) = M(F^-1(s)) is the
    prior's convex Lorenz curve, with slope F^-1(s) at s. Keeping each
    atom in its cell is linear, g_i p_i <= q_i <= g_{i+1} p_i, so the
    problem is an LP in (p, q) plus n - 1 convex constraints, which
    tangent cuts to L enforce (Kleiner, Moldovanu and Strack 2021). The
    LP is solved by ``_DualSimplex`` on the standard library, each round
    of cuts warm-started from the last optimum.

    Each binding k splits [0, 1] at F^-1(P_k); between splits sit one
    atom (a pool) or two (a bi-pool, Arieli et al. 2023), and
    ``_realize_segments`` places both anew on the prior.
    """
    prior = spec.prior
    n, g = spec.n_actions, spec.cutoffs

    ones, zeros = [1.0] * n, [0.0] * n
    # sum p <= 1 starts the simplex, priced at the top value; with the
    # next three rows, sum p = 1 and sum q = prior mean
    lp = _DualSimplex(list(spec.values) + zeros, ones + zeros, 1.0)
    lp.add([-1.0] * n + zeros, -1.0)
    lp.add(zeros + ones, prior.mean)
    lp.add(zeros + [-1.0] * n, -prior.mean)
    for i in range(n):
        unit = [float(j == i) for j in range(n)]
        lp.add([g[i] * u for u in unit] + [-u for u in unit], 0.0)  # g_i p_i - q_i <= 0
        lp.add([-g[i + 1] * u for u in unit] + unit, 0.0)  # q_i - g_{i+1} p_i <= 0

    # the tangent at s, with x = F^-1(s):
    # Q_k >= L(s) + x (P_k - s), for every k;
    # start from tangents at the cutoffs' quantiles and on an even grid
    for s in [prior.cdf(c) for c in g[1:-1]] + [j / 8.0 for j in range(1, 8)]:
        x = prior.quantile(s)
        lp.add_tangent(x, x * s - prior.first_moment(x))
    for _ in range(_CUT_ROUNDS):
        opt = lp.solve()
        p, q = opt[:n], opt[n:]
        run_p, run_q = list(accumulate(p))[:-1], list(accumulate(q))[:-1]
        # one quantile and one Lorenz value per point, for its slack and
        # its cut
        xs = [prior.quantile(pk) for pk in run_p]
        lorenz = [prior.first_moment(x) for x in xs]
        slack = [qk - lk for qk, lk in zip(run_q, lorenz)]
        if min(slack) >= -LP_TOL:
            break
        for pk, x, lk, sk in zip(run_p, xs, lorenz, slack):
            if sk < -LP_TOL:
                lp.add_tangent(x, x * pk - lk)
    else:
        raise SolverError(
            f"Lorenz cuts did not converge in {_CUT_ROUNDS} rounds"
        )

    segments: list[Segment] = []
    group: list[float] = []
    lo, split = 0.0, None

    def close(hi: float) -> None:
        if len(group) > 2:
            raise SolverError(
                f"{len(group)} atoms share the segment [{lo:.12g}, {hi:.12g}]"
            )
        kind = "pooling" if len(group) == 1 else "bipooling"
        segments.append(Segment(interval(lo, hi), kind, tuple(group)))

    for i in range(n):
        if p[i] > SNAP_TOL:
            if split is not None:
                hi = prior.quantile(split)
                close(hi)
                group, lo = [], hi
            mean = min(max(q[i] / p[i], g[i]), g[i + 1])
            group.append(_snap_to_cutoff(spec, mean))
            split = None
        # the first binding constraint after an atom ends its segment
        if group and split is None and i < n - 1 and slack[i] <= SNAP_TOL:
            split = run_p[i]
    close(1.0)
    return _realize_segments(spec, _place(spec, segments))


# ---------------------------------------------------------------------------
# LP oracle


def _atom_grid(spec: GameSpec, grid_size: int) -> np.ndarray:
    import numpy as np

    if grid_size < 51:
        raise SpecError("grid_size must be at least 51")
    pts = np.arange(grid_size, dtype=float) / (grid_size - 1)
    cuts = np.array(spec.cutoffs, dtype=float)
    keep = pts[np.all(np.abs(pts[:, None] - cuts[None, :]) > NEGLIGIBLE, axis=1)]
    return np.unique(np.concatenate([keep, cuts]))


# Atom grid size of lp_value wherever none is given.
DEFAULT_GRID = 961


def _lp_problem(spec: GameSpec, grid_size: int):
    """Sparse LP encoding of the commitment problem.

    Variables are atom weights g plus, per check point, the running cdf
    G and integrated cdf s. The dominance constraint becomes a simple
    bound s <= T_F once the recurrence rows tie s to g, which keeps the
    matrix a few nonzeros per row instead of dense.
    """
    import numpy as np
    from scipy import sparse

    prior = spec.prior
    x = _atom_grid(spec, grid_size)
    u = np.array([value_at(spec, xi) for xi in x])
    # a fixed dominance check set, independent of the atom grid, so that
    # refining the grid only adds variables and never new constraints
    checks = _atom_grid(spec, CHECK_POINTS)
    t_f = np.array([prior.integrated_cdf(c) for c in checks])
    n, m = len(x), len(checks)
    bins = np.searchsorted(checks, x, side="left")

    rows, cols, vals, rhs = [], [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    r = 0
    # cdf recurrence: G_j - G_{j-1} - sum of weights landing in bin j = 0
    for j in range(m):
        add(r, n + j, 1.0)
        if j > 0:
            add(r, n + j - 1, -1.0)
        rhs.append(0.0)
        r += 1
    for k in range(n):
        add(bins[k], k, -1.0)
    # integrated-cdf recurrence
    for j in range(1, m):
        add(r, n + m + j, 1.0)
        add(r, n + m + j - 1, -1.0)
        add(r, n + j - 1, -(checks[j] - checks[j - 1]))
        rhs.append(0.0)
        r += 1
    for k in range(n):
        j = bins[k]
        if j >= 1:
            add(m + j - 1, k, -(checks[j] - x[k]))
    # total mass and mean
    for k in range(n):
        add(r, k, 1.0)
    rhs.append(1.0)
    r += 1
    for k in range(n):
        add(r, k, x[k])
    rhs.append(prior.mean)
    r += 1

    a_eq = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(r, n + 2 * m)
    )
    b_eq = np.array(rhs)
    bounds = (
        [(0.0, None)] * n
        + [(0.0, 1.0)] * m
        + [(0.0, float(t)) for t in t_f]
    )
    bounds[n + m] = (0.0, 0.0)  # s at the left edge is zero
    return x, u, a_eq, b_eq, bounds, n


# HiGHS tolerances of lp_value, the one LP left to scipy.
_LP_OPTS = {
    "primal_feasibility_tolerance": LP_TOL,
    "dual_feasibility_tolerance": LP_TOL,
}


def lp_value(spec: GameSpec, grid_size: int = DEFAULT_GRID) -> float:
    """Optimal value of the commitment LP on the given atom grid, the
    oracle that tests compare the exact solvers against. It is the one
    function of the package that needs numpy and scipy, which the
    ``test`` extra installs; it imports them on its first call."""
    import numpy as np
    from scipy.optimize import linprog

    x, u, a_eq, b_eq, bounds, n = _lp_problem(spec, grid_size)
    cost = np.zeros(a_eq.shape[1])
    cost[:n] = -u
    res = linprog(
        cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options=_LP_OPTS,
    )
    if not res.success:
        raise SolverError(f"commitment LP failed: {res.message}")
    return -res.fun


def commitment_solution(
    spec: GameSpec, grid_size: int = DEFAULT_GRID
) -> BiPoolingSolution:
    """Exact commitment optimum for any number of actions.

    Two and three action games solve in closed form, larger ones by
    ``_solve_cells``. grid_size is accepted for callers that still pass
    it and ignored.
    """
    if spec.n_actions == 2:
        return solve_two_action(spec)
    if spec.n_actions == 3:
        return solve_three_action(spec)
    return _solve_cells(spec)
