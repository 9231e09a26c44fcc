"""Commitment-optimal information design.

The sender's commitment problem is linear in the distribution over
posterior means, with feasibility exactly the mean-preserving
contractions of the prior. Optimal solutions partition the state space
into segments that are either revealed or pooled, where a pooled
segment carries one posterior mean and a bi-pooled segment carries
two; for two and three actions this module enumerates the
candidate structures in closed form, and for larger games it solves a
grid LP and recovers the segment structure from the solution's
integrated cdf geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .game import (
    GameSpec,
    MeanDistribution,
    action_at,
    require_valid,
    value_at,
)
from .prior import IntervalUnion, Prior, SolverError, SpecError, find_root, interval
from .representation import DeterministicRepresentation, nested_interval_rep

_NULL = 1e-12


def _snap_loc(spec: GameSpec, mean: float, target: float) -> float:
    """Atom location for a pooled mean, absorbing root-finder dust.

    A pool pinned to a cutoff must sit exactly on it: one ulp below
    would flip the receiver to the lower action.
    """
    if abs(mean - target) <= 1e-9:
        return target
    for c in spec.cutoffs[1:-1]:
        if abs(c - mean) <= 1e-9:
            return c
    return mean


@dataclass(frozen=True)
class Segment:
    """One maximal interval of the optimal partition."""

    outer: IntervalUnion
    kind: str  # "revealed" | "pooling" | "bipooling"
    means: tuple[float, ...]


@dataclass(frozen=True)
class BiPoolingSolution:
    distribution: MeanDistribution
    segments: tuple[Segment, ...]
    canonical: DeterministicRepresentation

    @property
    def payoff(self) -> float:
        return self.distribution.payoff


def _realize_segments(
    spec: GameSpec, segments: list[Segment]
) -> BiPoolingSolution:
    """Turn a segment structure into exact cells and atoms, priced out.

    Every output is recomputed from the prior itself, so the returned
    distribution is a mean-preserving contraction regardless of how
    approximate the incoming segment annotations were. A pooled segment
    whose recomputed mean falls on the wrong side of the cutoff its
    annotated mean sits on is trimmed: the left sliver is revealed and
    the rest pooled to exactly that cutoff.
    """
    prior = spec.prior
    cells: list[IntervalUnion] = [IntervalUnion.empty() for _ in spec.values]
    atoms: list[tuple[float, float]] = []
    revealed = IntervalUnion.empty()
    out_segments: list[Segment] = []

    def reveal(region: IntervalUnion) -> None:
        nonlocal revealed
        if prior.mass(region) <= _NULL:
            return
        revealed = revealed.union(region)
        for i in range(spec.n_actions):
            cells[i] = cells[i].union(region.intersect(spec.cell(i)))
        out_segments.append(Segment(region, "revealed", ()))

    for seg in sorted(segments, key=lambda s: s.outer.lo):
        region = seg.outer
        if prior.mass(region) <= _NULL:
            continue
        if seg.kind == "revealed":
            reveal(region)
            continue
        if seg.kind == "pooling":
            target = seg.means[0]
            want = action_at(spec, target)
            loc = _snap_loc(spec, prior.partial_mean(region), target)
            if action_at(spec, loc) < want:
                # recomputed mean slipped below the annotated cutoff; pin
                # the pool to the cutoff and reveal the leftover sliver
                cut = spec.cutoffs[want]
                lo, hi = region.lo, region.hi

                def res(t: float) -> float:
                    piece = region.intersect(interval(t, hi))
                    if prior.mass(piece) <= 1e-13:
                        return hi - cut
                    return prior.partial_mean(piece) - cut

                x = find_root(res, lo, hi)
                reveal(region.intersect(interval(lo, x)))
                region = region.intersect(interval(x, hi))
                loc = _snap_loc(spec, prior.partial_mean(region), cut)
            m = prior.mass(region)
            atoms.append((loc, m))
            cells[action_at(spec, loc)] = cells[action_at(spec, loc)].union(region)
            out_segments.append(Segment(region, "pooling", (loc,)))
            continue
        if seg.kind == "bipooling":
            z_lo, z_hi = seg.means
            pair = nested_interval_rep(prior, region, z_lo, z_hi)
            rem = pair.remainder
            mass_in = prior.mass(pair.inner)
            mass_out = prior.mass(rem)
            if mass_in > _NULL:
                atoms.append((z_lo, mass_in))
                cells[action_at(spec, z_lo)] = cells[action_at(spec, z_lo)].union(
                    pair.inner
                )
            if mass_out > _NULL:
                atoms.append((z_hi, mass_out))
                cells[action_at(spec, z_hi)] = cells[action_at(spec, z_hi)].union(rem)
            out_segments.append(Segment(region, "bipooling", (z_lo, z_hi)))
            continue
        raise SpecError(f"unknown segment kind {seg.kind!r}")

    atoms.sort()
    payoff = sum(p * value_at(spec, x) for x, p in atoms)
    for i, v in enumerate(spec.values):
        payoff += v * prior.mass(revealed.intersect(spec.cell(i)))

    cutoff_atoms = [
        x
        for x, _ in atoms
        if any(abs(x - c) <= 1e-9 for c in spec.cutoffs[1:-1])
    ]
    threshold = min(cutoff_atoms) if cutoff_atoms and len(cutoff_atoms) < len(atoms) else None

    anchored = []
    for i, cell in enumerate(cells):
        if prior.mass(cell) <= _NULL and cell.length <= _NULL:
            anchored.append(interval(spec.cutoffs[i], spec.cutoffs[i]))
        else:
            anchored.append(cell)

    dist = MeanDistribution(
        tuple(atoms),
        revealed=None if revealed.is_empty else revealed,
        payoff=payoff,
        pool_threshold=threshold,
    )
    return BiPoolingSolution(
        dist, tuple(out_segments), DeterministicRepresentation(tuple(anchored))
    )


def _upper_mean_root(prior: Prior, target: float) -> float:
    """x with E[state | state >= x] = target; needs prior mean <= target."""
    residual = lambda x: prior.partial_mean(interval(x, 1.0)) - target
    if residual(0.0) >= 0.0:
        return 0.0
    return find_root(residual, 0.0, target)


def solve_two_action(spec: GameSpec) -> BiPoolingSolution:
    require_valid(spec)
    if spec.n_actions != 2:
        raise SpecError("solve_two_action needs exactly two actions")
    prior = spec.prior
    g1 = spec.cutoffs[1]
    if prior.mean >= g1:
        return _realize_segments(
            spec, [Segment(interval(0.0, 1.0), "pooling", (prior.mean,))]
        )
    x = _upper_mean_root(prior, g1)
    segs = []
    if x > _NULL:
        segs.append(Segment(interval(0.0, x), "revealed", ()))
    segs.append(Segment(interval(x, 1.0), "pooling", (g1,)))
    return _realize_segments(spec, segs)


def _three_action_candidates(spec: GameSpec):
    """Candidate segment structures for the three-action problem.

    Yields (name, segments) in order of structural simplicity; the
    caller keeps the best payoff with ties resolved toward the earlier
    candidate.
    """
    prior = spec.prior
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    mu = prior.mean

    yield "full-pool", [Segment(interval(0.0, 1.0), "pooling", (mu,))]

    if mu <= g2:
        x_hi = _upper_mean_root(prior, g2)
        if x_hi > _NULL:
            # reveal below, pool the top to exactly g2
            yield "top-pool", [
                Segment(interval(0.0, x_hi), "revealed", ()),
                Segment(interval(x_hi, 1.0), "pooling", (g2,)),
            ]
            low = interval(0.0, x_hi)
            if prior.partial_mean(low) >= g1:
                yield "two-pools", [
                    Segment(low, "pooling", (prior.partial_mean(low),)),
                    Segment(interval(x_hi, 1.0), "pooling", (g2,)),
                ]
    else:
        x_hi = None

    if mu <= g1:
        x_lo = _upper_mean_root(prior, g1)
        if x_lo > _NULL:
            yield "skip-top", [
                Segment(interval(0.0, x_lo), "revealed", ()),
                Segment(interval(x_lo, 1.0), "pooling", (g1,)),
            ]

    y = _best_nested(spec, x_hi)
    if y is not None:
        segs = []
        if prior.cdf(y) > _NULL:
            segs.append(Segment(interval(0.0, y), "pooling",
                                (prior.partial_mean(interval(0.0, y)),)))
        segs.append(Segment(interval(y, 1.0), "bipooling", (g1, g2)))
        yield "nested", segs


def _best_nested(spec: GameSpec, x_hi: Optional[float]) -> Optional[float]:
    """Best nested structure: [h, b] pooled at the lower cutoff g1,
    [y, h] + [b, 1] at the upper cutoff g2 and [0, y] below both, with
    h and y fixed by the free endpoint b through two mean equations.

    Every feasibility condition is monotone in b, so the feasible b
    form one interval [b_lo, b_hi]. Differentiating the mean equations
    gives dy/db <= 0 and a payoff slope of

        f(b) (b - h) / (g1 - h) * (v1 - v2 + v2 (g2 - g1) / (g2 - y)),

    so the payoff rises while y > y* = g2 - v2 (g2 - g1) / (v2 - v1)
    and falls once y < y*. The optimum is y* clipped to the range of y,
    for every prior, zero-density stretches included. Returns the
    optimum's y, or None when no b is feasible.
    """
    prior = spec.prior
    g1, g2 = spec.cutoffs[1], spec.cutoffs[2]
    v1, v2 = spec.values[1], spec.values[2]
    mu = prior.mean
    if x_hi is None or mu > g2:
        return None
    if mu > g1:
        b_cap = find_root(
            lambda b: prior.partial_mean(interval(0.0, b)) - g1, g1, 1.0
        )
    else:
        b_cap = 1.0
    b_lo = max(g1, x_hi)
    if b_cap <= b_lo + 1e-10:
        return None

    F, M = prior.cdf, prior.first_moment
    F1, M1 = F(1.0), M(1.0)

    def solve_y(b: float) -> Optional[float]:
        # Residuals use F and M directly, not IntervalUnion and
        # partial_mean: this is the hot loop of the three-action solver.
        low_mean = prior.partial_mean(interval(0.0, b))
        if low_mean > g1 + 1e-13:
            return None
        Fb, Mb = F(b), M(b)

        def h_res(t: float) -> float:
            mass = Fb - F(t)
            if mass <= 1e-13:
                return 0.5 * (t + b) - g1
            return (Mb - M(t)) / mass - g1

        h = find_root(h_res, 0.0, min(g1, b)) if low_mean < g1 else 0.0
        Fh, Mh = F(h), M(h)

        # the top cell [y, h] + [b, 1] loses mass as y grows, so the guard
        # at y = h bounds every denominator of y_res
        def top_mass(y: float) -> float:
            return (Fh - F(y)) + (F1 - Fb)

        def y_res(y: float) -> float:
            return ((Mh - M(y)) + (M1 - Mb)) / top_mass(y) - g2

        if top_mass(0.0) <= 1e-13 or top_mass(h) <= 1e-13:
            return None
        r0 = y_res(0.0)
        if r0 > 1e-13:
            return None
        rh = y_res(h)
        if rh < -1e-13:
            return None
        if r0 >= 0.0:
            y = 0.0
        elif rh <= 0.0:
            y = h
        else:
            y = find_root(y_res, 0.0, h)
        return y

    y_lo = solve_y(b_lo)
    if y_lo is None:
        return None
    y_star = g2 - v2 * (g2 - g1) / (v2 - v1)
    if y_star >= y_lo:
        return y_lo

    # The range ends where y leaves [0, h] or the top cell runs out of
    # mass, by either side depending on the game, so search on
    # feasibility itself; y falls with b, so the least y the search
    # meets is the end of its range. b_cap is feasible only in
    # degenerate games, where the mean of [b, 1] is flat across a
    # zero-density stretch around x_hi.
    y_hi = y_lo

    def inside(b: float) -> float:
        nonlocal y_hi
        y = solve_y(b)
        if y is None:
            return -1.0
        y_hi = min(y_hi, y)
        return 1.0

    if inside(b_cap) < 0.0:
        find_root(inside, b_lo, b_cap)
    return max(y_star, y_hi)


def solve_three_action(spec: GameSpec) -> BiPoolingSolution:
    """Exact commitment optimum for three actions by enumerating the
    candidate segment structures and keeping the best realized payoff."""
    require_valid(spec)
    if spec.n_actions != 3:
        raise SpecError("solve_three_action needs exactly three actions")
    best: Optional[BiPoolingSolution] = None
    for _, segs in _three_action_candidates(spec):
        sol = _realize_segments(spec, segs)
        if best is None or sol.payoff > best.payoff + 1e-12:
            best = sol
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# LP route


def _atom_grid(spec: GameSpec, grid_size: int) -> np.ndarray:
    if grid_size < 51:
        raise SpecError("grid_size must be at least 51")
    pts = np.arange(grid_size, dtype=float) / (grid_size - 1)
    cuts = np.array(spec.cutoffs, dtype=float)
    keep = pts[np.all(np.abs(pts[:, None] - cuts[None, :]) > 1e-12, axis=1)]
    return np.unique(np.concatenate([keep, cuts]))


_CHECK_SET_N = 1001

# LP atom grid size wherever none is given, the CLI's --grid included.
DEFAULT_GRID = 961


def _check_points(spec: GameSpec) -> np.ndarray:
    """Fixed dominance check set, independent of the atom grid so that
    refining the grid only adds variables and never new constraints."""
    base = np.arange(_CHECK_SET_N, dtype=float) / (_CHECK_SET_N - 1)
    cuts = np.array(spec.cutoffs, dtype=float)
    keep = base[np.all(np.abs(base[:, None] - cuts[None, :]) > 1e-12, axis=1)]
    return np.unique(np.concatenate([keep, cuts]))


_LP_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _lp_problem(spec: GameSpec, grid_size: int):
    """Sparse LP encoding of the commitment problem.

    Variables are atom weights g plus, per check point, the running cdf
    G and integrated cdf s. The dominance constraint becomes a simple
    bound s <= T_F once the recurrence rows tie s to g, which keeps the
    matrix a few nonzeros per row instead of dense.
    """
    prior = spec.prior
    x = _atom_grid(spec, grid_size)
    u = np.array([value_at(spec, xi) for xi in x])
    checks = _check_points(spec)
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


def _lp_stage1(spec: GameSpec, grid_size: int):
    x, u, a_eq, b_eq, bounds, n = _lp_problem(spec, grid_size)
    cost = np.zeros(a_eq.shape[1])
    cost[:n] = -u
    first = linprog(
        cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs", options=_LP_OPTS,
    )
    if not first.success:
        raise SolverError(f"commitment LP failed: {first.message}")
    return -first.fun, x, u, a_eq, b_eq, bounds, n, first.x[:n]


def _lp_two_stage(spec: GameSpec, grid_size: int):
    value, x, u, a_eq, b_eq, bounds, n, g1 = _lp_stage1(spec, grid_size)
    # second stage: stay on the optimal face, maximize the second moment
    # so mass spreads into revelation wherever the payoff allows it
    pin = np.zeros(a_eq.shape[1])
    pin[:n] = u
    a_eq2 = sparse.vstack([a_eq, sparse.csr_matrix(pin)])
    b_eq2 = np.concatenate([b_eq, [value]])
    cost = np.zeros(a_eq.shape[1])
    cost[:n] = -(x**2)
    second = linprog(
        cost, A_eq=a_eq2, b_eq=b_eq2, bounds=bounds,
        method="highs", options=_LP_OPTS,
    )
    weights = second.x[:n] if second.success else g1
    weights = np.where(weights > 1e-8, weights, 0.0)
    total = weights.sum()
    if abs(total - 1.0) > 1e-6:
        raise SolverError("LP mass drifted away from one")
    weights = weights / total
    return x, weights


def lp_value(spec: GameSpec, grid_size: int = DEFAULT_GRID) -> float:
    """Optimal value of the commitment LP on the given atom grid."""
    require_valid(spec)
    return _lp_stage1(spec, grid_size)[0]


def _recover_segments(
    prior: Prior,
    atoms: list[tuple[float, float]],
    revealed: Optional[IntervalUnion],
    *,
    atom_spacing: float = 0.0,
    tol: float = 1e-8,
) -> Optional[list[Segment]]:
    """Reconstruct the segment partition from integrated-cdf geometry.

    Boundaries are the points where the distribution's integrated cdf
    touches the prior's. Between consecutive atoms the gap is convex
    with its minimum where the prior cdf crosses the flat level, so one
    bisection per gap finds all candidates. atom_spacing widens the
    touch tolerance to what a discretized revelation region produces at
    that grid pitch, and runs of grid-pitch micro segments collapse back
    into revealed segments.
    """
    atoms = sorted((x, p) for x, p in atoms if p > _NULL)
    rev_pieces = list(revealed.pieces) if revealed is not None else []

    markers: list[tuple[float, float, str]] = [(x, x, "atom") for x, _ in atoms]
    markers += [(a, b, "revealed") for a, b in rev_pieces]
    markers.sort()
    for (a1, b1, _), (a2, b2, _) in zip(markers, markers[1:]):
        if a2 < b1 - 1e-12:
            return None  # atom inside a revealed region: not a segment structure

    def g_level(x: float) -> float:
        lvl = sum(p for loc, p in atoms if loc <= x + 1e-15)
        for a, b in rev_pieces:
            lvl += prior.cdf(min(b, x)) - prior.cdf(a) if x > a else 0.0
        return lvl

    def t_g(x: float) -> float:
        total = sum(p * max(0.0, x - loc) for loc, p in atoms)
        for a, b in rev_pieces:
            if x <= a:
                continue
            hi = min(x, b)
            total += (
                prior.integrated_cdf(hi)
                - prior.integrated_cdf(a)
                - prior.cdf(a) * (hi - a)
            )
            if x > b:
                total += (prior.cdf(b) - prior.cdf(a)) * (x - b)
        return total

    boundaries = {0.0, 1.0}
    for a, b in rev_pieces:
        boundaries.add(a)
        boundaries.add(b)

    gaps = []
    prev_hi = 0.0
    for a, b, _ in markers:
        if a > prev_hi + 1e-15:
            gaps.append((prev_hi, a))
        prev_hi = max(prev_hi, b)
    if prev_hi < 1.0 - 1e-15:
        gaps.append((prev_hi, 1.0))

    for lo, hi in gaps:
        level = g_level(0.5 * (lo + hi))
        res = lambda t: prior.cdf(t) - level
        if res(lo) >= 0.0:
            x_star = lo
        elif res(hi) <= 0.0:
            x_star = hi
        else:
            x_star = find_root(res, lo, hi)
        slack = prior.integrated_cdf(x_star) - t_g(x_star)
        allow = tol + prior.pdf(x_star) * (1.3 * atom_spacing) ** 2 / 2.0
        if slack <= allow:
            boundaries.add(x_star)

    cuts = sorted(boundaries)
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > 1e-12:
            merged.append(c)
    if merged[-1] < 1.0:
        merged.append(1.0)

    revealed_union = IntervalUnion(tuple(rev_pieces)) if rev_pieces else IntervalUnion.empty()
    assigned: dict[int, list[tuple[float, float]]] = {}
    spans = list(zip(merged, merged[1:]))
    for x, p in atoms:
        k = next(
            (i for i, (lo, hi) in enumerate(spans) if lo - 1e-12 <= x <= hi + 1e-12),
            None,
        )
        if k is None:
            return None
        assigned.setdefault(k, []).append((x, p))
    segments: list[Segment] = []
    for k, (lo, hi) in enumerate(spans):
        seg = interval(lo, hi)
        if prior.mass(seg) <= 1e-11:
            continue
        inside = assigned.get(k, [])
        if seg.subtract(revealed_union).length <= 1e-9:
            segments.append(Segment(seg, "revealed", ()))
        elif len(inside) == 1:
            segments.append(Segment(seg, "pooling", (inside[0][0],)))
        elif len(inside) == 2:
            segments.append(
                Segment(seg, "bipooling", (inside[0][0], inside[1][0]))
            )
        else:
            return None

    if atom_spacing > 0.0:
        segments = _collapse_micro_runs(segments, 2.6 * atom_spacing)
    return segments


def _collapse_micro_runs(segments: list[Segment], width: float) -> list[Segment]:
    """Grid-pitch pooling runs are discretized revelation; merge them."""
    out: list[Segment] = []
    run: list[Segment] = []

    def flush() -> None:
        nonlocal run
        if len(run) >= 2:
            out.append(
                Segment(interval(run[0].outer.lo, run[-1].outer.hi), "revealed", ())
            )
        else:
            out.extend(run)
        run = []

    for seg in segments:
        tiny = (
            seg.kind in ("pooling", "revealed")
            and seg.outer.hi - seg.outer.lo <= width
        )
        if tiny:
            run.append(seg)
        else:
            flush()
            out.append(seg)
    flush()
    return out


def _snap_means(spec: GameSpec, segments: list[Segment], snap: float) -> list[Segment]:
    if snap <= 0.0:
        return segments
    out = []
    for seg in segments:
        if not seg.means:
            out.append(seg)
            continue
        means = tuple(
            next(
                (c for c in spec.cutoffs[1:-1] if abs(c - m) <= snap),
                m,
            )
            for m in seg.means
        )
        out.append(Segment(seg.outer, seg.kind, means))
    return out


def _lp_solution(spec: GameSpec, grid_size: int) -> BiPoolingSolution:
    """Commitment optimum by linear programming on an atom grid, with
    the segment structure read off the LP solution and realized
    exactly. Raises SolverError when the structure cannot be read off
    or the realized distribution fails its audit."""
    x, weights = _lp_two_stage(spec, grid_size)
    support = [(float(xi), float(w)) for xi, w in zip(x, weights) if w > 0.0]
    spacing = 1.0 / (grid_size - 1)
    segments = _recover_segments(
        spec.prior, support, None, atom_spacing=spacing
    )
    if segments is not None:
        try:
            sol = _realize_segments(
                spec, _snap_means(spec, segments, 2.6 * spacing)
            )
        except (SolverError, SpecError):  # e.g. a snapped segment with no mass
            sol = None
        if sol is not None and not sol.distribution.validate(spec.prior):
            return sol
    raise SolverError(
        "segment recovery failed for the LP solution; refine the grid"
    )


def solve_lp(spec: GameSpec, grid_size: int = DEFAULT_GRID) -> MeanDistribution:
    """Commitment optimum by linear programming on an atom grid, for
    any number of actions, as the exact distribution recovered from the
    LP solution. Raises SolverError when recovery fails."""
    require_valid(spec)
    return _lp_solution(spec, grid_size).distribution


def canonicalize(
    spec: GameSpec, dist: MeanDistribution, *, atom_spacing: float = 0.0
) -> DeterministicRepresentation:
    """Canonical deterministic representation behind a mean distribution."""
    require_valid(spec)
    segments = _recover_segments(
        spec.prior,
        list(dist.atoms),
        dist.revealed,
        atom_spacing=atom_spacing,
    )
    if segments is None:
        raise SolverError(
            "segment recovery failed; re-solve on a finer grid or pass a "
            "structured distribution"
        )
    sol = _realize_segments(
        spec, _snap_means(spec, segments, max(2.6 * atom_spacing, 1e-9))
    )
    return sol.canonical


def commitment_solution(
    spec: GameSpec, grid_size: int = DEFAULT_GRID
) -> BiPoolingSolution:
    """Dispatch to the exact structural solver when available.

    Two and three action games solve in closed form and ignore
    grid_size; larger games go through the LP and segment recovery.
    """
    require_valid(spec)
    if spec.n_actions == 2:
        return solve_two_action(spec)
    if spec.n_actions == 3:
        return solve_three_action(spec)
    return _lp_solution(spec, grid_size)


def commitment_payoff(spec: GameSpec) -> float:
    """Best sender payoff over all mean-preserving contractions."""
    require_valid(spec)
    if spec.n_actions <= 3:
        return commitment_solution(spec).payoff
    coarse = lp_value(spec, 481)
    fine = lp_value(spec, 961)
    if abs(fine - coarse) > 1e-3:
        raise SolverError(
            f"LP grid refinement unstable: {coarse:.12g} vs {fine:.12g}"
        )
    return fine
