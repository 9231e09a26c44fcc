"""Game specifications and posterior-mean distributions.

A game is a prior together with an increasing step function for the
receiver: action i is taken when the posterior mean lands in the cell
[gamma_i, gamma_{i+1}), with ties at cutoffs resolved upward (the value
function is upper semicontinuous). The sender's payoff from any signal
depends on the induced distribution over posterior means only, so this
module also defines that distribution type and its feasibility test
(second-order stochastic dominance of integrated cdfs).

A GameSpec is checked once, when it is made: constructing one with a
violated invariant raises SpecError, so every consumer can rely on it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .prior import (
    AUDIT_TOL,
    INPUT_SLACK,
    MPC_TOL,
    IntervalUnion,
    Prior,
    Record,
    SpecError,
    interval,
)


class GameSpec(Record):
    """Prior, cutoffs 0 = gamma_0 < ... < gamma_n = 1, and action values
    0 = v_0 < ... < v_{n-1}.

    Construction raises SpecError naming every invariant that validate()
    finds violated, so a spec that exists is valid.
    """

    __slots__ = _fields = ("prior", "cutoffs", "values")

    def __init__(
        self, prior: Prior, cutoffs: tuple[float, ...], values: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "cutoffs", tuple(float(c) for c in cutoffs))
        object.__setattr__(self, "values", tuple(float(v) for v in values))
        problems = validate(self)
        if problems:
            raise SpecError("invalid game spec: " + "; ".join(problems))

    @property
    def n_actions(self) -> int:
        return len(self.values)

    def cell(self, i: int) -> IntervalUnion:
        return interval(self.cutoffs[i], self.cutoffs[i + 1])

    def to_obj(self) -> dict:
        return {
            "prior": self.prior.to_obj(),
            "cutoffs": list(self.cutoffs),
            "values": list(self.values),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "GameSpec":
        if not isinstance(obj, dict):
            raise SpecError("game spec must be a JSON object")
        missing = [k for k in ("prior", "cutoffs", "values") if k not in obj]
        if missing:
            raise SpecError(f"game spec missing fields: {', '.join(missing)}")
        return cls(
            Prior.from_obj(obj["prior"]),
            tuple(obj["cutoffs"]),
            tuple(obj["values"]),
        )


def validate(spec: GameSpec) -> list[str]:
    """All violated invariants of a game spec, the list its constructor
    reports; a constructed spec always gives the empty list."""
    problems = []
    cuts, vals = spec.cutoffs, spec.values
    if len(vals) < 2:
        problems.append("need at least two actions")
    if len(cuts) != len(vals) + 1:
        problems.append("cutoff count must be action count plus one")
    if cuts:
        if abs(cuts[0]) > INPUT_SLACK or abs(cuts[-1] - 1.0) > INPUT_SLACK:
            problems.append("cutoffs must start at 0 and end at 1")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        problems.append("cutoffs not ascending")
    if vals:
        if abs(vals[0]) > INPUT_SLACK:
            problems.append("lowest action value must be 0")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            problems.append("values not increasing")
    return problems


def value_at(spec: GameSpec, x: float) -> float:
    """Receiver value when the posterior mean equals x.

    At an interior cutoff the receiver takes the higher action, and
    x = 1 selects the top one.
    """
    return spec.values[action_at(spec, x)]


def action_at(spec: GameSpec, x: float) -> int:
    i = bisect_right(spec.cutoffs, x) - 1
    return min(max(i, 0), spec.n_actions - 1)


def unraveling_payoff(spec: GameSpec) -> float:
    """Sender payoff under full disclosure of the state."""
    return sum(
        v * spec.prior.mass(spec.cell(i)) for i, v in enumerate(spec.values)
    )


def cheap_talk_payoff(spec: GameSpec) -> float:
    """Sender payoff when no information is transmitted."""
    return value_at(spec, spec.prior.mean)


class MeanDistribution(Record):
    """Distribution over posterior means: atoms plus a region of full
    revelation, a possibly empty union, where it coincides with the prior.

    pool_threshold, when set, upper-bounds every atom location that is
    not pinned to a cutoff; solvers fill it for diagnostics only.
    """

    __slots__ = _fields = ("atoms", "revealed", "payoff", "pool_threshold")

    def __init__(
        self,
        atoms: tuple[tuple[float, float], ...],
        revealed: IntervalUnion = IntervalUnion.empty(),
        payoff: float = 0.0,
        pool_threshold: Optional[float] = None,
    ) -> None:
        atoms = tuple((float(x), float(p)) for x, p in atoms)
        if any(p < -INPUT_SLACK for _, p in atoms):
            raise SpecError("atom probabilities must be nonnegative")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "revealed", revealed)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "pool_threshold", pool_threshold)

    def total_mass(self, prior: Prior) -> float:
        return sum(p for _, p in self.atoms) + prior.mass(self.revealed)

    def mean(self, prior: Prior) -> float:
        total = sum(x * p for x, p in self.atoms)
        for a, b in self.revealed.pieces:
            total += prior.first_moment(b) - prior.first_moment(a)
        return total

    def expected_value(self, spec: GameSpec) -> float:
        total = sum(p * value_at(spec, x) for x, p in self.atoms)
        for i, v in enumerate(spec.values):
            total += v * spec.prior.mass(self.revealed.intersect(spec.cell(i)))
        return total

    def integrated_cdf(self, prior: Prior, x: float) -> float:
        """Integral of this distribution's cdf from 0 to x."""
        total = sum(p * max(0.0, x - loc) for loc, p in self.atoms)
        for a, b in self.revealed.pieces:
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

    def validate(self, prior: Prior) -> list[str]:
        problems = []
        if abs(self.total_mass(prior) - 1.0) > AUDIT_TOL:
            problems.append("probabilities do not sum to one")
        if abs(self.mean(prior) - prior.mean) > AUDIT_TOL:
            problems.append("mean does not match the prior mean")
        return problems


def dominance_gap(prior: Prior, dist: MeanDistribution) -> float:
    """Largest violation of integrated-cdf dominance, computed exactly.

    Feasible distributions over posterior means are exactly the mean
    preserving contractions of the prior, i.e. those whose integrated
    cdf stays below the prior's with equality at 1. Returns the largest
    positive gap D(x) = (integral of G) - (integral of F) over [0, 1]
    (0 when dominance holds everywhere), or the mismatch at 1 if that
    is larger.

    Between consecutive breakpoints (0, 1, atoms and revealed ends) D is
    affine inside a revealed piece, and elsewhere G is a constant g, so
    D is concave with its peak where F reaches g. D is evaluated only at
    the breakpoints and at one such peak per gap: O(atoms + revealed
    pieces) points.
    """
    pieces = dist.revealed.pieces
    ends = sorted(
        {0.0, 1.0}
        | {x for x, _ in dist.atoms if 0.0 < x < 1.0}
        | {e for piece in pieces for e in piece}
    )
    points = list(ends)
    for lo, hi in zip(ends, ends[1:]):
        if any(a <= lo and hi <= b for a, b in pieces):
            continue
        g = sum(p for x, p in dist.atoms if x <= lo) + sum(
            prior.cdf(b) - prior.cdf(a) for a, b in pieces if b <= lo
        )
        points.append(min(max(prior.quantile(g), lo), hi))

    def gap(x: float) -> float:
        return dist.integrated_cdf(prior, x) - prior.integrated_cdf(x)

    return max(0.0, *map(gap, points), abs(gap(1.0)))


def is_mpc(prior: Prior, dist: MeanDistribution) -> bool:
    """Whether dist is a feasible distribution of posterior means: its
    exact dominance gap is at most MPC_TOL, and its mass and mean match
    the prior's. One dominance_gap call, O(atoms + revealed pieces)."""
    return dominance_gap(prior, dist) <= MPC_TOL and not dist.validate(prior)
