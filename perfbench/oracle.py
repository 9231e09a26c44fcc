"""Correctness checks made apart from the package.

The prior arithmetic here is written independently of
``disclosure_lab.prior``: a piecewise-linear density makes the cdf a
quadratic and the first moment a cubic on each piece, so Simpson's rule
on a piece is exact for both and for the integrated cdf. Each ``check_*``
function returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import math
from bisect import bisect_right

# A payoff recomputed here is a sum of a few products of the printed or
# returned numbers; 1e-9 leaves room for 12-digit CLI printing and for
# root-finder dust in cell endpoints.
PAYOFF_TOL = 1e-9
# Dominance is a property of a feasible answer; the library's own audit
# uses 1e-8 and so does the acceptance gate.
DOMINANCE_TOL = 1e-8
# ore_at_payoff promises its target to 1e-7.
TARGET_TOL = 1e-7
# Grid LP at 961 points against the exact or recovered optimum.
LP_TOL = 2e-3


class Density:
    """A normalised piecewise-linear density on [0, 1]."""

    def __init__(self, knots, density):
        raw = [float(d) for d in density]
        self.knots = [float(k) for k in knots]
        total = sum(
            (b - a) * (fa + fb) / 2.0
            for a, b, fa, fb in zip(self.knots, self.knots[1:], raw, raw[1:])
        )
        self.f = [d / total for d in raw]
        # cdf, first moment and integrated cdf at each knot
        self._at = [(0.0, 0.0, 0.0)]
        for i in range(len(self.knots) - 1):
            self._at.append(self._grow(i, self.knots[i + 1]))

    @classmethod
    def from_obj(cls, obj: dict) -> "Density":
        if obj["kind"] == "uniform":
            return cls([0.0, 1.0], [1.0, 1.0])
        return cls(obj["knots"], obj["density"])

    def pdf(self, x: float) -> float:
        i = self._piece(x)
        a, b = self.knots[i], self.knots[i + 1]
        return self.f[i] + (self.f[i + 1] - self.f[i]) * (x - a) / (b - a)

    def _piece(self, x: float) -> int:
        return min(max(bisect_right(self.knots, x) - 1, 0), len(self.knots) - 2)

    def _grow(self, i: int, x: float) -> tuple[float, float, float]:
        a = self.knots[i]
        c0, m0, t0 = self._at[i]
        mid = (a + x) / 2.0
        fa, fm, fx = self.f[i], self.pdf(mid), self.pdf(x)
        h = x - a
        c_mid = c0 + h / 2.0 * (fa + fm) / 2.0
        c_x = c0 + h * (fa + fx) / 2.0
        m_x = m0 + h / 6.0 * (a * fa + 4.0 * mid * fm + x * fx)
        t_x = t0 + h / 6.0 * (c0 + 4.0 * c_mid + c_x)
        return c_x, m_x, t_x

    def _values(self, x: float) -> tuple[float, float, float]:
        x = min(max(x, 0.0), 1.0)
        return self._grow(self._piece(x), x)

    def cdf(self, x: float) -> float:
        return self._values(x)[0]

    def moment(self, x: float) -> float:
        return self._values(x)[1]

    def icdf(self, x: float) -> float:
        return self._values(x)[2]

    @property
    def mean(self) -> float:
        return self.moment(1.0)

    def mass(self, pieces) -> float:
        return sum(self.cdf(b) - self.cdf(a) for a, b in pieces)


class Game:
    """A game spec read from its JSON object, with the payoffs the paper
    defines in closed form."""

    def __init__(self, obj: dict, snap: float = 0.0):
        """snap lifts a posterior mean that far below a cutoff onto it,
        for numbers read back from 12-digit CLI output."""
        self.snap = snap
        self.prior = Density.from_obj(obj["prior"])
        self.cutoffs = [float(c) for c in obj["cutoffs"]]
        self.values = [float(v) for v in obj["values"]]

    def value_at(self, x: float) -> float:
        """The receiver takes the higher action at a cutoff."""
        i = bisect_right(self.cutoffs, x + self.snap) - 1
        return self.values[min(max(i, 0), len(self.values) - 1)]

    def full_disclosure(self) -> float:
        return sum(
            v * (self.prior.cdf(hi) - self.prior.cdf(lo))
            for v, lo, hi in zip(self.values, self.cutoffs, self.cutoffs[1:])
        )

    def no_information(self) -> float:
        return self.value_at(self.prior.mean)

    def cells_payoff(self, cells) -> float:
        """Sender payoff of a deterministic representation, cell i being
        a list of (lo, hi) pieces that induce action i."""
        return sum(v * self.prior.mass(c) for v, c in zip(self.values, cells))

    def distribution_payoff(self, atoms, revealed) -> float:
        total = sum(p * self.value_at(x) for x, p in atoms)
        for a, b in revealed or ():
            for v, lo, hi in zip(self.values, self.cutoffs, self.cutoffs[1:]):
                lo, hi = max(a, lo), min(b, hi)
                if hi > lo:
                    total += v * (self.prior.cdf(hi) - self.prior.cdf(lo))
        return total

    def dominance_gap(self, atoms, revealed, grid: int = 2001) -> float:
        """Largest excess of the distribution's integrated cdf over the
        prior's, on an even grid plus every atom and cutoff, and the
        mismatch at 1 (equal means)."""
        prior = self.prior
        pts = {j / (grid - 1) for j in range(grid)}
        pts.update(x for x, _ in atoms)
        pts.update(self.cutoffs)
        worst = 0.0
        for x in sorted(pts):
            own = sum(p * max(0.0, x - loc) for loc, p in atoms)
            for a, b in revealed or ():
                if x > a:
                    c = min(x, b)
                    own += prior.icdf(c) - prior.icdf(a) - prior.cdf(a) * (c - a)
                    own += (prior.cdf(b) - prior.cdf(a)) * max(0.0, x - b)
            worst = max(worst, own - prior.icdf(x))
        end = sum(p * (1.0 - loc) for loc, p in atoms)
        for a, b in revealed or ():
            end += prior.icdf(b) - prior.icdf(a) - prior.cdf(a) * (b - a)
            end += (prior.cdf(b) - prior.cdf(a)) * (1.0 - b)
        return max(worst, abs(end - prior.icdf(1.0)))


def check_distribution(game: Game, atoms, revealed, payoff: float) -> list[str]:
    """A commitment answer: feasible, priced right, and no worse than
    full disclosure or no information."""
    problems = []
    gap = game.dominance_gap(atoms, revealed)
    if not gap <= DOMINANCE_TOL:
        problems.append(f"integrated-cdf dominance broken by {gap:.3e}")
    mass = sum(p for _, p in atoms) + game.prior.mass(revealed or ())
    if abs(mass - 1.0) > PAYOFF_TOL:
        problems.append(f"total mass {mass!r} is not one")
    own = game.distribution_payoff(atoms, revealed)
    if not abs(own - payoff) <= PAYOFF_TOL:
        problems.append(f"payoff {payoff!r} but atoms and revealed region give {own!r}")
    floor = max(game.full_disclosure(), game.no_information())
    if not payoff >= floor - PAYOFF_TOL:
        problems.append(f"payoff {payoff!r} below full disclosure or no information {floor!r}")
    return problems


def check_target(game: Game, cells, target: float) -> list[str]:
    own = game.cells_payoff(cells)
    if not abs(own - target) <= TARGET_TOL:
        return [f"representation pays {own!r}, target {target!r}"]
    return []


def exy_preferred() -> float:
    """Preferred equilibrium payoff of the exy game in closed form."""
    y = (1.4 - math.sqrt(0.52)) / 2.0
    return 1.24 - 1.3 * y


def seller_cutoffs(price: float, sigma: float) -> list[float]:
    """Interior cutoffs price / (U(q) - U(q-1)) below 1 for CRRA utility
    U(q) = q^(1 - sigma)."""
    out = []
    q = 1
    while True:
        cut = price / (q ** (1.0 - sigma) - (q - 1) ** (1.0 - sigma))
        if cut >= 1.0:
            return out
        out.append(cut)
        q += 1
