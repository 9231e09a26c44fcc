"""Priors on the unit interval and closed interval unions.

The state is one-dimensional. Everything downstream (action cells,
pooling segments, posterior means) is built from two primitives: a prior
with piecewise linear density on [0, 1], and finite unions of closed
subintervals of [0, 1]. All moments have closed forms per linear piece,
so the only iterative numerics in this module is ``find_root``, one
bracketed Brent root finder shared by every mean and mass equation in
the package. It is a plain-float port of scipy's ``Zeros/brentq.c``
that follows it step for step, so the module needs nothing beyond the
standard library.

Zero-density stretches are allowed, so a window can carry no prior
mass. ``Prior.window_mean`` gives such a window the mean of its free
end, the endpoint a mean equation moves; every mean residual then
stays continuous and increasing across the stretch. ``solve_h``, the
one solver of E[state | state in [h, hi]] = target, is built on it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Sequence

# Numeric thresholds of the package, each named once. Every module takes
# its thresholds from this table; tests/test_tolerances.py fails on a
# float in e-notation anywhere else. Roles that share a value keep
# separate names where they answer different questions: INPUT_SLACK
# reads what a caller passed, TIE_MARGIN compares two payoffs and
# NEGLIGIBLE drops what the solvers themselves produced; SNAP_TOL moves
# solver output while AUDIT_TOL only judges it.
#
# Slack on inputs: points, knots and cutoffs this close to 0 or 1 read
# as 0 or 1, and chains of densities, values, gaps and voter cutoffs
# compare equal within it.
INPUT_SLACK = 1e-12
# A candidate replaces the incumbent only when it pays more by this
# margin, so ties go to the earlier, simpler structure.
TIE_MARGIN = 1e-12
# A region with at most this much prior mass has no conditional mean.
NO_MEAN_MASS = 1e-14
# Prior mass or length at or below this is nothing: a region is not
# revealed, a cell gets no atom, a piece or a range of b is empty.
NEGLIGIBLE = 1e-12
# Guard on the mean equations of pooling windows: a residual within it
# of zero counts as solved, a top cell with less mass as empty, and two
# bi-pool targets closer than it as one.
MEAN_GUARD = 1e-13
# A mean this close to a cutoff is root-finder dust and moves onto it;
# LP weights at or below it are solver noise, and a Lorenz constraint
# within it of equality binds.
SNAP_TOL = 1e-9
# Audits of emitted designs: coverage and overlap mass, obedience and
# bi-pool means, distribution totals, payoff targets. A set of at most
# this much prior mass is null for incentive compatibility and for the
# structural implementability check alike.
AUDIT_TOL = 1e-9
# Primal and dual feasibility of the LP solvers (the cell LP's simplex,
# and HiGHS in the lp_value oracle): the most a constraint, a reduced
# cost or the simplex's start may miss by, and the slack of its ratio
# test. Also the largest Lorenz violation the cutting-plane loop
# accepts.
LP_TOL = 1e-10
# The cell LP's simplex pivots only on an entry above PIVOT_TOL in the
# entering column, and one solve gives up after PIVOT_CAP pivots;
# find_root gives up after ROOT_ITERS iterations.
PIVOT_TOL = 1e-9
PIVOT_CAP = 500
ROOT_ITERS = 120
# Absolute and relative bracket width at which find_root stops; the
# relative one is scipy's brentq default, 4 machine epsilons.
ROOT_XTOL = 1e-15
ROOT_RTOL = 8.881784197001252e-16
# Single-use values: the dominance gap is_mpc accepts, the payoff error
# ore_at_payoff accepts where its root lands, and the least gap between
# the seller's quantity cutoffs.
MPC_TOL = 1e-8
LANDING_TOL = 1e-7
SELLER_CUT_GAP = 1e-15
# Evenly spaced points on [0, 1] where the lp_value oracle checks
# integrated-cdf dominance.
CHECK_POINTS = 1001


class SpecError(ValueError):
    """Bad input: schema violations, failed preconditions, invalid objects."""


class SolverError(RuntimeError):
    """A numerical routine could not produce a valid answer."""


class ZeroMassError(SpecError):
    """Conditional moment requested on a set of zero prior mass."""


def _clip01(x: float) -> float:
    if x < -INPUT_SLACK or x > 1.0 + INPUT_SLACK:
        raise SpecError(f"point {x!r} outside the unit interval")
    return min(1.0, max(0.0, x))


def merge_pieces(pieces: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """The pieces sorted, with touching or overlapping ones merged."""
    merged: list[list[float]] = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((a, b) for a, b in merged)


# Set algebra on normalized piece lists: sorted, inside [0, 1], and each
# piece strictly to the left of the next. One linear pass each, and the
# result is normalized again.
Pieces = tuple[tuple[float, float], ...]


def intersect_pieces(xs: Pieces, ys: Pieces) -> Pieces:
    """The pieces of xs intersected with those of ys. Both lists are
    strictly apart within themselves, so no two results touch."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a, b = xs[i]
        c, d = ys[j]
        lo, hi = max(a, c), min(b, d)
        if lo <= hi:
            out.append((lo, hi))
        if b <= d:
            i += 1
        else:
            j += 1
    return tuple(out)


def subtract_pieces(xs: Pieces, ys: Pieces) -> Pieces:
    """Closure of xs minus ys (see ``IntervalUnion.subtract``). The two
    pieces left on either side of a removed point are one piece again."""
    out: list[tuple[float, float]] = []

    def keep(lo: float, hi: float) -> None:
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))

    j = 0
    for a, b in xs:
        while j < len(ys) and ys[j][1] <= a:
            j += 1
        cursor, k = a, j
        while k < len(ys) and ys[k][0] < b and cursor < b:
            c, d = ys[k]
            if c > cursor:
                keep(cursor, c)
            cursor = max(cursor, d)
            k += 1
        # a degenerate piece of xs survives unless ys covers it
        if cursor < b or (cursor == b and not any(c <= b <= d for c, d in ys)):
            keep(cursor, b)
    return tuple(out)


def _checked_piece(lo: float, hi: float) -> tuple[float, float]:
    lo = _clip01(float(lo))
    hi = _clip01(float(hi))
    if hi < lo:
        raise SpecError(f"interval [{lo}, {hi}] is reversed")
    return lo, hi


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields``, in constructor order,
    lists them in ``__slots__`` and sets them in a hand-written
    ``__init__`` with ``object.__setattr__``. Equality and hashing
    compare the tuple of those fields, between instances of one class,
    and repr prints them as ``Name(field=value, ...)``. Assigning or
    deleting an attribute raises AttributeError; copy and pickle restore
    every slot as it was.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the slots, (None, {slot: value}), here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class IntervalUnion(Record):
    """Finite union of closed intervals inside [0, 1].

    Pieces are kept sorted with disjoint interiors; touching or
    overlapping pieces are merged. Degenerate pieces [a, a] are allowed
    and survive normalization unless swallowed by a neighbor.

    The public constructor, ``of`` and ``from_pairs`` check every piece
    (clipped to [0, 1] within INPUT_SLACK, not reversed), then sort and
    merge. ``interval`` checks its two ends. ``union``, ``intersect``,
    ``subtract``, ``hull`` and ``empty`` trust their pieces: the set
    algebra above keeps normalized inputs normalized.
    """

    __slots__ = _fields = ("pieces",)

    def __init__(self, pieces: Pieces) -> None:
        object.__setattr__(self, "pieces", pieces)
        self.__post_init__()

    def __post_init__(self) -> None:
        cleaned = [_checked_piece(lo, hi) for lo, hi in self.pieces]
        object.__setattr__(self, "pieces", merge_pieces(cleaned))

    @classmethod
    def _trusted(cls, pieces: Pieces) -> "IntervalUnion":
        """A union of pieces that are normalized already, unchecked."""
        union = object.__new__(cls)
        object.__setattr__(union, "pieces", pieces)
        return union

    @classmethod
    def of(cls, *pairs: tuple[float, float]) -> "IntervalUnion":
        return cls(tuple(pairs))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls._trusted(())

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def lo(self) -> float:
        if self.is_empty:
            raise SpecError("empty interval union has no bounds")
        return self.pieces[0][0]

    @property
    def hi(self) -> float:
        if self.is_empty:
            raise SpecError("empty interval union has no bounds")
        return self.pieces[-1][1]

    @property
    def length(self) -> float:
        return sum(b - a for a, b in self.pieces)

    def hull(self) -> "IntervalUnion":
        if self.is_empty:
            return self
        return IntervalUnion._trusted(((self.lo, self.hi),))

    def contains(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.pieces)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion._trusted(merge_pieces(self.pieces + other.pieces))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion._trusted(intersect_pieces(self.pieces, other.pieces))

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        """Closed remainder of self minus other.

        The result is the closure of the set difference, so removing a
        degenerate piece or an interior interval leaves closed pieces
        that share endpoints with the removed set. All downstream
        comparisons are up to null sets, which this convention respects.
        """
        return IntervalUnion._trusted(subtract_pieces(self.pieces, other.pieces))

    def to_pairs(self) -> list[list[float]]:
        return [[a, b] for a, b in self.pieces]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "IntervalUnion":
        return cls(tuple((float(p[0]), float(p[1])) for p in pairs))


def interval(lo: float, hi: float) -> IntervalUnion:
    return IntervalUnion._trusted((_checked_piece(lo, hi),))


class Prior(Record):
    """Piecewise linear density on [0, 1], normalized to integrate to one.

    kind is "uniform" or "plinear"; the uniform prior is stored as the
    constant-density special case so every moment shares one code path.
    The constructor also computes each piece's slope, the cumulative
    moments at the knots, the mean and the support end, so a point
    primitive is one bisection for its piece and a few flops. Equality,
    hashing and repr read kind, knots and density only.
    """

    _fields = ("kind", "knots", "density")
    __slots__ = _fields + ("_slopes", "_cums", "mean", "support_end")

    def __init__(
        self, kind: str, knots: tuple[float, ...], density: tuple[float, ...]
    ) -> None:
        if kind not in ("uniform", "plinear"):
            raise SpecError(f"unknown prior kind {kind!r}")
        knots = tuple(float(k) for k in knots)
        dens = tuple(float(d) for d in density)
        if len(knots) != len(dens) or len(knots) < 2:
            raise SpecError("knots and density must align with length >= 2")
        if abs(knots[0]) > INPUT_SLACK or abs(knots[-1] - 1.0) > INPUT_SLACK:
            raise SpecError("knots must span [0, 1]")
        knots = (0.0,) + knots[1:-1] + (1.0,)
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise SpecError("knots must be strictly increasing")
        if any(d < 0.0 for d in dens):
            raise SpecError("density values must be nonnegative")
        total = sum(
            (b - a) * (da + db) / 2.0
            for a, b, da, db in zip(knots, knots[1:], dens, dens[1:])
        )
        if total <= 0.0:
            raise SpecError("density integrates to zero")
        dens = tuple(d / total for d in dens)
        slopes = tuple(
            (dens[i + 1] - dens[i]) / (knots[i + 1] - knots[i])
            for i in range(len(knots) - 1)
        )
        # cumulative cdf, first moment and integrated cdf at the knots
        cf = [0.0]
        cm = [0.0]
        ct = [0.0]
        for a, b, da, db, slope in zip(knots, knots[1:], dens, dens[1:], slopes):
            length = b - a
            cf.append(cf[-1] + length * (da + db) / 2.0)
            cm.append(
                cm[-1]
                + da * (a * length + length**2 / 2.0)
                + slope * (a * length**2 / 2.0 + length**3 / 3.0)
            )
            ct.append(
                ct[-1]
                + cf[-2] * length
                + da * length**2 / 2.0
                + slope * length**3 / 6.0
            )
        # The support ends at the right knot of the last piece whose
        # density is positive at either end: exact where quantile(1.0)
        # inverts a cdf that cancels in a faint tail.
        last = max(i for i, d in enumerate(dens) if d > 0.0)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_cums", (tuple(cf), tuple(cm), tuple(ct)))
        object.__setattr__(self, "mean", cm[-1])
        object.__setattr__(self, "support_end", knots[min(last + 1, len(knots) - 1)])

    # Each point primitive finds its piece by one bisection over the left
    # knots, so x = 1 lands on the last piece. cdf and first_moment are
    # the inner loop of every mean equation, so they clip only a point
    # outside [0, 1].
    def pdf(self, x: float) -> float:
        x = _clip01(x)
        knots = self.knots
        i = bisect_right(knots, x, 0, len(knots) - 1) - 1
        a, b = knots[i], knots[i + 1]
        return self.density[i] + (self.density[i + 1] - self.density[i]) * (
            (x - a) / (b - a)
        )

    def cdf(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            x = _clip01(x)
        knots = self.knots
        i = bisect_right(knots, x, 0, len(knots) - 1) - 1
        s = x - knots[i]
        return self._cums[0][i] + self.density[i] * s + self._slopes[i] * s * s / 2.0

    def first_moment(self, x: float) -> float:
        """Integral of t * f(t) from 0 to x."""
        if not 0.0 <= x <= 1.0:
            x = _clip01(x)
        knots = self.knots
        i = bisect_right(knots, x, 0, len(knots) - 1) - 1
        a = knots[i]
        s = x - a
        return (
            self._cums[1][i]
            + self.density[i] * (a * s + s * s / 2.0)
            + self._slopes[i] * (a * s * s / 2.0 + s**3 / 3.0)
        )

    def _cdf_moment(self, x: float) -> tuple[float, float]:
        """(cdf(x), first_moment(x)) from one bisection, bit for bit."""
        if not 0.0 <= x <= 1.0:
            x = _clip01(x)
        knots = self.knots
        i = bisect_right(knots, x, 0, len(knots) - 1) - 1
        a = knots[i]
        s = x - a
        d, slope = self.density[i], self._slopes[i]
        cdf = self._cums[0][i] + d * s + slope * s * s / 2.0
        moment = (
            self._cums[1][i]
            + d * (a * s + s * s / 2.0)
            + slope * (a * s * s / 2.0 + s**3 / 3.0)
        )
        return cdf, moment

    def integrated_cdf(self, x: float) -> float:
        """Integral of the cdf from 0 to x; convex and increasing."""
        x = _clip01(x)
        knots = self.knots
        i = bisect_right(knots, x, 0, len(knots) - 1) - 1
        s = x - knots[i]
        return (
            self._cums[2][i]
            + self._cums[0][i] * s
            + self.density[i] * s * s / 2.0
            + self._slopes[i] * s**3 / 6.0
        )

    def quantile(self, s: float) -> float:
        """Least x with cdf(x) = s, for s in [0, 1].

        Inverts the quadratic cdf of one linear piece in closed form, so a
        zero-density stretch maps to its left end.
        """
        cf = self._cums[0]
        s = min(max(s, 0.0), cf[-1])
        i = max(bisect_left(cf, s) - 1, 0)
        a, b = self.knots[i], self.knots[i + 1]
        r = s - cf[i]
        if r <= 0.0:
            return a
        if s >= cf[i + 1]:
            return b
        d, slope = self.density[i], self._slopes[i]
        # root of d t + slope t^2 / 2 = r, in the form that does not cancel
        t = 2.0 * r / (d + (max(d * d + 2.0 * slope * r, 0.0)) ** 0.5)
        return min(a + t, b)

    def mass(self, region: IntervalUnion) -> float:
        return sum(self.cdf(b) - self.cdf(a) for a, b in region.pieces)

    def partial_mean(self, region: IntervalUnion) -> float:
        """Conditional expectation of the state given the region."""
        ends = [(self._cdf_moment(a), self._cdf_moment(b)) for a, b in region.pieces]
        m = sum(fb - fa for (fa, _), (fb, _) in ends)
        if m <= NO_MEAN_MASS:
            raise ZeroMassError(f"region {region.pieces!r} carries no prior mass")
        return sum(mb - ma for (_, ma), (_, mb) in ends) / m

    def window_mean(self, a: float, b: float, empty: float) -> float:
        """Conditional expectation of the state on [a, b], or empty when
        the window carries no prior mass.

        Callers pass the window's free end as empty: as the free end
        closes in on the prior's last mass, the mean tends to that end,
        so a residual in it stays continuous and increasing across
        zero-density stretches.
        """
        fa, ma = self._cdf_moment(a)
        fb, mb = self._cdf_moment(b)
        if fb - fa <= NO_MEAN_MASS:
            return empty
        return (mb - ma) / (fb - fa)

    def to_obj(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform"}
        return {
            "kind": "plinear",
            "knots": list(self.knots),
            "density": list(self.density),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Prior":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise SpecError("prior object must be a dict with a 'kind' field")
        kind = obj["kind"]
        if kind == "uniform":
            return uniform_prior()
        if kind == "plinear":
            try:
                return cls("plinear", tuple(obj["knots"]), tuple(obj["density"]))
            except KeyError as exc:
                raise SpecError(f"plinear prior missing field {exc}") from exc
        raise SpecError(f"unknown prior kind {kind!r}")


def uniform_prior() -> Prior:
    return Prior("uniform", (0.0, 1.0), (1.0, 1.0))


def plinear_prior(knots: Sequence[float], density: Sequence[float]) -> Prior:
    return Prior("plinear", tuple(knots), tuple(density))


def find_root(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of f on the bracket [a, b] by Brent's method.

    A step-for-step port of scipy's ``Zeros/brentq.c`` at xtol
    ROOT_XTOL and rtol ROOT_RTOL, so it returns bitwise the root
    ``scipy.optimize.brentq`` does. An endpoint whose residual is
    exactly zero is returned as is. Endpoints with the same strict
    sign, a NaN residual, or no convergence within ROOT_ITERS
    iterations raise SolverError.
    """
    fpre = f(a)
    if fpre != fpre:
        raise SolverError(f"residual is NaN at x={a!r}")
    if fpre == 0.0:
        return a
    fcur = f(b)
    if fcur != fcur:
        raise SolverError(f"residual is NaN at x={b!r}")
    if fcur == 0.0:
        return b
    if (fpre > 0) == (fcur > 0):
        raise SolverError(
            f"no bracket: residual has the same sign at both endpoints "
            f"({fpre:.3e} and {fcur:.3e})"
        )
    # xcur is the best estimate, xblk the point across the root from it
    # and xpre the estimate before xcur; scur and spre are the last two
    # steps.
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_ITERS):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # no short step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's step is inf or nan: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise SolverError(f"residual is NaN at x={xcur!r}")
    raise SolverError(f"root finder did not converge in {ROOT_ITERS} iterations")


def solve_h(prior: Prior, target: float, hi: float) -> float:
    """Lower end h of the window [h, hi] whose conditional mean is target.

    With h as the free end of ``Prior.window_mean``, the mean rises in h
    from that of [0, hi] to hi, so one ``find_root`` call finds h
    whenever target <= hi. When the mean of [0, hi] already reaches
    target, h is 0.
    """
    if not (0.0 <= target <= hi <= 1.0):
        raise SpecError(f"need 0 <= target <= hi <= 1, got ({target}, {hi})")

    def residual(h: float) -> float:
        return prior.window_mean(h, hi, h) - target

    if residual(0.0) >= 0.0:
        return 0.0
    # the mean of [target, hi] is at least target, so a residual at or
    # below zero there is rounding, as on a window of next to no mass
    if residual(target) <= 0.0:
        return target
    return find_root(residual, 0.0, target)
