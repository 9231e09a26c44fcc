import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from disclosure_lab import (
    IntervalUnion,
    SolverError,
    SpecError,
    ZeroMassError,
    interval,
    plinear_prior,
    solve_h,
    uniform_prior,
)
from disclosure_lab import prior as prior_module
from disclosure_lab.prior import INPUT_SLACK, ROOT_RTOL, ROOT_XTOL, find_root

from conftest import random_gapped_prior


def simpson_integral(f, a, b, n=400):
    """Composite Simpson rule, an oracle independent of the closed forms."""
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for k in range(1, n):
        total += f(a + k * h) * (4 if k % 2 else 2)
    return total * h / 3.0


def test_interval_union_merges_overlaps():
    u = IntervalUnion.of((0.0, 0.3), (0.2, 0.5), (0.7, 0.8))
    assert u.pieces == ((0.0, 0.5), (0.7, 0.8))
    assert u.length == pytest.approx(0.6)
    assert u.lo == 0.0 and u.hi == 0.8


def test_interval_union_degenerate_points_kept():
    u = IntervalUnion.of((0.4, 0.4))
    assert not u.is_empty
    assert u.length == 0.0
    assert u.contains(0.4)
    assert not u.contains(0.40001)


def test_interval_union_subtract_splits():
    u = interval(0.0, 1.0).subtract(interval(0.3, 0.6))
    assert u.pieces == ((0.0, 0.3), (0.6, 1.0))


def test_interval_union_intersect():
    a = IntervalUnion.of((0.0, 0.4), (0.6, 1.0))
    b = interval(0.3, 0.7)
    assert a.intersect(b).pieces == ((0.3, 0.4), (0.6, 0.7))


def test_empty_union_has_no_bounds():
    e = IntervalUnion.empty()
    assert e.is_empty
    with pytest.raises(SpecError):
        e.lo


@st.composite
def unions(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pieces = []
    for _ in range(n):
        a = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        pieces.append((min(a, b), max(a, b)))
    return IntervalUnion.of(*pieces)


@settings(max_examples=200, derandomize=True)
@given(unions(), unions())
def test_union_subtract_partition_lengths(a, b):
    """subtract and intersect split a into two disjoint parts."""
    inside = a.intersect(b)
    outside = a.subtract(b)
    assert inside.intersect(outside).length == pytest.approx(0.0, abs=1e-12)
    assert inside.length + outside.length == pytest.approx(
        a.length, abs=1e-12
    )


@settings(max_examples=200, derandomize=True)
@given(unions(), unions(), st.floats(min_value=0.0, max_value=1.0))
def test_union_membership_is_pointwise_or(a, b, x):
    assert a.union(b).contains(x) == (a.contains(x) or b.contains(x))


def _random_union(rng):
    """A union of up to five pieces, many of them degenerate or with an
    end on a coarse grid, so that pieces touch and reach 0 and 1."""
    def end():
        if rng.random() < 0.5:
            return float(rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)))
        return float(rng.random())

    pieces = []
    for _ in range(int(rng.integers(0, 6))):
        a = end()
        b = a if rng.random() < 0.3 else end()
        pieces.append((min(a, b), max(a, b)))
    return IntervalUnion(tuple(pieces))


def test_set_operation_results_are_normalized():
    """union, intersect, subtract and hull build their results without
    the constructor's checks. Each result equals its own pieces rebuilt
    by the public constructor under ==, hash and repr, intersect and
    union equal the pairwise and concatenated references, and a result
    stays immutable. interval() still checks its two ends."""
    rng = np.random.default_rng(29)
    seen = {"degenerate": 0, "touching": 0, "at 0": 0, "at 1": 0}
    for _ in range(1000):
        x, y = _random_union(rng), _random_union(rng)
        seen["degenerate"] += any(a == b for a, b in x.pieces)
        seen["touching"] += any(b == c or a == d for a, b in x.pieces for c, d in y.pieces)
        seen["at 0"] += not x.is_empty and x.lo == 0.0
        seen["at 1"] += not x.is_empty and x.hi == 1.0
        pairwise = IntervalUnion(tuple(
            (max(a, c), min(b, d))
            for a, b in x.pieces for c, d in y.pieces if max(a, c) <= min(b, d)
        ))
        assert x.intersect(y) == pairwise
        assert x.union(y) == IntervalUnion(x.pieces + y.pieces)
        for got in (x.union(y), x.intersect(y), x.subtract(y), x.hull()):
            rebuilt = IntervalUnion(got.pieces)
            assert got == rebuilt
            assert hash(got) == hash(rebuilt)
            assert repr(got) == repr(rebuilt)
            with pytest.raises(AttributeError):
                got.pieces = ()
    assert min(seen.values()) >= 75, seen
    # the two sides of a removed point are one piece again
    assert interval(0.0, 1.0).subtract(IntervalUnion.of((0.5, 0.5))).pieces == ((0.0, 1.0),)
    with pytest.raises(SpecError, match="reversed"):
        interval(0.6, 0.4)
    for lo, hi in ((-2 * INPUT_SLACK, 0.5), (0.5, 1.0 + 2 * INPUT_SLACK)):
        with pytest.raises(SpecError, match="outside the unit interval"):
            interval(lo, hi)
    assert interval(-INPUT_SLACK / 2, 1.0 + INPUT_SLACK / 2).pieces == ((0.0, 1.0),)


def test_uniform_prior_moments():
    u = uniform_prior()
    assert u.mean == pytest.approx(0.5, abs=1e-15)
    assert u.cdf(0.3) == pytest.approx(0.3, abs=1e-15)
    assert u.first_moment(0.4) == pytest.approx(0.08, abs=1e-15)
    assert u.integrated_cdf(1.0) == pytest.approx(0.5, abs=1e-15)
    assert u.partial_mean(interval(0.2, 0.6)) == pytest.approx(0.4, abs=1e-14)


def test_plinear_prior_closed_form():
    """f(x) = 0.5 + x is already normalized and spans both knot pieces."""
    p = plinear_prior((0.0, 0.5, 1.0), (0.5, 1.0, 1.5))
    assert p.mean == pytest.approx(7.0 / 12.0, abs=1e-14)
    assert p.cdf(0.25) == pytest.approx(0.15625, abs=1e-14)
    assert p.cdf(0.5) == pytest.approx(0.375, abs=1e-14)
    assert p.first_moment(1.0) == pytest.approx(7.0 / 12.0, abs=1e-14)
    assert p.integrated_cdf(1.0) == pytest.approx(5.0 / 12.0, abs=1e-14)


def test_plinear_density_normalized():
    p = plinear_prior((0.0, 1.0), (2.0, 6.0))
    assert p.cdf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert p.pdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert p.pdf(1.0) == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize(
    "knots,density",
    [
        ((0.0, 1.0), (1.0,)),
        ((0.2, 1.0), (1.0, 1.0)),
        ((0.0, 0.5, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0)),
        ((0.0, 1.0), (-1.0, 2.0)),
        ((0.0, 1.0), (0.0, 0.0)),
    ],
)
def test_bad_priors_rejected(knots, density):
    with pytest.raises(SpecError):
        plinear_prior(knots, density)


def test_moments_match_quadrature():
    """Closed-form cumulatives against an independent Simpson rule.

    The rule runs piecewise between knots because Simpson is only
    exact for smooth integrands.
    """
    p = plinear_prior((0.0, 0.3, 0.8, 1.0), (0.4, 1.1, 1.3, 2.0))

    def quad(f, x):
        pts = [0.0] + [k for k in p.knots if 0.0 < k < x] + [x]
        return sum(
            simpson_integral(f, lo, hi) for lo, hi in zip(pts, pts[1:])
        )

    for x in (0.1, 0.3, 0.55, 0.8, 0.97, 1.0):
        assert_allclose(p.cdf(x), quad(p.pdf, x), atol=1e-10)
        assert_allclose(
            p.first_moment(x), quad(lambda t: t * p.pdf(t), x), atol=1e-10
        )
        assert_allclose(p.integrated_cdf(x), quad(p.cdf, x), atol=1e-10)


def test_mass_additive_over_disjoint_pieces():
    p = plinear_prior((0.0, 0.6, 1.0), (0.5, 1.5, 1.0))
    left = interval(0.1, 0.4)
    right = interval(0.4, 0.9)
    both = left.union(right)
    assert p.mass(both) == pytest.approx(
        p.mass(left) + p.mass(right), abs=1e-14
    )


def test_integrated_cdf_is_convex():
    """T(x) has the cdf for a derivative, so finite differences of T
    recover F and grow monotonically."""
    p = plinear_prior((0.0, 0.5, 1.0), (0.2, 1.0, 1.8))
    xs = np.linspace(0.0, 1.0, 201)
    t = np.array([p.integrated_cdf(x) for x in xs])
    diffs = np.diff(t)
    assert np.all(np.diff(diffs) >= -1e-12)
    mid_fd = (t[2:] - t[:-2]) / (xs[2] - xs[0])
    mid_f = np.array([p.cdf(x) for x in xs[1:-1]])
    assert np.max(np.abs(mid_fd - mid_f)) < 5e-5


def test_partial_mean_zero_mass_raises():
    u = uniform_prior()
    with pytest.raises(ZeroMassError):
        u.partial_mean(interval(0.5, 0.5))


def test_quantile_inverts_the_cdf():
    """Round trips on increasing, decreasing and zero-touching pieces; a
    zero-density stretch maps to its left end, and so do s = 0 and,
    with an empty tail, s = 1."""
    gapped = plinear_prior((0.0, 0.3, 0.4, 0.6, 0.8, 1.0), (0.0, 2.0, 0.0, 0.0, 1.5, 0.0))
    for prior in (uniform_prior(), plinear_prior((0.0, 0.4, 1.0), (2.0, 0.5, 1.5)), gapped):
        for x in np.linspace(0.0, 1.0, 41):
            got = prior.quantile(prior.cdf(x))
            assert prior.cdf(got) == pytest.approx(prior.cdf(x), abs=1e-13)
            if prior.pdf(x) > 0.05:  # the inverse is ill-conditioned where f -> 0
                assert got == pytest.approx(x, abs=1e-12)
        assert prior.quantile(0.0) == 0.0
    assert uniform_prior().quantile(1.0) == 1.0
    assert gapped.quantile(gapped.cdf(0.5)) == pytest.approx(0.4, abs=1e-15)
    tail = plinear_prior((0.0, 0.5, 0.6, 1.0), (1.0, 1.0, 0.0, 0.0))
    assert tail.quantile(1.0) == pytest.approx(0.6, abs=1e-15)
    head = plinear_prior((0.0, 0.2, 1.0), (0.0, 0.0, 1.0))
    assert head.quantile(0.0) == 0.0
    assert head.quantile(1e-9) > 0.2


class _PerCallSlopes:
    """The point primitives as written with each piece's slope recomputed
    on every call, kept as the reference the slope table must match."""

    def __init__(self, prior):
        self.k, self.d = prior.knots, prior.density
        cf, cm, ct = [0.0], [0.0], [0.0]
        for a, b, da, db in zip(self.k, self.k[1:], self.d, self.d[1:]):
            length = b - a
            slope = (db - da) / length
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
        self.cums = cf, cm, ct

    def _piece(self, x):
        i = bisect.bisect_right(self.k, x) - 1
        return min(max(i, 0), len(self.k) - 2)

    def pdf(self, x):
        i = self._piece(x)
        a, b = self.k[i], self.k[i + 1]
        return self.d[i] + (self.d[i + 1] - self.d[i]) * ((x - a) / (b - a))

    def cdf(self, x):
        k, d = self.k, self.d
        i = min(bisect.bisect_right(k, x), len(k) - 1) - 1
        a = k[i]
        s = x - a
        slope = (d[i + 1] - d[i]) / (k[i + 1] - a)
        return self.cums[0][i] + d[i] * s + slope * s * s / 2.0

    def first_moment(self, x):
        k, d = self.k, self.d
        i = min(bisect.bisect_right(k, x), len(k) - 1) - 1
        a = k[i]
        s = x - a
        slope = (d[i + 1] - d[i]) / (k[i + 1] - a)
        return (
            self.cums[1][i]
            + d[i] * (a * s + s * s / 2.0)
            + slope * (a * s * s / 2.0 + s**3 / 3.0)
        )

    def integrated_cdf(self, x):
        i = self._piece(x)
        a, b = self.k[i], self.k[i + 1]
        s = x - a
        slope = (self.d[i + 1] - self.d[i]) / (b - a)
        return (
            self.cums[2][i]
            + self.cums[0][i] * s
            + self.d[i] * s * s / 2.0
            + slope * s**3 / 6.0
        )

    def quantile(self, s):
        cf = self.cums[0]
        s = min(max(s, 0.0), cf[-1])
        i = max(bisect.bisect_left(cf, s) - 1, 0)
        a, b = self.k[i], self.k[i + 1]
        r = s - cf[i]
        if r <= 0.0:
            return a
        if s >= cf[i + 1]:
            return b
        d = self.d[i]
        slope = (self.d[i + 1] - d) / (b - a)
        t = 2.0 * r / (d + (max(d * d + 2.0 * slope * r, 0.0)) ** 0.5)
        return min(a + t, b)


def test_point_primitives_are_bitwise_the_per_call_slope_formulas():
    """The slope table and the one-bisection piece search change no bit
    of cdf, first_moment, integrated_cdf, pdf or quantile: at 0, at 1, at
    every knot and at random points, on 50 priors, half of them with
    zero-density pieces. The paired (cdf, first_moment) primitive is
    those two bit for bit there and at points just outside [0, 1] that
    clip."""
    rng = np.random.default_rng(23)
    priors = [uniform_prior()] + [random_gapped_prior(rng) for _ in range(25)]
    for _ in range(24):
        inner = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(0, 6))))
        knots = (0.0, *inner.tolist(), 1.0)
        density = rng.uniform(0.05, 3.0, size=len(knots))
        priors.append(plinear_prior(knots, density.tolist()))
    zero_pieces = 0
    for prior in priors:
        ref = _PerCallSlopes(prior)
        zero_pieces += any(
            a == b == 0.0 for a, b in zip(prior.density, prior.density[1:])
        )
        xs = [0.0, 1.0, *prior.knots, *rng.uniform(0.0, 1.0, size=40).tolist()]
        for x in xs:
            for name in ("cdf", "first_moment", "integrated_cdf", "pdf"):
                got, want = getattr(prior, name)(x), getattr(ref, name)(x)
                assert got.hex() == want.hex(), (name, prior, x)
        for x in [*xs, -INPUT_SLACK / 2, 1.0 + INPUT_SLACK / 2]:
            cdf, moment = prior._cdf_moment(x)
            assert cdf.hex() == prior.cdf(x).hex(), (prior, x)
            assert moment.hex() == prior.first_moment(x).hex(), (prior, x)
        for s in [0.0, 1.0, *ref.cums[0], *(ref.cdf(x) for x in xs),
                  *rng.uniform(0.0, 1.0, size=40).tolist()]:
            assert prior.quantile(s).hex() == ref.quantile(s).hex(), (prior, s)
    assert zero_pieces >= 10


def test_support_end_is_a_knot():
    """The right knot of the last piece with density at either end."""
    assert uniform_prior().support_end == 1.0
    assert plinear_prior((0.0, 0.5, 0.6, 1.0), (1.0, 1.0, 0.0, 0.0)).support_end == 0.6
    assert plinear_prior((0.0, 0.3, 0.8, 1.0), (0.0, 2.0, 1.5, 0.0)).support_end == 1.0
    faint = plinear_prior((0.0, 0.3, 1.0), (1.0, 1e-13, 1e-13))
    assert faint.support_end == 1.0 > faint.quantile(1.0)


def test_solve_h_uniform_goldens():
    """On the uniform prior the mean of [h, hi] is (h + hi) / 2, so
    h = 2 target - hi, clipped at 0; Brent stops at a 1e-15 bracket."""
    u = uniform_prior()
    assert solve_h(u, 0.5, 0.9) == pytest.approx(0.1, abs=1e-12)
    assert solve_h(u, 1.0 / 3.0, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-12)
    assert solve_h(u, 0.6, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert solve_h(u, 0.75, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert solve_h(u, 0.1, 0.3) == 0.0
    assert solve_h(u, 0.9, 0.9) == 0.9


def test_solve_mean_equation_simple_family():
    """The family of windows [t, 1] on the uniform prior has mean 0.75
    at t = 0.5, and the window found carries that mean."""
    u = uniform_prior()
    root = solve_h(u, 0.75, 1.0)
    assert root == pytest.approx(0.5, abs=1e-9)
    assert u.partial_mean(interval(root, 1.0)) == pytest.approx(
        0.75, abs=1e-10
    )


def test_solve_h_matches_definition_on_plinear():
    p = plinear_prior((0.0, 1.0), (0.5, 1.5))
    h = solve_h(p, 0.55, 0.8)
    assert p.partial_mean(interval(h, 0.8)) == pytest.approx(0.55, abs=1e-9)


def test_window_mean_reads_an_empty_window_as_given():
    p = plinear_prior((0.0, 0.3, 0.6, 1.0), (1.0, 1.0, 0.0, 0.0))
    assert p.window_mean(0.1, 0.5, 0.5) == p.partial_mean(interval(0.1, 0.5))
    assert p.window_mean(0.7, 0.9, 0.7) == 0.7
    assert p.window_mean(0.4, 0.4, 0.4) == 0.4
    with pytest.raises(ZeroMassError):
        p.partial_mean(interval(0.7, 0.9))


def test_solve_h_across_a_zero_density_stretch():
    """All mass sits on [0, 0.283], so every window [h, 0.9] with h
    past it is empty and reads as mean h: the root is the target."""
    p = plinear_prior((0.0, 0.283, 0.529, 0.556, 0.728, 1.0),
                      (7.07, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert solve_h(p, 0.63, 0.9) == pytest.approx(0.63, abs=1e-12)
    h = solve_h(p, 0.2, 0.9)
    assert h < 0.283
    assert p.partial_mean(interval(h, 0.9)) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(SpecError):
        solve_h(p, 0.95, 0.9)


def test_find_root_converges():
    assert find_root(lambda x: x**3 - 2.0, 0.0, 2.0) == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-12
    )
    # the plinear cdf is a quadratic per piece, so its inverse is closed form
    p = plinear_prior((0.0, 1.0), (0.5, 1.5))
    root = find_root(lambda x: p.cdf(x) - 0.3, 0.0, 1.0)
    assert root == pytest.approx((-1.0 + math.sqrt(1.0 + 2.4)) / 2.0, abs=1e-12)


def test_find_root_returns_exact_endpoint():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert find_root(f, 0.25, 1.0) == 0.25
    assert calls == [0.25]
    assert find_root(f, 0.0, 0.25) == 0.25


def test_find_root_same_sign_raises():
    with pytest.raises(SolverError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_non_convergence_is_solver_error(monkeypatch):
    monkeypatch.setattr(prior_module, "ROOT_ITERS", 2)
    with pytest.raises(SolverError) as info:
        find_root(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert type(info.value) is SolverError


@pytest.mark.parametrize("bad", [0.0, 1.0, None])
def test_find_root_nan_residual_is_solver_error(bad):
    """A NaN at either endpoint or at an iterate names its point; None
    puts the NaN everywhere inside the bracket."""

    def f(x):
        inside = bad is None and 0.0 < x < 1.0
        return math.nan if x == bad or inside else x - 0.3

    with pytest.raises(SolverError, match="residual is NaN at x=") as info:
        find_root(f, 0.0, 1.0)
    if bad is not None:
        assert f"x={bad!r}" in str(info.value)


def _differential_residuals():
    """Seeded (name, f, a, b) brackets: cubics, cdf and window-mean
    equations of plinear priors with zero-density stretches, a residual
    flat at zero across a gap, a cubic scaled near underflow, and the
    +1/-1 feasibility step that the nested three-action search
    brackets."""
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 40:
        c = [float(v) for v in rng.uniform(-2.0, 2.0, size=4)]
        a, b = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))

        def cubic(x, c=c):
            return ((c[3] * x + c[2]) * x + c[1]) * x + c[0]

        if cubic(a) * cubic(b) < 0.0:
            cases.append((f"cubic{len(cases)}", cubic, a, b))
    for k in range(40):
        p = random_gapped_prior(rng)
        t = float(rng.uniform(0.02, 0.98))
        cases.append((f"cdf{k}", lambda x, p=p, t=t: p.cdf(x) - t, 0.0, 1.0))
        hi = float(rng.uniform(0.3, 1.0))
        target = float(rng.uniform(0.0, hi))

        def mean_res(h, p=p, hi=hi, target=target):
            return p.window_mean(h, hi, h) - target

        if mean_res(0.0) < 0.0:
            cases.append((f"window{k}", mean_res, 0.0, target))
    # flat at zero on [0.3, 0.6]: the root is any point there
    p = plinear_prior((0.0, 0.3, 0.6, 1.0), (2.0, 0.0, 0.0, 2.0))
    flat = p.cdf(0.3)
    cases.append(("flat", lambda x: p.cdf(x) - flat, 0.0, 1.0))
    cases.append(("flat-above", lambda x: p.cdf(x) - flat - 1e-3, 0.0, 1.0))
    # near 1e-300 the extrapolation step divides by an underflowed zero
    cases.append(("tiny", lambda x: 1e-300 * (x - 0.3) * (x * x + 0.5), -1.0, 2.0))
    for k in range(20):
        s = float(rng.uniform(0.1, 0.9))
        cases.append((f"step{k}", lambda b, s=s: 1.0 if b <= s else -1.0, 0.0, 1.0))
    return cases


def test_find_root_is_bitwise_brentq(monkeypatch):
    assert ROOT_RTOL == 4 * np.finfo(float).eps
    for name, f, a, b in _differential_residuals():
        calls = []

        def counted(x, f=f):
            calls.append(x)
            return f(x)

        root, info = brentq(f, a, b, xtol=ROOT_XTOL, full_output=True)
        assert find_root(counted, a, b).hex() == root.hex(), name
        assert len(calls) == info.function_calls, name
        # cut short, both give up on the same iteration count
        for iters in range(1, info.iterations + 1):
            _, short = brentq(f, a, b, xtol=ROOT_XTOL, maxiter=iters,
                              full_output=True, disp=False)
            monkeypatch.setattr(prior_module, "ROOT_ITERS", iters)
            if short.converged:
                assert find_root(f, a, b).hex() == root.hex(), name
            else:
                with pytest.raises(SolverError, match="did not converge"):
                    find_root(f, a, b)
        monkeypatch.undo()


def test_prior_round_trip():
    p = plinear_prior((0.0, 0.4, 1.0), (0.3, 1.2, 1.6))
    from disclosure_lab import Prior

    q = Prior.from_obj(p.to_obj())
    assert q.knots == p.knots
    assert_allclose(q.density, p.density, atol=1e-15)
    assert Prior.from_obj({"kind": "uniform"}).mean == 0.5


def test_simpson_matches_known_integral():
    assert simpson_integral(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-9
    )
