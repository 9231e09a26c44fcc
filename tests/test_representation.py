import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from disclosure_lab import (
    DeterministicRepresentation,
    GameSpec,
    IntervalUnion,
    SolverError,
    SpecError,
    check_prop2,
    commitment_solution,
    feasible_bipool,
    induced_distribution,
    interval,
    is_incentive_compatible,
    is_laminar,
    is_mpc,
    is_obedient,
    nested_interval_rep,
    plinear_prior,
    representation_payoff,
    uniform_prior,
)
from disclosure_lab.representation import ICReport, validate_representation

from conftest import random_three_action


def bisect_scalar(f, lo, hi, tol=1e-13):
    """Plain bisection, independent of the package's root finders."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if (flo > 0) == (f(mid) > 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nested_pair_oracle(prior, outer, z_lo, z_hi):
    """Independent route to the inner interval: for a left endpoint a,
    grow the right endpoint until the inner mean hits z_lo, then move a
    until the remainder mean hits z_hi."""

    def b_for(a):
        lo, hi = a, outer.hi
        f = lambda b: prior.partial_mean(interval(a, b)) - z_lo
        if f(hi) <= 0.0:
            return hi
        return bisect_scalar(f, lo + 1e-12, hi)

    def remainder_res(a):
        b = b_for(a)
        rem = outer.subtract(interval(a, b))
        return prior.partial_mean(rem) - z_hi

    lo = outer.lo
    hi = z_lo
    a = bisect_scalar(remainder_res, lo, hi)
    return a, b_for(a)


def test_nested_rep_golden_equal_thirds():
    u = uniform_prior()
    outer = interval(8.0 / 48.0, 1.0)
    inner, rem = nested_interval_rep(u, outer, 1.0 / 3.0, 2.0 / 3.0)
    assert_allclose(
        inner.pieces, [(11.0 / 48.0, 21.0 / 48.0)], atol=1e-8
    )
    assert u.partial_mean(inner) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert u.partial_mean(rem) == pytest.approx(
        2.0 / 3.0, abs=1e-9
    )


def test_nested_rep_golden_tight_cutoffs():
    u = uniform_prior()
    outer = interval(4.0 / 15.0, 1.0)
    inner, _ = nested_interval_rep(u, outer, 0.6, 0.7)
    assert_allclose(
        inner.pieces, [(16.0 / 45.0, 38.0 / 45.0)], atol=1e-8
    )


def test_nested_rep_matches_independent_root_finder():
    priors = [
        uniform_prior(),
        plinear_prior((0.0, 0.5, 1.0), (0.4, 1.0, 1.9)),
    ]
    cases = [
        (interval(0.1, 1.0), 0.45, 0.75),
        (interval(0.0, 0.9), 0.3, 0.6),
        (interval(0.2, 0.95), 0.5, 0.8),
    ]
    for prior in priors:
        for outer, z_lo, z_hi in cases:
            inner, _ = nested_interval_rep(prior, outer, z_lo, z_hi)
            a, b = nested_pair_oracle(prior, outer, z_lo, z_hi)
            assert inner.lo == pytest.approx(a, abs=1e-7)
            assert inner.hi == pytest.approx(b, abs=1e-7)


def test_nested_rep_mass_split_identity():
    u = uniform_prior()
    outer = interval(0.1, 1.0)
    z_lo, z_hi = 0.4, 0.8
    inner, _ = nested_interval_rep(u, outer, z_lo, z_hi)
    m = u.partial_mean(outer)
    want = u.mass(outer) * (z_hi - m) / (z_hi - z_lo)
    assert u.mass(inner) == pytest.approx(want, abs=1e-9)


def test_nested_rep_is_locally_unique():
    """Nudging either inner endpoint off the solution breaks one of
    the two barycenter equations by far more than the solve tolerance."""
    u = uniform_prior()
    outer = interval(0.1, 1.0)
    z_lo, z_hi = 0.45, 0.75
    found, _ = nested_interval_rep(u, outer, z_lo, z_hi)
    a, b = found.lo, found.hi
    for da, db in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        inner = interval(a + da, b + db)
        r1 = abs(u.partial_mean(inner) - z_lo)
        r2 = abs(u.partial_mean(outer.subtract(inner)) - z_hi)
        assert max(r1, r2) > 1e-6


def test_feasible_bipool_goldens():
    u = uniform_prior()
    assert feasible_bipool(u, interval(0.0, 1.0), 0.25, 0.75)
    assert not feasible_bipool(u, interval(0.0, 1.0), 0.25, 0.9)


def test_infeasible_bipool_raises():
    u = uniform_prior()
    with pytest.raises((SpecError, SolverError)):
        nested_interval_rep(u, interval(0.0, 1.0), 0.25, 0.9)


@pytest.mark.parametrize(
    "z_lo, z_hi, split",
    [
        (0.5, 0.5, ("outer", "empty")),
        (0.5, 0.8, ("outer", "empty")),
        (0.2, 0.5, ("empty", "outer")),
        (0.6, 0.8, "incompatible"),
        (0.4, 0.4, "degenerate targets"),
    ],
)
def test_nested_rep_degenerate_splits(z_lo, z_hi, split):
    """The split's early returns and its straddle check on [0, 1], mean
    0.5: a part the targets leave no mass is empty, and targets that
    cannot average to the outer mean raise."""
    u = uniform_prior()
    outer = interval(0.0, 1.0)
    if isinstance(split, str):
        with pytest.raises(SolverError, match=split):
            nested_interval_rep(u, outer, z_lo, z_hi)
        return
    parts = {"outer": outer, "empty": IntervalUnion.empty()}
    assert nested_interval_rep(u, outer, z_lo, z_hi) == tuple(parts[p] for p in split)


def test_representation_payoff_and_audits(gk2016):
    cells = (
        interval(0.0, 8.0 / 48.0),
        interval(11.0 / 48.0, 21.0 / 48.0),
        interval(8.0 / 48.0, 11.0 / 48.0).union(interval(21.0 / 48.0, 1.0)),
    )
    rep = DeterministicRepresentation(cells)
    assert validate_representation(gk2016, rep) == []
    assert representation_payoff(gk2016, rep) == pytest.approx(
        100.0 / 48.0, abs=1e-12
    )
    assert is_obedient(gk2016, rep).ok
    assert is_incentive_compatible(gk2016, rep).ok
    assert is_laminar(rep)
    assert check_prop2(gk2016, rep).ok


def test_full_pooling_rep_fails_ic(exs):
    """Pooling everything on action 1 leaves the top region uncovered
    for action 2, which a deviator with high evidence exploits."""
    rep = DeterministicRepresentation(
        (
            interval(0.0, 0.0),
            interval(0.0, 1.0),
            interval(0.9, 0.9),
        )
    )
    assert is_obedient(exs, rep).ok
    ic = is_incentive_compatible(exs, rep)
    assert not ic.ok
    assert ic.action == 2
    assert ic.uncovered.pieces == ((0.9, 1.0),)
    report = check_prop2(exs, rep)
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "skipped-action"
    assert v.action == 2
    assert v.cell == 1
    assert v.sup == pytest.approx(1.0, abs=1e-12)
    assert v.bound == pytest.approx(0.9, abs=1e-12)
    assert "action 2 is skipped" in v.describe()


def test_nested_pair_rep_fails_ic(exy):
    cells = (
        interval(0.0, 4.0 / 15.0),
        interval(16.0 / 45.0, 38.0 / 45.0),
        interval(4.0 / 15.0, 16.0 / 45.0).union(interval(38.0 / 45.0, 1.0)),
    )
    rep = DeterministicRepresentation(cells)
    assert is_obedient(exy, rep).ok
    ic = is_incentive_compatible(exy, rep)
    assert not ic.ok
    report = check_prop2(exy, rep)
    assert not report.ok
    v = report.violations[0]
    assert v.kind == "nested-pair"
    assert v.action == 2
    assert v.cell == 1
    assert v.sup == pytest.approx(38.0 / 45.0, abs=1e-9)
    assert v.bound == pytest.approx(0.7, abs=1e-12)
    assert "inner cell 1" in v.describe()


def test_prop2_matches_ic_on_commitment_canonicals():
    """On canonical representations the structural conditions and the
    coverage form of incentive compatibility agree."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        spec = random_three_action(rng)
        rep = commitment_solution(spec).canonical
        structural = check_prop2(spec, rep).ok
        coverage = is_incentive_compatible(spec, rep).ok
        assert structural == coverage


def test_induced_distribution_is_feasible(gk2016):
    cells = (
        interval(0.0, 8.0 / 48.0),
        interval(11.0 / 48.0, 21.0 / 48.0),
        interval(8.0 / 48.0, 11.0 / 48.0).union(interval(21.0 / 48.0, 1.0)),
    )
    rep = DeterministicRepresentation(cells)
    dist = induced_distribution(gk2016, rep)
    assert dist.validate(gk2016.prior) == []
    assert is_mpc(gk2016.prior, dist)
    locs = sorted(x for x, _ in dist.atoms)
    assert_allclose(locs, [1.0 / 12.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-9)


# Hand-built representations for the piece-list audits, on gk2016 unless
# marked "gapped": a prior with no mass on [0.4, 0.6]. Each maps to the
# validate_representation problems, is_laminar verdict and
# is_incentive_compatible report that the union-based audits gave.
_GAPPED = GameSpec(
    plinear_prior((0.0, 0.4, 0.6, 1.0), (1.0, 0.0, 0.0, 1.0)),
    (0.0, 0.3, 0.7, 1.0), (0.0, 1.0, 2.0),
)
_AUDIT_CASES = {
    "overlap": ((0.0, 0.5), (0.4, 0.8), (0.8, 1.0)),
    "gap": ((0.0, 0.2), (0.4, 0.8), (0.8, 1.0)),
    "touching": ((0.0, 0.5), (0.5, 0.8), (0.8, 1.0)),
    "anchor inside": ((0.0, 0.5), (1.0 / 3.0, 1.0 / 3.0), (0.5, 1.0)),
    "anchor on top": ((0.0, 0.5), (0.5, 1.0), (2.0 / 3.0, 2.0 / 3.0)),
    "gapped, empty gap": ((0.0, 0.45), (0.55, 0.8), (0.8, 1.0)),
    "gapped, gap with mass": ((0.0, 0.3), (0.55, 0.8), (0.8, 1.0)),
    "overlap above tol": ((0.0, 0.5 + 2e-9), (0.5, 0.8), (0.8, 1.0)),
    "overlap below tol": ((0.0, 0.5 + 5e-10), (0.5, 0.8), (0.8, 1.0)),
}
_AUDITS = {
    "overlap": (["cells 0 and 1 overlap with mass 1.000e-01"], False,
                (1, ((1.0 / 3.0, 0.4),))),
    "gap": (["cells leave mass 2.000e-01 uncovered"], True,
            (0, ((0.2, 1.0 / 3.0),))),
    "touching": ([], True, (1, ((1.0 / 3.0, 0.5),))),
    "anchor inside": ([], True, (1, ((1.0 / 3.0, 0.5),))),
    "anchor on top": ([], True, (1, ((1.0 / 3.0, 0.5),))),
    "gapped, empty gap": ([], True, (1, ((0.3, 0.55),))),
    "gapped, gap with mass": (["cells leave mass 3.125e-02 uncovered"], True,
                              (1, ((0.3, 0.55),))),
    "overlap above tol": (["cells 0 and 1 overlap with mass 2.000e-09"], False,
                          (1, ((1.0 / 3.0, 0.5),))),
    "overlap below tol": ([], True, (1, ((1.0 / 3.0, 0.5),))),
}


def _audit_case(name, gk2016):
    spec = _GAPPED if name.startswith("gapped") else gk2016
    cells = tuple(interval(*piece) for piece in _AUDIT_CASES[name])
    return spec, DeterministicRepresentation(cells)


def test_validate_representation_catches_overlap_and_gap(gk2016):
    """Coverage and overlap read off the piece lists: cells that touch at
    a point or hold a degenerate anchor do not overlap, a gap where the
    prior has no mass uncovers none, and an overlap counts only above
    AUDIT_TOL. A failing coverage audit reports the uncovered part."""
    for name, (problems, _, (action, uncovered)) in _AUDITS.items():
        spec, rep = _audit_case(name, gk2016)
        assert validate_representation(spec, rep) == problems, name
        report = is_incentive_compatible(spec, rep)
        assert report == ICReport(False, action, IntervalUnion(uncovered)), name
    ok = commitment_solution(gk2016).canonical
    assert validate_representation(gk2016, ok) == []
    assert is_incentive_compatible(gk2016, ok) == ICReport(True)


def test_laminar_rejects_interleaved_cells(gk2016):
    rep = DeterministicRepresentation(
        (
            interval(0.0, 0.2).union(interval(0.4, 0.6)),
            interval(0.2, 0.4),
            interval(0.6, 1.0),
        )
    )
    assert not is_laminar(rep)
    for name, (_, laminar, _) in _AUDITS.items():
        assert is_laminar(_audit_case(name, gk2016)[1]) is laminar, name


def test_payoff_rejects_invalid_representation(gk2016):
    rep = DeterministicRepresentation((interval(0.0, 1.0),))
    with pytest.raises(SpecError, match="invalid representation"):
        representation_payoff(gk2016, rep)
