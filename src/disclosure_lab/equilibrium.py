"""Equilibrium analysis of the disclosure game.

Decides whether the commitment outcome survives as an equilibrium
outcome, evaluates sufficient conditions on primitives, solves the
sender's preferred equilibrium for small games, and constructs an
equilibrium at any payoff between unraveling and the preferred one.
"""

from __future__ import annotations

from typing import Callable

from .design import _nested_y, commitment_solution
from .game import GameSpec, unraveling_payoff
from .prior import (
    AUDIT_TOL,
    INPUT_SLACK,
    LANDING_TOL,
    NEGLIGIBLE,
    IntervalUnion,
    Prior,
    Record,
    SolverError,
    SpecError,
    find_root,
    interval,
    solve_h,
)
from .representation import (
    DeterministicRepresentation,
    ICReport,
    ObedienceReport,
    Prop2Report,
    check_prop2,
    is_incentive_compatible,
    is_obedient,
    representation_payoff,
)


class ImplementabilityReport(Record):
    __slots__ = _fields = (
        "implementable", "canonical", "violations", "commitment_payoff"
    )

    def __init__(
        self,
        implementable: bool,
        canonical: DeterministicRepresentation,
        violations: tuple,
        commitment_payoff: float,
    ) -> None:
        object.__setattr__(self, "implementable", implementable)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "commitment_payoff", commitment_payoff)


def implementable(spec: GameSpec) -> ImplementabilityReport:
    """Whether the commitment outcome is an equilibrium outcome.

    Solves the commitment problem and checks the structural incentive
    conditions on its canonical representation.
"""
    sol = commitment_solution(spec)
    report: Prop2Report = check_prop2(spec, sol.canonical)
    return ImplementabilityReport(
        implementable=report.ok,
        canonical=sol.canonical,
        violations=report.violations,
        commitment_payoff=sol.payoff,
    )


def check_nam(spec: GameSpec) -> list[bool]:
    """Per-cutoff sufficient condition: no action is pooled away.

    For each interior comparison the marginal value of reaching the next
    action must beat the value lost below, with the reach measured by
    the worst pooling window. All-true implies the commitment outcome is
    implementable. Vacuously empty for two actions.
    """
    prior = spec.prior
    out = []
    for i in range(1, spec.n_actions - 1):
        g_prev, g_i, g_next = (
            spec.cutoffs[i - 1],
            spec.cutoffs[i],
            spec.cutoffs[i + 1],
        )
        v_prev, v_i, v_next = (
            spec.values[i - 1],
            spec.values[i],
            spec.values[i + 1],
        )
        h = solve_h(prior, g_i, g_next)
        denom = min(g_i - g_prev, g_i - h)
        if denom <= 0.0 or g_next - g_i <= 0.0:
            out.append(False)
            continue
        lhs = (v_next - v_i) / (g_next - g_i)
        rhs = (v_i - v_prev) / denom
        out.append(lhs > rhs)
    return out


def _density_nondecreasing(prior: Prior) -> bool:
    dens = prior.density
    return all(b >= a - INPUT_SLACK for a, b in zip(dens, dens[1:]))


def check_cni(spec: GameSpec) -> bool:
    """Increasing density with concentrating cutoffs and spreading values.

    Literal evaluation: the value-gap chain must be weakly increasing
    with at least one strict step, and the cutoff-gap chain weakly
    decreasing with at least one strict step; an empty chain passes.
    """
    if not _density_nondecreasing(spec.prior):
        return False
    vals, cuts = spec.values, spec.cutoffs
    v_gaps = [b - a for a, b in zip(vals, vals[1:])]
    c_gaps = [b - a for a, b in zip(cuts, cuts[1:])]
    v_ok = all(b >= a - INPUT_SLACK for a, b in zip(v_gaps, v_gaps[1:]))
    v_strict = any(b > a + INPUT_SLACK for a, b in zip(v_gaps, v_gaps[1:]))
    c_ok = all(b <= a + INPUT_SLACK for a, b in zip(c_gaps, c_gaps[1:]))
    c_strict = any(b < a - INPUT_SLACK for a, b in zip(c_gaps, c_gaps[1:]))
    if len(v_gaps) > 1 and not (v_ok and v_strict):
        return False
    if len(c_gaps) > 1 and not (c_ok and c_strict):
        return False
    return True


def check_c3i(spec: GameSpec) -> bool:
    """Three-action shortcut: increasing density and v_2 > 2 v_1."""
    if spec.n_actions != 3:
        raise SpecError("check_c3i applies to three-action games only")
    return _density_nondecreasing(spec.prior) and spec.values[2] > 2.0 * spec.values[1]


class OREAudit(Record):
    __slots__ = _fields = ("ok", "obedience", "ic", "payoff")

    def __init__(
        self, ok: bool, obedience: ObedienceReport, ic: ICReport, payoff: float
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "obedience", obedience)
        object.__setattr__(self, "ic", ic)
        object.__setattr__(self, "payoff", payoff)


def verify_ore(spec: GameSpec, rep: DeterministicRepresentation) -> OREAudit:
    """A representation backs an equilibrium iff it is obedient and
    incentive compatible; returns the full diagnostics either way."""
    obed = is_obedient(spec, rep)
    ic = is_incentive_compatible(spec, rep)
    payoff = representation_payoff(spec, rep)
    return OREAudit(obed.ok and ic.ok, obed, ic, payoff)


class OREResult(Record):
    __slots__ = _fields = ("rep", "payoff", "coincides_with_commitment")

    def __init__(
        self,
        rep: DeterministicRepresentation,
        payoff: float,
        coincides_with_commitment: bool,
    ) -> None:
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "coincides_with_commitment", coincides_with_commitment)


def _anchor(spec: GameSpec, i: int) -> IntervalUnion:
    return interval(spec.cutoffs[i], spec.cutoffs[i])


def preferred_ore(spec: GameSpec) -> OREResult:
    """The sender's best equilibrium outcome.

    When the commitment outcome is implementable this is just its
    canonical representation. Otherwise, for three actions, it is the
    nested structure at b = g2: B_1 = [h, g2] pooled at g1, the top cell
    [y, h] + [g2, 1] pooled at g2, and the low cell [0, y]. A design
    with no low cell is obedient only when mean([0, h] + [g2, 1]) >= g2,
    and then the commitment outcome is implementable, so this one
    construction is the answer. It is audited with verify_ore before it
    is returned.
    """
    if spec.n_actions > 3:
        raise SpecError(
            "preferred equilibrium search supports up to three actions; "
            "use verify_ore to audit an externally supplied candidate"
        )
    report = implementable(spec)
    if report.implementable:
        return OREResult(report.canonical, report.commitment_payoff, True)
    g2 = spec.cutoffs[2]
    nested = _nested_y(spec, g2)
    if not isinstance(nested, str):
        h, y = nested
        if h - y > NEGLIGIBLE:
            top = IntervalUnion(((y, h), (g2, 1.0)))
        else:
            top = interval(g2, 1.0)
        low = interval(0.0, y) if y > NEGLIGIBLE else _anchor(spec, 0)
        rep = DeterministicRepresentation((low, interval(h, g2), top))
        audit = verify_ore(spec, rep)
        if audit.ok:
            return OREResult(rep, audit.payoff, False)
    raise SolverError("no obedient incentive-compatible candidate found")


def payoff_bounds(spec: GameSpec) -> tuple[float, float]:
    """Range of equilibrium payoffs: unraveling up to the preferred one."""
    return unraveling_payoff(spec), preferred_ore(spec).payoff


def sweep_representation(
    spec: GameSpec, base: DeterministicRepresentation, z: float
) -> DeterministicRepresentation:
    """Reveal the part of the state space below z, keep the rest of the
    base equilibrium; continuous in z and an equilibrium at every z."""
    low = interval(0.0, z)
    cells = []
    for i, cell in enumerate(base.cells):
        kept = cell.subtract(low)
        gained = spec.cell(i).intersect(low)
        merged = kept.union(gained)
        if merged.is_empty:
            merged = _anchor(spec, i)
        cells.append(merged)
    return DeterministicRepresentation(tuple(cells))


def payoff_path(
    spec: GameSpec, base: DeterministicRepresentation
) -> Callable[[float], float]:
    """The sender's payoff of ``sweep_representation(spec, base, z)`` as a
    function of z, priced on the prior's cdf with no union built.

    Cell i keeps the part of its base pieces [a, b] above z and gains
    the part of its own action cell [g_i, g_{i+1}] below z; the two meet
    at most in the point z, so its mass is

        sum (F(max(b, z)) - F(max(a, z))) + F(min(g_{i+1}, z)) - F(min(g_i, z)).
    """
    F, g = spec.prior.cdf, spec.cutoffs

    def path(z: float) -> float:
        total = 0.0
        for i, (v, cell) in enumerate(zip(spec.values, base.cells)):
            kept = sum(F(max(b, z)) - F(max(a, z)) for a, b in cell.pieces)
            total += v * (kept + (F(min(g[i + 1], z)) - F(min(g[i], z))))
        return total

    return path


def ore_at_payoff(spec: GameSpec, target: float) -> DeterministicRepresentation:
    """An equilibrium representation with the given sender payoff.

    Sweeps a revelation threshold z from the preferred equilibrium (no
    extra revelation) toward full disclosure at the top cutoff, and
    finds the z at which the continuous payoff path meets the target.
    The path is priced on the prior's cdf (``payoff_path``); the
    representation at the root is then built and its payoff audited
    against the target.
    """
    base = preferred_ore(spec).rep
    r_u = unraveling_payoff(spec)
    r_s = representation_payoff(spec, base)
    if target < r_u - AUDIT_TOL or target > r_s + AUDIT_TOL:
        raise SpecError(
            f"target {target:.12g} out of range [{r_u:.12g}, {r_s:.12g}]"
        )
    if abs(target - r_s) <= AUDIT_TOL:
        return base

    payoff_at = payoff_path(spec, base)
    z_hi = spec.cutoffs[spec.n_actions - 1]
    if payoff_at(z_hi) >= target:
        # the range check lets a target sit a little below the path's end
        z = z_hi
    else:
        z = find_root(lambda t: payoff_at(t) - target, 0.0, z_hi)
    out = sweep_representation(spec, base, z)
    got = representation_payoff(spec, out)
    if abs(got - target) > LANDING_TOL:
        raise SolverError(
            f"payoff sweep landed at {got:.12g}, target {target:.12g}"
        )
    return out
