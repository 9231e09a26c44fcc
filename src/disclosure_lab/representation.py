"""Deterministic signal representations and their structure checks.

A deterministic signal assigns each state to one cell per action; the
receiver hears the cell index, so the cell's conditional mean must sit
inside that action's cutoff interval (obedience) and every state must
weakly prefer its own cell to any lower-action cell it could imitate
(incentive compatibility, a coverage condition). Canonical optimal
structures use at most two intervals per cell, with the second interval
arising from one nested pair per bi-pooled segment.
"""

from __future__ import annotations

from typing import Optional

from .game import GameSpec, MeanDistribution
from .prior import (
    AUDIT_TOL,
    MEAN_GUARD,
    NEGLIGIBLE,
    NO_MEAN_MASS,
    IntervalUnion,
    Pieces,
    Prior,
    Record,
    SolverError,
    SpecError,
    find_root,
    intersect_pieces,
    interval,
    merge_pieces,
    subtract_pieces,
)


class DeterministicRepresentation(Record):
    """One interval union per action, lowest action first.

    Skipped actions are represented by a degenerate anchor [g_i, g_i]
    at the action's own lower cutoff (or an empty union).
    """

    __slots__ = _fields = ("cells",)

    def __init__(self, cells: tuple[IntervalUnion, ...]) -> None:
        object.__setattr__(self, "cells", tuple(cells))

    @property
    def n_actions(self) -> int:
        return len(self.cells)

    def to_obj(self) -> dict:
        return {"cells": [c.to_pairs() for c in self.cells]}

    @classmethod
    def from_obj(cls, obj: dict) -> "DeterministicRepresentation":
        if not isinstance(obj, dict) or "cells" not in obj:
            raise SpecError("representation object needs a 'cells' field")
        return cls(tuple(IntervalUnion.from_pairs(c) for c in obj["cells"]))


def _mass(prior: Prior, pieces: Pieces) -> float:
    """``Prior.mass`` of a piece list, with no union built."""
    F = prior.cdf
    return sum(F(b) - F(a) for a, b in pieces)


def _length(pieces: Pieces) -> float:
    return sum(b - a for a, b in pieces)


def _covered(cells: tuple[IntervalUnion, ...]) -> Pieces:
    return merge_pieces(p for cell in cells for p in cell.pieces)


def validate_representation(
    spec: GameSpec, rep: DeterministicRepresentation
) -> list[str]:
    """Coverage and overlap problems of the cells, read off their piece
    lists: uncovered mass, and the mass each pair of cells shares."""
    problems = []
    if rep.n_actions != spec.n_actions:
        problems.append("cell count does not match the action count")
        return problems
    gap = _mass(spec.prior, subtract_pieces(((0.0, 1.0),), _covered(rep.cells)))
    if gap > AUDIT_TOL:
        problems.append(f"cells leave mass {gap:.3e} uncovered")
    for i in range(rep.n_actions):
        for j in range(i + 1, rep.n_actions):
            overlap = _mass(
                spec.prior, intersect_pieces(rep.cells[i].pieces, rep.cells[j].pieces)
            )
            if overlap > AUDIT_TOL:
                problems.append(
                    f"cells {i} and {j} overlap with mass {overlap:.3e}"
                )
    return problems


def representation_payoff(spec: GameSpec, rep: DeterministicRepresentation) -> float:
    problems = validate_representation(spec, rep)
    if problems:
        raise SpecError("invalid representation: " + "; ".join(problems))
    return sum(
        v * spec.prior.mass(rep.cells[i]) for i, v in enumerate(spec.values)
    )


def induced_distribution(
    spec: GameSpec, rep: DeterministicRepresentation
) -> MeanDistribution:
    """Atoms at each nonnull cell's conditional mean."""
    atoms = []
    payoff = 0.0
    for i, cell in enumerate(rep.cells):
        m = spec.prior.mass(cell)
        if m <= NEGLIGIBLE:
            continue
        atoms.append((spec.prior.partial_mean(cell), m))
        payoff += spec.values[i] * m
    return MeanDistribution(tuple(atoms), payoff=payoff)


class ObedienceRow(Record):
    __slots__ = _fields = ("action", "mean", "lo", "hi", "ok")

    def __init__(
        self, action: int, mean: float, lo: float, hi: float, ok: bool
    ) -> None:
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "ok", ok)


class ObedienceReport(Record):
    __slots__ = _fields = ("ok", "rows")

    def __init__(self, ok: bool, rows: tuple[ObedienceRow, ...]) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "rows", rows)


def is_obedient(spec: GameSpec, rep: DeterministicRepresentation) -> ObedienceReport:
    """Each nonnull cell's conditional mean must lie in its own cutoff
    interval, so the named action is actually the receiver's reply."""
    rows = []
    for i, cell in enumerate(rep.cells):
        if spec.prior.mass(cell) <= NEGLIGIBLE:
            continue
        mean = spec.prior.partial_mean(cell)
        lo, hi = spec.cutoffs[i], spec.cutoffs[i + 1]
        rows.append(
            ObedienceRow(i, mean, lo, hi, lo - AUDIT_TOL <= mean <= hi + AUDIT_TOL)
        )
    return ObedienceReport(all(r.ok for r in rows), tuple(rows))


class ICReport(Record):
    __slots__ = _fields = ("ok", "action", "uncovered")

    def __init__(
        self,
        ok: bool,
        action: Optional[int] = None,
        uncovered: Optional[IntervalUnion] = None,
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "uncovered", uncovered)


def is_incentive_compatible(
    spec: GameSpec, rep: DeterministicRepresentation
) -> ICReport:
    """Coverage form of incentive compatibility.

    States in the cutoff cell of action i can always exhibit evidence
    of membership in that cell, so they must already be assigned an
    action at least as good: A_i must be covered, up to a null set, by
    the cells of actions i and above. A set is null when its prior mass
    is at most AUDIT_TOL, the rule ``check_prop2`` uses as well. Reports
    the first failing action with the uncovered subinterval.
    """
    for i in range(spec.n_actions):
        missing = subtract_pieces(spec.cell(i).pieces, _covered(rep.cells[i:]))
        if _mass(spec.prior, missing) > AUDIT_TOL:
            return ICReport(False, i, IntervalUnion(missing))
    return ICReport(True)


def _require_interval(outer: IntervalUnion) -> None:
    if len(outer.pieces) != 1:
        raise SpecError(f"outer region {outer.pieces!r} is not one interval")


def nested_interval_rep(
    prior: Prior, outer: IntervalUnion, z_lo: float, z_hi: float
) -> tuple[IntervalUnion, IntervalUnion]:
    """Split outer into an inner window with conditional mean z_lo and a
    remainder with conditional mean z_hi, and return (inner, remainder).
    Either part is empty when the targets leave it no mass.

    The inner mass is pinned in advance by the barycenter identity
    mass(inner) = mass(outer) * (z_hi - m) / (z_hi - z_lo) with m the
    outer mean, which reduces the problem to one ``find_root`` search over
    the window's left endpoint (window width then follows from its mass).
    outer must be one interval.
    """
    _require_interval(outer)
    total = prior.mass(outer)
    if total <= NEGLIGIBLE:
        raise SpecError("outer region carries no prior mass")
    m = prior.partial_mean(outer)
    lo, hi = outer.lo, outer.hi
    if z_hi - z_lo <= MEAN_GUARD:
        if abs(m - z_lo) > AUDIT_TOL:
            raise SolverError(
                f"degenerate targets need outer mean {m:.12g} equal to them"
            )
        return outer, IntervalUnion.empty()
    if not (
        lo - AUDIT_TOL <= z_lo <= m + AUDIT_TOL
        and m - AUDIT_TOL <= z_hi <= hi + AUDIT_TOL
    ):
        raise SolverError(
            f"targets ({z_lo}, {z_hi}) incompatible with outer mean {m:.12g}"
        )
    mass_in = total * (z_hi - m) / (z_hi - z_lo)
    mass_in = min(max(mass_in, 0.0), total)
    if mass_in >= total - NO_MEAN_MASS:
        return outer, IntervalUnion.empty()
    if mass_in <= NO_MEAN_MASS:
        return IntervalUnion.empty(), outer

    F = prior.cdf
    F_hi = F(hi)

    def window_hi(p: float) -> float:
        F_p = F(p)
        if F_hi - F_p <= mass_in:
            return hi
        return find_root(lambda q: F(q) - F_p - mass_in, p, hi)

    p_max = find_root(lambda p: F_hi - F(p) - mass_in, lo, hi)

    def residual(p: float) -> float:
        return prior.window_mean(p, window_hi(p), p) - z_lo

    r_lo, r_hi = residual(lo), residual(p_max)
    if r_lo > AUDIT_TOL or r_hi < -AUDIT_TOL:
        raise SolverError(
            "no nested pair: the requested means are infeasible for this "
            f"outer region (residuals {r_lo:.3e}, {r_hi:.3e})"
        )
    if r_lo >= 0.0:
        p_star = lo
    elif r_hi <= 0.0:
        p_star = p_max
    else:
        p_star = find_root(residual, lo, p_max)
    q_star = window_hi(p_star)
    inner = outer.intersect(interval(p_star, q_star))
    rem = outer.subtract(inner)
    err_in = abs(prior.partial_mean(inner) - z_lo)
    err_out = (
        abs(prior.partial_mean(rem) - z_hi) if prior.mass(rem) > NEGLIGIBLE else 0.0
    )
    if err_in > AUDIT_TOL or err_out > AUDIT_TOL:
        raise SolverError(
            f"nested pair residuals too large ({err_in:.3e}, {err_out:.3e})"
        )
    return inner, rem


def feasible_bipool(
    prior: Prior, outer: IntervalUnion, z_lo: float, z_hi: float
) -> bool:
    """Whether outer can be split into two parts with means z_lo and z_hi.

    Two conditions: the targets must straddle the outer mean inside the
    outer bounds, and the top part left after carving the lowest states
    with mean z_lo must still reach z_hi. outer must be one interval.
    """
    _require_interval(outer)
    total = prior.mass(outer)
    if total <= NEGLIGIBLE:
        return False
    m = prior.partial_mean(outer)
    lo, hi = outer.lo, outer.hi
    if not (
        lo - AUDIT_TOL <= z_lo <= m + AUDIT_TOL
        and m - AUDIT_TOL <= z_hi <= hi + AUDIT_TOL
    ):
        return False
    if z_hi - z_lo <= MEAN_GUARD:
        return True

    def low_mean(y: float) -> float:
        return prior.window_mean(lo, y, y)

    if low_mean(lo) - z_lo >= 0.0:
        y = lo
    else:
        y = find_root(lambda y: low_mean(y) - z_lo, lo, hi)
    top = outer.intersect(interval(y, hi))
    if prior.mass(top) <= NEGLIGIBLE:
        return z_hi <= low_mean(hi) + AUDIT_TOL
    return prior.partial_mean(top) >= z_hi - AUDIT_TOL


def is_laminar(rep: DeterministicRepresentation) -> bool:
    """Every cell must equal the closure of its convex hull minus the
    hulls of all lower cells; null and degenerate cells pass vacuously."""
    hulls = [((c.lo, c.hi),) if c.length > AUDIT_TOL else None for c in rep.cells]
    for i, cell in enumerate(rep.cells):
        expected = hulls[i]
        if expected is None:
            continue
        for lower in hulls[:i]:
            if lower is not None:
                expected = subtract_pieces(expected, lower)
        mismatch = _length(subtract_pieces(expected, cell.pieces)) + _length(
            subtract_pieces(cell.pieces, expected)
        )
        if mismatch > AUDIT_TOL:
            return False
    return True


class Prop2Violation(Record):
    __slots__ = _fields = ("kind", "action", "cell", "sup", "bound")

    def __init__(
        self, kind: str, action: int, cell: int, sup: float, bound: float
    ) -> None:
        object.__setattr__(self, "kind", kind)  # "skipped-action" or "nested-pair"
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "bound", bound)

    def describe(self) -> str:
        if self.kind == "skipped-action":
            return (
                f"action {self.action} is skipped but cell {self.cell} "
                f"reaches {self.sup:.12g} > {self.bound:.12g}"
            )
        return (
            f"inner cell {self.cell} of the pair around action {self.action} "
            f"reaches {self.sup:.12g} > {self.bound:.12g}"
        )


class Prop2Report(Record):
    __slots__ = _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Prop2Violation, ...]) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)


def _canonical_pairs(
    spec: GameSpec, rep: DeterministicRepresentation
) -> list[tuple[int, int]]:
    """Nested (inner, outer) index pairs; raises when not canonical."""
    problems = validate_representation(spec, rep)
    if problems:
        raise SpecError("representation not canonical: " + "; ".join(problems))
    if not is_laminar(rep):
        raise SpecError("representation not canonical: cells are not laminar")
    pairs = []
    for k, cell in enumerate(rep.cells):
        chunks = [p for p in cell.pieces if p[1] - p[0] > NEGLIGIBLE]
        if len(chunks) > 2:
            raise SpecError(
                f"representation not canonical: cell {k} has {len(chunks)} pieces"
            )
        if len(chunks) != 2:
            continue
        hole = interval(chunks[0][1], chunks[1][0])
        fillers = [
            j
            for j, other in enumerate(rep.cells)
            if j != k
            and other.length > NEGLIGIBLE
            and other.lo >= hole.lo - AUDIT_TOL
            and other.hi <= hole.hi + AUDIT_TOL
        ]
        if len(fillers) != 1:
            raise SpecError(
                f"representation not canonical: the gap in cell {k} is not "
                f"filled by exactly one other cell"
            )
        j = fillers[0]
        if len([p for p in rep.cells[j].pieces if p[1] - p[0] > NEGLIGIBLE]) != 1:
            raise SpecError(
                f"representation not canonical: inner cell {j} is not an interval"
            )
        if hole.subtract(rep.cells[j]).length > AUDIT_TOL:
            raise SpecError(
                f"representation not canonical: cell {j} does not fill the "
                f"gap in cell {k}"
            )
        if j >= k:
            raise SpecError(
                "representation not canonical: nested inner cell must belong "
                "to a lower action"
            )
        pairs.append((j, k))
    return pairs


def check_prop2(spec: GameSpec, rep: DeterministicRepresentation) -> Prop2Report:
    """Implementability conditions for a canonical representation.

    (i) when an action above the lowest is skipped, no lower cell may
    extend past the skipped action's cutoff; (ii) the inner cell of a
    nested pair may not extend past the outer action's cutoff. Together
    these are equivalent to incentive compatibility for canonical cells.

    Both read null sets as ``is_incentive_compatible`` does: an action
    is skipped when its cell carries at most AUDIT_TOL of prior mass,
    and a cell extends past a cutoff g only when its part above g
    carries more, so a cell running on through a zero-density stretch
    does not. A violation reports the cell's upper end as its sup.
    """
    pairs = _canonical_pairs(spec, rep)
    prior = spec.prior

    def reaches_past(j: int, g: float) -> bool:
        return _mass(prior, intersect_pieces(rep.cells[j].pieces, ((g, 1.0),))) > AUDIT_TOL

    violations = []
    for i in range(1, spec.n_actions):
        if prior.mass(rep.cells[i]) > AUDIT_TOL:
            continue
        for j in range(i):
            if reaches_past(j, spec.cutoffs[i]):
                violations.append(
                    Prop2Violation(
                        "skipped-action", i, j, rep.cells[j].hi, spec.cutoffs[i]
                    )
                )
    for j, k in pairs:
        if reaches_past(j, spec.cutoffs[k]):
            violations.append(
                Prop2Violation(
                    "nested-pair", k, j, rep.cells[j].hi, spec.cutoffs[k]
                )
            )
    return Prop2Report(not violations, tuple(violations))
