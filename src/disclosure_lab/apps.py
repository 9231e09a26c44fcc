"""Applications: quality disclosure by a seller, and amendment voting.

Both map onto the mean-based disclosure game. The seller's buyer picks
a quantity given the posterior mean quality, which makes the indifference
points p / (U(q) - U(q-1)) the cutoffs. The voting body reduces to its
median voter, whose two indifference cutoffs define a three-action game.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from .equilibrium import _density_nondecreasing, preferred_ore
from .game import GameSpec
from .prior import (
    INPUT_SLACK,
    SELLER_CUT_GAP,
    TIE_MARGIN,
    Prior,
    Record,
    SpecError,
    uniform_prior,
)


class SellerModel(Record):
    """Seller of a good of unknown quality, sold at a posted price.

    utility is either {"kind": "crra", "sigma": s} for U(q) = q^(1-s)
    or {"kind": "table", "values": [U(0), ..., U(Q)]} with U(0) = 0,
    strictly increasing and strictly concave.
    """

    __slots__ = _fields = ("utility", "price", "cost", "prior")

    def __init__(
        self,
        utility: dict,
        price: float,
        cost: float = 0.0,
        prior: Prior = uniform_prior(),
    ) -> None:
        object.__setattr__(self, "utility", utility)
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "prior", prior)


def _read_utility(utility) -> tuple[str, float | list[float]]:
    """The utility's kind and its parameter, crra's sigma or the table's
    values, as floats; anything malformed raises SpecError naming it."""
    if not isinstance(utility, dict):
        raise SpecError("utility must be an object with a kind")
    kind = utility.get("kind")
    key = {"crra": "sigma", "table": "values"}.get(kind)
    if key is None:
        raise SpecError(f"unknown utility kind {kind!r}")
    if key not in utility:
        raise SpecError(f"{kind} utility needs {key!r}")
    try:
        if kind == "crra":
            return kind, float(utility["sigma"])
        values = [float(v) for v in utility["values"]]
    except (TypeError, ValueError) as err:
        raise SpecError(f"malformed {kind} utility: {err}") from err
    if not values:
        raise SpecError("utility table is empty")
    return kind, values


def _marginal_utilities(model: SellerModel) -> list[float]:
    """U(q) - U(q-1) for q = 1, 2, ... while positive and decreasing."""
    kind, param = _read_utility(model.utility)
    if kind == "table":
        if abs(param[0]) > INPUT_SLACK:
            raise SpecError("utility table must start at zero")
        gaps = [b - a for a, b in zip(param, param[1:])]
    else:
        # expand the parametric utility until the marginal drops below
        # the price, which bounds the relevant quantity range
        sigma = param
        if sigma <= 0.0:
            raise SpecError("crra sigma must be positive")
        gaps = []
        for q in range(1, 10_001):
            prev = float(q - 1) ** (1.0 - sigma) if q > 1 else 0.0
            gap = float(q) ** (1.0 - sigma) - prev
            gaps.append(gap)
            if gap < model.price:
                break
        else:
            raise SpecError("price too low: quantity range does not close")
    if any(g <= 0.0 for g in gaps):
        raise SpecError("utility must be strictly increasing")
    if any(b >= a - INPUT_SLACK for a, b in zip(gaps, gaps[1:])):
        raise SpecError("utility must be strictly concave")
    return gaps


def seller_to_game(model: SellerModel) -> GameSpec:
    """Three-or-more-action game induced by the buyer's quantity choice.

    The buyer purchases q units when the expected quality passes
    price / marginal utility of the q-th unit, so those ratios are the
    interior cutoffs and the seller's values grow by price minus cost
    per unit sold.
    """
    if model.price <= 0.0:
        raise SpecError("price must be positive")
    if not 0.0 <= model.cost < model.price:
        raise SpecError("cost must lie in [0, price)")
    gaps = _marginal_utilities(model)
    thetas = [model.price / g for g in gaps]
    kept = [t for t in thetas if t < 1.0]
    if kept and kept[-1] >= 1.0 - INPUT_SLACK:
        warnings.warn(
            "top quantity cutoff reaches the state bound; truncating",
            stacklevel=2,
        )
        kept = [t for t in kept if t < 1.0 - INPUT_SLACK]
    n = len(kept)
    if n == 0:
        raise SpecError("no unit is ever worth buying at this price")
    if any(b <= a + SELLER_CUT_GAP for a, b in zip(kept, kept[1:])):
        raise SpecError("quantity cutoffs must be strictly increasing")
    margin = model.price - model.cost
    cutoffs = (0.0, *kept, 1.0)
    values = tuple(margin * q for q in range(n + 1))
    return GameSpec(model.prior, cutoffs, values)


class PrudenceReport(Record):
    """Both sufficient-condition readings for the seller, side by side.

    ok is the stated hypothesis: prudence more than twice absolute risk
    aversion on the quantity range, plus a non-decreasing density.
    gap_chain_ok is the literal cutoff-gap evaluation on the generated
    game, which includes the first gap and can disagree.
    """

    __slots__ = _fields = ("ok", "prudent", "density_ok", "gap_chain_ok")

    def __init__(
        self, ok: bool, prudent: bool, density_ok: bool, gap_chain_ok: bool
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "prudent", prudent)
        object.__setattr__(self, "density_ok", density_ok)
        object.__setattr__(self, "gap_chain_ok", gap_chain_ok)

    def __bool__(self) -> bool:
        return self.ok


def _crra_prudence(sigma: float) -> bool:
    # A(x) = sigma / x and P(x) = (1 + sigma) / x; x cancels from P > 2 A
    return 1.0 + sigma > 2.0 * sigma


def _table_prudence(v: Sequence[float]) -> bool:
    if len(v) < 4:
        raise SpecError("utility table too short for curvature estimates")
    q_max = len(v) - 1
    third = [v[k + 3] - 3 * v[k + 2] + 3 * v[k + 1] - v[k] for k in range(q_max - 2)]
    for q in range(1, q_max):
        d1 = 0.5 * (v[q + 1] - v[q - 1])
        d2 = v[q + 1] - 2.0 * v[q] + v[q - 1]
        d3 = third[min(max(q - 1, 0), len(third) - 1)]
        if d1 <= 0 or d2 >= 0:
            return False
        a = -d2 / d1
        p = -d3 / d2
        if p <= 2.0 * a:
            return False
    return True


def check_prudence(model: SellerModel) -> PrudenceReport:
    """Does the seller's problem satisfy the commitment-equivalence test?

    Returns both the prudence-vs-risk-aversion hypothesis and the
    literal cutoff-gap chain on the generated game; they can disagree
    and neither is silently reconciled.
    """
    kind, param = _read_utility(model.utility)
    prudent = _crra_prudence(param) if kind == "crra" else _table_prudence(param)
    density_ok = _density_nondecreasing(model.prior)
    try:
        spec = seller_to_game(model)
    except SpecError:
        gap_chain_ok = False
    else:
        gaps = [b - a for a, b in zip(spec.cutoffs, spec.cutoffs[1:])]
        gap_chain_ok = all(b < a - INPUT_SLACK for a, b in zip(gaps, gaps[1:]))
    return PrudenceReport(
        ok=prudent and density_ok,
        prudent=prudent,
        density_ok=density_ok,
        gap_chain_ok=gap_chain_ok,
    )


class Voter(Record):
    __slots__ = _fields = ("alpha_ab", "alpha_b", "beta_ab", "beta_b")

    def __init__(
        self, alpha_ab: float, alpha_b: float, beta_ab: float, beta_b: float
    ) -> None:
        object.__setattr__(self, "alpha_ab", alpha_ab)
        object.__setattr__(self, "alpha_b", alpha_b)
        object.__setattr__(self, "beta_ab", beta_ab)
        object.__setattr__(self, "beta_b", beta_b)

    @property
    def gamma1(self) -> float:
        return -self.alpha_ab / self.beta_ab

    @property
    def gamma2(self) -> float:
        return (self.alpha_ab - self.alpha_b) / (self.beta_b - self.beta_ab)


class VotingModel(Record):
    """Committee voting over a bill and its amended version, where
    rejecting both is the default outcome.

    Construction raises SpecError naming every violated requirement: an
    odd number of voters, expert values v_b > v_ab > 0, and per voter
    ordered slopes and intercepts with cutoffs inside (0, 1).
    """

    __slots__ = _fields = ("voters", "v_ab", "v_b", "prior")

    def __init__(
        self,
        voters: tuple[Voter, ...],
        v_ab: float,
        v_b: float,
        prior: Prior = uniform_prior(),
    ) -> None:
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "v_ab", v_ab)
        object.__setattr__(self, "v_b", v_b)
        object.__setattr__(self, "prior", prior)
        out = []
        if len(voters) % 2 == 0 or not voters:
            out.append("voter count must be odd")
        if not v_b > v_ab > 0.0:
            out.append("expert values must satisfy v_b > v_ab > 0")
        for j, v in enumerate(voters):
            if not v.beta_b > v.beta_ab > 0.0:
                out.append(f"voter {j}: slopes must satisfy beta_b > beta_ab > 0")
                continue
            if not 0.0 > v.alpha_ab > v.alpha_b:
                out.append(f"voter {j}: intercepts must satisfy 0 > alpha_ab > alpha_b")
                continue
            if not 0.0 < v.gamma1 < v.gamma2 < 1.0:
                out.append(f"voter {j}: cutoffs fall outside (0, 1)")
        if out:
            raise SpecError("; ".join(out))


def _median_voter(model: VotingModel) -> int:
    n = len(model.voters)
    g1s = sorted(v.gamma1 for v in model.voters)
    g2s = sorted(v.gamma2 for v in model.voters)
    med1, med2 = g1s[n // 2], g2s[n // 2]
    for j, v in enumerate(model.voters):
        if (
            abs(v.gamma1 - med1) <= INPUT_SLACK
            and abs(v.gamma2 - med2) <= INPUT_SLACK
        ):
            return j
    raise SpecError(
        "no single voter is the median at both cutoffs; the ordering "
        "assumption fails for this profile"
    )


def voting_to_game(model: VotingModel) -> tuple[GameSpec, int]:
    """Game faced by the expert, and the index of the decisive voter."""
    m = _median_voter(model)
    voter = model.voters[m]
    spec = GameSpec(
        model.prior,
        (0.0, voter.gamma1, voter.gamma2, 1.0),
        (0.0, model.v_ab, model.v_b),
    )
    return spec, m


class SweepRow(Record):
    __slots__ = _fields = ("parameter", "gamma2_m", "payoff", "implementable")

    def __init__(
        self, parameter: float, gamma2_m: float, payoff: float, implementable: bool
    ) -> None:
        object.__setattr__(self, "parameter", parameter)
        object.__setattr__(self, "gamma2_m", gamma2_m)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "implementable", implementable)


class SweepResult(Record):
    __slots__ = _fields = ("rows", "payoff_decrease")

    def __init__(self, rows: tuple[SweepRow, ...], payoff_decrease: bool) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "payoff_decrease", payoff_decrease)


def voting_comparative_statics(
    model: VotingModel,
    deltas: Sequence[float],
    parameter: str = "beta_b",
) -> SweepResult:
    """Preferred-equilibrium payoff along a shift of one voter parameter.

    Each delta is added to the named field of every voter. The decrease
    flag records whether the payoff strictly falls anywhere along an
    increasing sweep, the possibility the voting application is about.
    """
    if parameter not in ("alpha_ab", "alpha_b", "beta_ab", "beta_b"):
        raise SpecError(f"unknown sweep parameter {parameter!r}")
    rows = []
    for d in deltas:
        voters = tuple(
            Voter(**{
                name: getattr(v, name) + d if name == parameter else getattr(v, name)
                for name in Voter._fields
            })
            for v in model.voters
        )
        variant = VotingModel(voters, model.v_ab, model.v_b, model.prior)
        spec, m = voting_to_game(variant)
        ore = preferred_ore(spec)
        rows.append(
            SweepRow(
                parameter=float(d),
                gamma2_m=variant.voters[m].gamma2,
                payoff=ore.payoff,
                implementable=ore.coincides_with_commitment,
            )
        )
    decrease = any(
        b.payoff < a.payoff - TIE_MARGIN and b.parameter > a.parameter
        for a, b in zip(rows, rows[1:])
    )
    return SweepResult(tuple(rows), decrease)
