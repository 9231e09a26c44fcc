"""Solvers for verifiable disclosure games driven by posterior means.

Names are exported lazily (PEP 562): ``import disclosure_lab`` loads no
submodule, and the first access to a name imports its home module.
"""

import importlib

__version__ = "0.1.0"

# Each home module and the names it exports.
_EXPORTS = {
    "prior": (
        "IntervalUnion", "Prior", "SolverError", "SpecError", "ZeroMassError",
        "interval", "plinear_prior", "solve_h", "uniform_prior",
    ),
    "game": (
        "GameSpec", "MeanDistribution", "cheap_talk_payoff", "dominance_gap",
        "is_mpc", "unraveling_payoff", "validate", "value_at",
    ),
    "representation": (
        "DeterministicRepresentation", "check_prop2", "feasible_bipool",
        "induced_distribution", "is_incentive_compatible", "is_laminar",
        "is_obedient", "nested_interval_rep", "representation_payoff",
    ),
    "design": (
        "BiPoolingSolution", "Segment", "commitment_solution", "lp_value",
        "solve_three_action", "solve_two_action",
    ),
    "equilibrium": (
        "ImplementabilityReport", "OREAudit", "OREResult", "check_c3i",
        "check_cni", "check_nam", "implementable", "ore_at_payoff",
        "payoff_bounds", "preferred_ore", "sweep_representation", "verify_ore",
    ),
    "apps": (
        "PrudenceReport", "SellerModel", "SweepResult", "SweepRow", "Voter",
        "VotingModel", "check_prudence", "seller_to_game",
        "voting_comparative_statics", "voting_to_game",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
