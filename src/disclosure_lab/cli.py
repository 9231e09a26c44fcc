"""Command line front end for the disclosure game solvers.

Each verb maps onto one library operation. Results go to stdout as
JSON with a stable key order and every float printed at 12 significant
digits, so identical invocations produce byte-identical output. The
--csv flag additionally writes plot data (value function steps,
representation intervals, payoff sweep curves) into a directory.

Exit codes: 0 on success (a false "implementable" verdict is still
success), 2 when the input fails to parse or violates its schema, and
3 when a solver gives up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Optional

# Only the prior and game layers load with the CLI; each handler imports
# the solvers it runs, so a process pays for its verb alone.
from .game import (
    GameSpec,
    MeanDistribution,
    cheap_talk_payoff,
    dominance_gap,
    is_mpc,
    unraveling_payoff,
)
from .prior import NEGLIGIBLE, Prior, SolverError, SpecError

if TYPE_CHECKING:
    from .apps import SellerModel, SweepResult, VotingModel
    from .representation import DeterministicRepresentation


def _info(msg: str, *args) -> None:
    """Log at info level, only while DISCLOSURE_LAB_LOG is set: without
    it ``logging`` is never imported, whatever an earlier call set up."""
    if "DISCLOSURE_LAB_LOG" in os.environ:
        import logging

        logging.getLogger("disclosure_lab.cli").info(msg, *args)


def _fmt(x: float) -> str:
    """Floats at 12 significant digits; below solver tolerance and
    above round-trip noise."""
    out = format(float(x), ".12g")
    return "0" if out == "-0" else out


def _dump(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float format."""
    pad = "  " * indent
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (bool, int, float, str, type(None))) for v in seq):
            return "[" + ", ".join(_dump(v) for v in seq) + "]"
        body = ",\n".join(f"{pad}  {_dump(v, indent + 1)}" for v in seq)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_json(arg: str):
    """Accept either a path to a JSON file or the JSON text itself: an
    argument that starts with { or [ is JSON text."""
    text = arg.strip()
    if text.startswith(("{", "[")):
        try:
            return json.loads(text)
        except json.JSONDecodeError as err:
            raise SpecError(f"inline JSON does not parse: {err}") from err
    if not os.path.exists(arg):
        raise SpecError(f"input file not found: {arg}")
    with open(arg, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise SpecError(f"{arg} does not parse as JSON: {err}") from err


def _load_spec(arg: str) -> GameSpec:
    try:
        return GameSpec.from_obj(_load_json(arg))
    except SpecError:
        raise
    except (TypeError, ValueError) as err:
        raise SpecError(f"malformed game spec: {err}") from err


def _load_seller(obj) -> SellerModel:
    from .apps import SellerModel

    if not isinstance(obj, dict):
        raise SpecError("seller model must be a JSON object")
    missing = [k for k in ("utility", "price") if k not in obj]
    if missing:
        raise SpecError(f"seller model missing fields: {', '.join(missing)}")
    try:
        prior = Prior.from_obj(obj["prior"]) if "prior" in obj else None
        kwargs = {"prior": prior} if prior is not None else {}
        return SellerModel(
            obj["utility"],
            price=float(obj["price"]),
            cost=float(obj.get("cost", 0.0)),
            **kwargs,
        )
    except SpecError:
        raise
    except (TypeError, ValueError) as err:
        raise SpecError(f"malformed seller model: {err}") from err


def _load_voting(obj) -> VotingModel:
    from .apps import Voter, VotingModel

    if not isinstance(obj, dict):
        raise SpecError("voting model must be a JSON object")
    missing = [k for k in ("voters", "v_ab", "v_b") if k not in obj]
    if missing:
        raise SpecError(f"voting model missing fields: {', '.join(missing)}")
    try:
        voters = tuple(
            Voter(
                alpha_ab=float(v["alpha_ab"]),
                alpha_b=float(v["alpha_b"]),
                beta_ab=float(v["beta_ab"]),
                beta_b=float(v["beta_b"]),
            )
            for v in obj["voters"]
        )
        prior = Prior.from_obj(obj["prior"]) if "prior" in obj else None
        kwargs = {"prior": prior} if prior is not None else {}
        return VotingModel(
            voters, v_ab=float(obj["v_ab"]), v_b=float(obj["v_b"]), **kwargs
        )
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SpecError(f"malformed voting model: {err}") from err


def _dist_obj(dist: MeanDistribution) -> dict:
    return {
        "atoms": [[loc, mass] for loc, mass in dist.atoms],
        "revealed": [list(p) for p in dist.revealed.pieces] or None,
        "pool_threshold": dist.pool_threshold,
        "payoff": dist.payoff,
    }


def _segments_obj(segments) -> list:
    return [
        {
            "span": [list(p) for p in seg.outer.pieces],
            "kind": seg.kind,
            "means": list(seg.means),
        }
        for seg in segments
    ]


def _violations_obj(violations) -> list:
    return [
        {
            "kind": v.kind,
            "action": v.action,
            "cell": v.cell,
            "sup": v.sup,
            "bound": v.bound,
            "detail": v.describe(),
        }
        for v in violations
    ]


def _csv_path(directory: str, name: str) -> str:
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _write_csv(path: str, header, rows) -> None:
    import csv

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return _fmt(v)
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])
    _info("wrote %s", path)


def _write_steps(directory: str, spec: GameSpec) -> None:
    rows = []
    for i in range(spec.n_actions):
        rows.append((spec.cutoffs[i], spec.values[i]))
        rows.append((spec.cutoffs[i + 1], spec.values[i]))
    _write_csv(_csv_path(directory, "steps.csv"), ("x", "u"), rows)


def _write_intervals(
    directory: str, spec: GameSpec, rep: DeterministicRepresentation
) -> None:
    rows = []
    for i, cell in enumerate(rep.cells):
        if cell.is_empty:
            g = spec.cutoffs[i]
            rows.append((i, g, g, g, "skipped"))
            continue
        if spec.prior.mass(cell) > NEGLIGIBLE:
            mean = spec.prior.partial_mean(cell)
        else:
            mean = cell.lo
        for lo, hi in cell.pieces:
            note = "skipped" if hi - lo <= 0.0 else ""
            rows.append((i, lo, hi, mean, note))
    _write_csv(
        _csv_path(directory, "intervals.csv"),
        ("cell", "lo", "hi", "mean", "note"),
        rows,
    )


def _write_payoff_sweep(
    directory: str, spec: GameSpec, base: DeterministicRepresentation
) -> None:
    from .equilibrium import payoff_path

    path = payoff_path(spec, base)
    z_hi = spec.cutoffs[spec.n_actions - 1]
    rows = [(z, path(z)) for z in (z_hi * j / 100.0 for j in range(101))]
    _write_csv(_csv_path(directory, "sweep.csv"), ("z", "payoff"), rows)


def _write_voting_sweep(directory: str, result: SweepResult) -> None:
    rows = [
        (r.parameter, r.gamma2_m, r.payoff, r.implementable)
        for r in result.rows
    ]
    _write_csv(
        _csv_path(directory, "sweep.csv"),
        ("parameter", "gamma2_m", "payoff", "implementable_flag"),
        rows,
    )


def _solve_out(spec: GameSpec, args) -> dict:
    from .design import commitment_solution

    if spec.n_actions <= 3:
        _info("structural solver, %d actions", spec.n_actions)
    else:
        _info("Lorenz-cut cell solver, %d actions", spec.n_actions)
    sol = commitment_solution(spec)
    gap = dominance_gap(spec.prior, sol.distribution)
    out = {
        "verb": "solve",
        "n_actions": spec.n_actions,
        "payoff": sol.payoff,
        "distribution": _dist_obj(sol.distribution),
        "segments": _segments_obj(sol.segments),
        "canonical": sol.canonical.to_obj(),
        "dominance_gap": gap,
        "feasible": is_mpc(spec.prior, sol.distribution),
    }
    if args.csv:
        _write_intervals(args.csv, spec, sol.canonical)
    return out


def _implementable_out(spec: GameSpec, args) -> dict:
    from .equilibrium import implementable

    report = implementable(spec)
    out = {
        "verb": "implementable",
        "implementable": report.implementable,
        "commitment_payoff": report.commitment_payoff,
        "canonical": report.canonical.to_obj(),
        "violations": _violations_obj(report.violations),
    }
    if args.csv:
        _write_intervals(args.csv, spec, report.canonical)
    return out


def _suffcond_out(spec: GameSpec, args) -> dict:
    from .equilibrium import check_c3i, check_cni, check_nam

    nam = check_nam(spec)
    out = {
        "verb": "suffcond",
        "nam": list(nam),
        "nam_all": all(nam),
        "cni": check_cni(spec),
        "c3i": check_c3i(spec) if spec.n_actions == 3 else None,
    }
    return out


def _preferred_out(spec: GameSpec, args) -> dict:
    from .equilibrium import preferred_ore, verify_ore

    result = preferred_ore(spec)
    audit = verify_ore(spec, result.rep)
    out = {
        "verb": "preferred",
        "payoff": result.payoff,
        "coincides_with_commitment": result.coincides_with_commitment,
        "equilibrium_ok": audit.ok,
        "representation": result.rep.to_obj(),
    }
    if args.csv:
        _write_intervals(args.csv, spec, result.rep)
    return out


def _payoff_set_out(spec: GameSpec, args) -> dict:
    from .equilibrium import preferred_ore

    low = unraveling_payoff(spec)
    preferred = preferred_ore(spec)
    high = preferred.payoff
    out = {
        "verb": "payoff-set",
        "unraveling": low,
        "preferred": high,
        "bounds": [low, high],
    }
    if args.csv:
        _write_payoff_sweep(args.csv, spec, preferred.rep)
    return out


def _ore_at_out(spec: GameSpec, args) -> dict:
    from .equilibrium import ore_at_payoff, verify_ore

    if args.target is None:
        raise SpecError("ore-at requires --target")
    rep = ore_at_payoff(spec, args.target)
    audit = verify_ore(spec, rep)
    out = {
        "verb": "ore-at",
        "target": args.target,
        "payoff": audit.payoff,
        "equilibrium_ok": audit.ok,
        "representation": rep.to_obj(),
    }
    if args.csv:
        _write_intervals(args.csv, spec, rep)
    return out


def _baselines_out(spec: GameSpec, args) -> dict:
    out = {
        "verb": "baselines",
        "unraveling": unraveling_payoff(spec),
        "cheap_talk": cheap_talk_payoff(spec),
    }
    return out


# Every verb that runs on a game spec, in subparser order: its handler
# and its --help line.
_GAME_VERBS = {
    "solve": (
        _solve_out, "commitment solution and its canonical representation"
    ),
    "implementable": (
        _implementable_out, "whether the commitment outcome is an equilibrium"
    ),
    "suffcond": (
        _suffcond_out, "sufficient-condition table for implementability"
    ),
    "preferred": (_preferred_out, "sender-preferred equilibrium representation"),
    "payoff-set": (_payoff_set_out, "range of equilibrium payoffs"),
    "ore-at": (_ore_at_out, "equilibrium hitting a given payoff (--target)"),
    "baselines": (_baselines_out, "unraveling and cheap talk payoffs"),
}


def _cmd_game(args) -> dict:
    spec = _load_spec(args.input)
    if args.csv:
        _write_steps(args.csv, spec)
    return _GAME_VERBS[args.verb][0](spec, args)


def _cmd_app_seller(args) -> dict:
    from .apps import check_prudence, seller_to_game

    model = _load_seller(_load_json(args.input))
    spec = seller_to_game(model)
    prudence = check_prudence(model)
    out = {
        "verb": "app-seller",
        "game": spec.to_obj(),
        "n_actions": spec.n_actions,
        "prudence": {
            "ok": prudence.ok,
            "hypothesis": prudence.prudent,
            "density_increasing": prudence.density_ok,
            "cutoff_gap_chain": prudence.gap_chain_ok,
        },
    }
    if args.csv:
        _write_steps(args.csv, spec)
    if args.then:
        _info("running %s on the generated game", args.then)
        out["result"] = _GAME_VERBS[args.then][0](spec, args)
    return out


def _cmd_app_voting(args) -> dict:
    from .apps import voting_comparative_statics, voting_to_game

    model = _load_voting(_load_json(args.input))
    spec, median = voting_to_game(model)
    out = {
        "verb": "app-voting",
        "game": spec.to_obj(),
        "median_voter": median,
        "gamma1": spec.cutoffs[1],
        "gamma2": spec.cutoffs[2],
    }
    if args.csv:
        _write_steps(args.csv, spec)
    if args.sweep is not None:
        try:
            deltas = [float(t) for t in args.sweep.split(",") if t.strip()]
        except ValueError as err:
            raise SpecError(f"bad --sweep list: {err}") from err
        result = voting_comparative_statics(
            model, deltas, parameter=args.sweep_parameter
        )
        out["sweep"] = {
            "parameter": args.sweep_parameter,
            "rows": [
                {
                    "parameter": r.parameter,
                    "gamma2_m": r.gamma2_m,
                    "payoff": r.payoff,
                    "implementable": r.implementable,
                }
                for r in result.rows
            ],
            "payoff_decrease": result.payoff_decrease,
        }
        if args.csv:
            _write_voting_sweep(args.csv, result)
    if args.then:
        _info("running %s on the generated game", args.then)
        out["result"] = _GAME_VERBS[args.then][0](spec, args)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disclosure-lab",
        description="Solvers for verifiable disclosure games driven by "
        "posterior means.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input", help="path to a JSON file, or the JSON text itself"
    )
    common.add_argument(
        "--csv", default=None, metavar="DIR", help="write plot data into DIR"
    )

    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_line) in _GAME_VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_line)
        p.set_defaults(command=_cmd_game)
        if verb == "ore-at":
            p.add_argument(
                "--target", type=float, required=True, help="payoff to hit"
            )

    seller = sub.add_parser(
        "app-seller",
        parents=[common],
        help="map a seller model onto a game and report prudence",
    )
    seller.set_defaults(command=_cmd_app_seller)
    voting = sub.add_parser(
        "app-voting",
        parents=[common],
        help="map a voting model onto a game via the median voter",
    )
    voting.set_defaults(command=_cmd_app_voting)
    for p in (seller, voting):
        p.add_argument(
            "--then",
            choices=tuple(_GAME_VERBS),
            default=None,
            help="also run this verb on the generated game",
        )
        p.add_argument(
            "--target",
            type=float,
            default=None,
            help="payoff to hit when --then ore-at",
        )
    voting.add_argument(
        "--sweep",
        default=None,
        metavar="DELTAS",
        help="comma separated shifts applied to every voter",
    )
    voting.add_argument(
        "--sweep-parameter",
        choices=("alpha_ab", "alpha_b", "beta_ab", "beta_b"),
        default="beta_b",
        help="voter field the sweep shifts",
    )
    return parser


def _setup_logging() -> None:
    """Send the CLI's log to stderr at the DISCLOSURE_LAB_LOG level; do
    nothing when the variable is unset."""
    name = os.environ.get("DISCLOSURE_LAB_LOG")
    if name is None:
        return
    import logging

    name = name.lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(name)
    if level is None:
        print(
            f"warning: unknown DISCLOSURE_LAB_LOG value {name!r}, "
            "using quiet",
            file=sys.stderr,
        )
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(message)s"
    )
    logging.getLogger("disclosure_lab.cli").setLevel(level)


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        out = args.command(args)
    except SpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    print(_dump(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
