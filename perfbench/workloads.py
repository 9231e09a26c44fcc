"""The three workloads: seeded inputs, one operation each, the timed
loop and the checks of every answer.

Each workload is a closed loop with a single client: the next operation
starts when the previous one has returned. Inputs are made from the seed
before timing starts. A run attempts whole rounds of the same operations,
so the share of failed operations is the same in every run.

Importing this module imports ``disclosure_lab``; callers put the
checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import disclosure_lab as dl

import oracle
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Seeded games per round, 10 and 6 of each family, sized so that one
# round takes 5-8 s on a 2-core machine today and a 25 s run makes 3-5
# whole rounds.
THREE_ACTION_GAMES = 40
MANY_ACTION_GAMES = 36
# Games per run whose answer is also compared with lp_value(spec, 961).
LP_CHECKS = 2
LP_GRID = 961

# The one failure kept in many-action (ROADMAP item 5): on this fixed
# 4-action game the LP solution's segments cannot be recovered.
RECOVERY_FAULT = "segment recovery failed for the LP solution"
# Seeded many-action games that meet the same fault only for some seeds
# are redrawn in the first round, at most this many times per slot.
MAX_REDRAWS = 3
RECOVERY_FAULT_GAME = {
    "prior": {"kind": "uniform"},
    "cutoffs": [0.0, 0.25, 0.78, 0.94, 1.0],
    "values": [0.0, 1.3, 2.6, 3.9],
}

GK2016 = {
    "prior": {"kind": "uniform"},
    "cutoffs": [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0],
    "values": [0.0, 1.0, 3.0],
}
# The README's seller and voting examples.
SELLER = {"utility": {"kind": "crra", "sigma": 0.5}, "price": 0.25}
VOTING = {
    "voters": [{"alpha_ab": -0.6, "alpha_b": -1.5, "beta_ab": 1.0, "beta_b": 2.0}],
    "v_ab": 1.0,
    "v_b": 1.05,
}
SWEEP = (0.0, 0.03, 0.06, 0.09, 0.12)

SPECS = ("gk2016", "exs", "exy")
GAME_VERBS = ("solve", "implementable", "suffcond", "preferred", "payoff-set", "baselines")
CSV_CALLS = ("preferred exy", "payoff-set exy", "app-voting")
REPEATS_CHECKED = 3


# ---------------------------------------------------------------------------
# Seeded inputs


def _streams(workload: str, seed: int, slot: int, draw: int):
    """The (design, jitter) streams of a slot's game. Each game is a design
    point, the same for every seed, moved a little by the seed: the seed
    changes every input while the mix of game shapes, and so the cost of a
    round, stays put. ``draw`` > 0 only for a many-action game redrawn
    after the recovery fault. A str seed hashes the same in every
    process."""
    return (
        random.Random(f"{workload}/design/{slot}/{draw}"),
        random.Random(f"{workload}/{seed}/{slot}/{draw}"),
    )


def _draw(design: random.Random, jitter: random.Random, lo: float, hi: float, width: float) -> float:
    """A design value in [lo, hi], moved by the seed by at most width."""
    return min(max(design.uniform(lo, hi) + jitter.uniform(-width, width), lo), hi)


def _prior(design: random.Random, jitter: random.Random, plinear: bool) -> dict:
    """Uniform, or piecewise linear with 2-4 knots."""
    if not plinear:
        return {"kind": "uniform"}
    count = design.choice((2, 3, 4))
    inner = sorted(_draw(design, jitter, 0.15, 0.85, 0.02) for _ in range(count - 2))
    knots = [0.0, *inner, 1.0]
    return {
        "kind": "plinear",
        "knots": knots,
        "density": [_draw(design, jitter, 0.4, 1.6, 0.05) for _ in knots],
    }


def three_action_game(seed: int, slot: int) -> tuple[dict, float]:
    """A 3-action game with the fraction of the way from the unraveling to
    the preferred payoff that ore_at_payoff is asked for. Slots alternate
    uniform and plinear priors and, in pairs, spread cutoffs (mostly
    implementable) and tight ones (mostly not, so the preferred-equilibrium
    search runs)."""
    plinear = slot % 2 == 1
    tight = slot // 2 % 2 == 1
    design, jitter = _streams("three-action", seed, slot, 0)
    if tight:
        g1 = _draw(design, jitter, 0.5, 0.75, 0.02)
        g2 = g1 + _draw(design, jitter, 0.05, 0.15, 0.01)
        v2 = _draw(design, jitter, 1.05, 1.6, 0.02)
    else:
        g1 = _draw(design, jitter, 0.15, 0.45, 0.02)
        g2 = g1 + _draw(design, jitter, 0.2, 0.45, 0.02)
        v2 = _draw(design, jitter, 2.0, 4.0, 0.05)
    game = {
        "prior": _prior(design, jitter, plinear),
        "cutoffs": [0.0, g1, g2, 1.0],
        "values": [0.0, 1.0, v2],
    }
    return game, _draw(design, jitter, 0.3, 0.7, 0.05)


def many_action_game(seed: int, slot: int, draw: int = 0) -> tuple[dict, None]:
    """A 4-6 action game, with no argument for the operation. The action
    count cycles with the slot and the prior alternates every three slots.
    Design cells are at least 0.08 wide, so at least 0.04 after the
    jitter."""
    n = 4 + slot % 3
    plinear = slot // 3 % 2 == 1
    design, jitter = _streams("many-action", seed, slot, draw)
    while True:
        cuts = sorted(design.uniform(0.05, 0.95) for _ in range(n - 1))
        if all(b - a >= 0.08 for a, b in zip([0.0, *cuts], [*cuts, 1.0])):
            break
    cuts = [c + jitter.uniform(-0.02, 0.02) for c in cuts]
    values = [0.0]
    for _ in range(n - 1):
        values.append(values[-1] + _draw(design, jitter, 0.3, 1.5, 0.03))
    game = {"prior": _prior(design, jitter, plinear), "cutoffs": [0.0, *cuts, 1.0], "values": values}
    return game, None


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Slot:
    """One input of a round. ``redraw(k)`` gives a seeded many-action
    slot's k-th replacement game; ``fixed`` marks the seed-independent game
    whose recovery fault is expected."""

    name: str
    game: dict
    arg: object = None
    redraw: object = None
    fixed: bool = False
    redraws: int = 0

    def __post_init__(self):
        self.spec = dl.GameSpec.from_obj(self.game)


def direct(_name: str, fn, *args):
    return fn(*args)


def three_action_op(spec, frac: float, call=direct):
    """One game analysed the way the CLI verbs would: each call as its
    verb makes it, with no earlier result passed along. ``call`` lets the
    traced run wrap each call into the package, named by its layer."""
    sol = call("design.commitment_solution", dl.commitment_solution, spec)
    gap = call("game.dominance_gap", dl.dominance_gap, spec.prior, sol.distribution)
    report = call("equilibrium.implementable", dl.implementable, spec)
    pref = call("equilibrium.preferred_ore", dl.preferred_ore, spec)
    low = call("game.unraveling_payoff", dl.unraveling_payoff, spec)
    target = low + frac * (pref.payoff - low)
    rep = call("equilibrium.ore_at_payoff", dl.ore_at_payoff, spec, target)
    return {"sol": sol, "gap": gap, "report": report, "pref": pref, "target": target, "rep": rep}


def many_action_op(spec, _arg=None, call=direct):
    sol = call("design.commitment_solution", dl.commitment_solution, spec, LP_GRID)
    gap = call("game.dominance_gap", dl.dominance_gap, spec.prior, sol.distribution)
    return {"sol": sol, "gap": gap}


def check_commitment(game: dict, spec, result: dict) -> list[str]:
    sol = result["sol"]
    dist = sol.distribution
    problems = dl.validate(spec) + dist.validate(spec.prior)
    if not result["gap"] <= oracle.DOMINANCE_TOL:
        problems.append(f"dominance_gap {result['gap']:.3e}")
    revealed = dist.revealed.pieces if dist.revealed is not None else ()
    problems += oracle.check_distribution(oracle.Game(game), dist.atoms, revealed, sol.payoff)
    return problems


def check_three_action(game: dict, spec, result: dict) -> list[str]:
    problems = check_commitment(game, spec, result)
    own = oracle.Game(game)
    report, pref, rep = result["report"], result["pref"], result["rep"]
    low, high = own.full_disclosure(), result["sol"].payoff
    if not low - oracle.PAYOFF_TOL <= pref.payoff <= high + oracle.PAYOFF_TOL:
        problems.append(f"preferred payoff {pref.payoff!r} outside [{low!r}, {high!r}]")
    if not dl.verify_ore(spec, pref.rep).ok:
        problems.append("preferred representation fails verify_ore")
    if pref.coincides_with_commitment != report.implementable:
        problems.append("coincides_with_commitment differs from implementable")
    if (all(dl.check_nam(spec)) or dl.check_c3i(spec)) and not report.implementable:
        problems.append("a sufficient condition holds but the game is not implementable")
    if not dl.verify_ore(spec, rep).ok:
        problems.append("ore_at_payoff representation fails verify_ore")
    if not dl.is_laminar(rep):
        problems.append("ore_at_payoff representation is not laminar")
    problems += oracle.check_target(own, [c.pieces for c in rep.cells], result["target"])
    return problems


def check_lp(spec, result: dict) -> list[str]:
    lp = dl.lp_value(spec, LP_GRID)
    if not abs(result["sol"].payoff - lp) <= oracle.LP_TOL:
        return [f"payoff {result['sol'].payoff!r} but lp_value {lp!r}"]
    return []


# ---------------------------------------------------------------------------
# CLI invocations


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("DISCLOSURE_LAB_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def cli_invocations(tmp: Path, seed: int) -> list[tuple[str, list[str]]]:
    """Every game verb on the three bundled specs, ore-at, and the
    README's seller and voting examples, in an order drawn from the
    seed. Three write CSV files."""
    voting = tmp / "voting.json"
    voting.write_text(json.dumps(VOTING))
    calls = [
        (f"{verb} {name}", [verb, f"specs/{name}.json"])
        for name in SPECS
        for verb in GAME_VERBS
    ]
    calls.append(("ore-at exy", ["ore-at", "specs/exy.json", "--target", "0.6"]))
    calls.append(("app-seller", ["app-seller", json.dumps(SELLER), "--then", "implementable"]))
    calls.append((
        "app-voting",
        ["app-voting", str(voting), "--sweep", ",".join(map(str, SWEEP)),
         "--sweep-parameter", "beta_b"],
    ))
    calls = [
        (key, argv + ["--csv", str(tmp / key.replace(" ", "-"))] if key in CSV_CALLS else argv)
        for key, argv in calls
    ]
    random.Random(f"cli-verbs/{seed}").shuffle(calls)
    return calls


@dataclass
class CliRun:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def run_cli(argv: list[str], env: dict, tmp: Path) -> CliRun:
    """One ``python -m disclosure_lab.cli`` process, reaped with wait4 so
    its own peak RSS is known."""
    err_path = tmp / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "disclosure_lab.cli", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
        )
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return CliRun(seconds, proc.returncode, out, err_path.read_bytes(), usage.ru_maxrss)


def check_cli(outputs: dict[str, dict], specs: dict[str, dict]) -> list[str]:
    """Every CLI answer against closed forms and against each other."""
    problems = []

    def close(key, what, got, want, tol=oracle.PAYOFF_TOL):
        if not abs(got - want) <= tol:
            problems.append(f"{key}: {what} {got!r}, expected {want!r}")

    games = {name: oracle.Game(obj, snap=oracle.PAYOFF_TOL) for name, obj in specs.items()}
    gk = outputs["solve gk2016"]
    close("solve gk2016", "payoff", gk["payoff"], 100.0 / 48.0)
    # equal-thirds game: [0, 8/48] pooled low, [11/48, 21/48] to action 1
    thirds = [[[0.0, 8 / 48]], [[11 / 48, 21 / 48]], [[8 / 48, 11 / 48], [21 / 48, 1.0]]]
    got = gk["canonical"]["cells"]
    shape = [len(cell) for cell in got] == [len(cell) for cell in thirds]
    ends = [x for cell in got for piece in cell for x in piece]
    want = [x for cell in thirds for piece in cell for x in piece]
    if not shape or any(abs(a - b) > oracle.PAYOFF_TOL for a, b in zip(ends, want)):
        problems.append(f"solve gk2016: cells {got!r} are not the equal-thirds cells")
    if outputs["solve exs"]["distribution"]["atoms"] != [[0.5, 1]]:
        problems.append("solve exs: not the single atom (0.5, 1)")
    close("preferred exy", "payoff", outputs["preferred exy"]["payoff"], oracle.exy_preferred())
    for name, want in (("gk2016", True), ("exs", False), ("exy", False)):
        if outputs[f"implementable {name}"]["implementable"] is not want:
            problems.append(f"implementable {name}: expected {want}")
    for name, game in games.items():
        key = f"solve {name}"
        dist = outputs[key]["distribution"]
        problems += [f"{key}: {p}" for p in oracle.check_distribution(
            game, dist["atoms"], dist["revealed"], outputs[key]["payoff"])]
        base = outputs[f"baselines {name}"]
        close(f"baselines {name}", "unraveling", base["unraveling"], game.full_disclosure())
        close(f"baselines {name}", "cheap_talk", base["cheap_talk"], game.no_information())
        pset = outputs[f"payoff-set {name}"]
        close(f"payoff-set {name}", "unraveling", pset["unraveling"], game.full_disclosure())
        close(f"payoff-set {name}", "preferred", pset["preferred"], outputs[f"preferred {name}"]["payoff"])
        if pset["bounds"] != [pset["unraveling"], pset["preferred"]]:
            problems.append(f"payoff-set {name}: bounds disagree with the endpoints")
        cond = outputs[f"suffcond {name}"]
        if cond["nam_all"] is not all(cond["nam"]) or len(cond["nam"]) != 1:
            problems.append(f"suffcond {name}: nam_all disagrees with nam")
        values = game.values
        if cond["c3i"] is not (values[2] > 2.0 * values[1]):
            problems.append(f"suffcond {name}: c3i on a uniform prior is v2 > 2 v1")
    close("payoff-set exy", "preferred", outputs["payoff-set exy"]["preferred"], oracle.exy_preferred())
    close("preferred gk2016", "payoff", outputs["preferred gk2016"]["payoff"], 100.0 / 48.0)
    ore = outputs["ore-at exy"]
    close("ore-at exy", "payoff", ore["payoff"], 0.6, oracle.TARGET_TOL)
    problems += [f"ore-at exy: {p}" for p in oracle.check_target(
        games["exy"], ore["representation"]["cells"], 0.6)]
    if ore["equilibrium_ok"] is not True:
        problems.append("ore-at exy: not an equilibrium")
    seller = outputs["app-seller"]
    want = oracle.seller_cutoffs(SELLER["price"], SELLER["utility"]["sigma"])
    got = seller["game"]["cutoffs"][1:-1]
    if len(got) != len(want) or any(abs(a - b) > oracle.PAYOFF_TOL for a, b in zip(got, want)):
        problems.append(f"app-seller: cutoffs {got!r}, expected {want!r}")
    if not isinstance(seller.get("result", {}).get("implementable"), bool):
        problems.append("app-seller: no implementable verdict")
    rows = outputs["app-voting"].get("sweep", {}).get("rows", [])
    voter = VOTING["voters"][0]
    for row, delta in zip(rows, SWEEP):
        gamma2 = (voter["alpha_ab"] - voter["alpha_b"]) / (voter["beta_b"] + delta - voter["beta_ab"])
        close("app-voting", "gamma2_m", row["gamma2_m"], gamma2)
    decrease = any(
        b["payoff"] < a["payoff"] - 1e-12 and b["parameter"] > a["parameter"]
        for a, b in zip(rows, rows[1:])
    )
    if len(rows) != len(SWEEP) or outputs["app-voting"]["sweep"].get("payoff_decrease") is not decrease:
        problems.append("app-voting: payoff_decrease missing or inconsistent with the rows")
    return problems


def check_csv(tmp: Path) -> list[str]:
    """Line counts of the CSV files the three --csv invocations write."""
    want = {
        "preferred-exy/steps.csv": 7, "preferred-exy/intervals.csv": None,
        "payoff-set-exy/sweep.csv": 102, "app-voting/sweep.csv": len(SWEEP) + 1,
    }
    problems = []
    for rel, lines in want.items():
        path = tmp / rel
        if not path.is_file():
            problems.append(f"--csv did not write {rel}")
        elif lines is not None and len(path.read_text().splitlines()) != lines:
            problems.append(f"{rel} does not have {lines} lines")
    return problems


# ---------------------------------------------------------------------------
# Set-up and the timed loop


@dataclass
class Prepared:
    """Everything made before timing starts."""

    workload: str
    seed: int
    slots: list = field(default_factory=list)
    tmp: Path = None
    env: dict = None
    calls: list = None


def prepare(workload: str, seed: int, games: int = 0) -> Prepared:
    """Input generation and one untimed warm-up operation on a fixed
    input. ``setup_s`` times this from process start, in fresh processes.
    ``games`` overrides the number of seeded games per round."""
    prep = Prepared(workload, seed)
    if workload == "cli-verbs":
        prep.tmp = OUT / f"tmp-{os.getpid()}"
        prep.tmp.mkdir(parents=True, exist_ok=True)
        prep.env = cli_env()
        prep.calls = cli_invocations(prep.tmp, seed)
        warm = run_cli(["solve", "specs/gk2016.json"], prep.env, prep.tmp)
        if warm.code != 0:
            raise RuntimeError(f"warm-up CLI call exited {warm.code}: {warm.stderr.decode()}")
        return prep
    if workload == "three-action":
        prep.slots = [
            Slot(f"three-action/{seed}/{k}", *three_action_game(seed, k))
            for k in range(games or THREE_ACTION_GAMES)
        ]
        three_action_op(dl.GameSpec.from_obj(GK2016), 0.5)
    else:
        prep.slots = [Slot("recovery-fault", RECOVERY_FAULT_GAME, fixed=True)]
        prep.slots += [
            Slot(f"many-action/{seed}/{k}", *many_action_game(seed, k),
                 redraw=functools.partial(many_action_game, seed, k))
            for k in range(games or MANY_ACTION_GAMES)
        ]
        seller = dl.seller_to_game(dl.SellerModel(SELLER["utility"], price=SELLER["price"]))
        many_action_op(seller)
    return prep


def cleanup(prep: Prepared) -> None:
    if prep.tmp is not None:
        shutil.rmtree(prep.tmp, ignore_errors=True)


@dataclass
class Timed:
    """``samples`` are raw wall times, ``scaled`` the same at the
    machine's reference speed (see speed.py)."""

    samples: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    clock: speed.Clock = field(default_factory=speed.Clock)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    redrawn: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def _rounds_done(elapsed: float, last_round: float, seconds: float) -> bool:
    """Stop at the round boundary nearest the requested run length."""
    return elapsed >= seconds - last_round / 2.0


def recovery_fault(result) -> bool:
    return isinstance(result, dl.SolverError) and RECOVERY_FAULT in str(result)


def run_op(slot: Slot, op, call=direct):
    """One operation on a slot's input, and its duration."""
    start = time.perf_counter()
    try:
        result = op(slot.spec, slot.arg, call)
    except dl.SolverError as err:
        result = err
    return result, time.perf_counter() - start


def first_run(slot: Slot, op, timed: Timed, call=direct):
    """The first operation on a slot, and the duration of every try. A
    seeded many-action game that meets the recovery fault, which it does
    for some seeds only, is redrawn up to MAX_REDRAWS times and named in
    ``timed.redrawn``; counted, it would make the failure share depend on
    the seed. Every other failure stands."""
    result, took = run_op(slot, op, call)
    tries = [took]
    while slot.redraw and recovery_fault(result) and slot.redraws < MAX_REDRAWS:
        timed.redrawn.append(f"{slot.name}: {result}")
        slot.redraws += 1
        slot.game, slot.arg = slot.redraw(slot.redraws)
        slot.spec = dl.GameSpec.from_obj(slot.game)
        result, took = run_op(slot, op, call)
        tries.append(took)
    return result, tries


def count_outcome(slot: Slot, result, timed: Timed) -> None:
    """Every failure is counted; only the fixed game's recovery fault is
    expected, any other fails the run."""
    timed.attempted += 1
    if isinstance(result, Exception):
        timed.failed += 1
        if not (slot.fixed and recovery_fault(result)):
            timed.problems.append(f"{slot.name}: failed: {result}")


def check_games(prep: Prepared, results: dict, timed: Timed, lp_checks: int) -> None:
    """Checks of each slot's answer, outside any timed call."""
    check = check_three_action if prep.workload == "three-action" else check_commitment
    lp_slots = random.Random(f"{prep.workload}/{prep.seed}/lp").sample(
        [i for i, s in enumerate(prep.slots) if not s.fixed], lp_checks
    )
    for i, slot in enumerate(prep.slots):
        result = results[i]
        if isinstance(result, Exception):
            continue
        problems = check(slot.game, slot.spec, result)
        if i in lp_slots:
            problems += check_lp(slot.spec, result)
        timed.problems += [f"{slot.name}: {p}" for p in problems]


def measure_games(prep: Prepared, seconds: float) -> Timed:
    op = three_action_op if prep.workload == "three-action" else many_action_op
    timed = Timed()
    first: dict[int, object] = {}
    elapsed = 0.0
    while True:
        round_time = 0.0
        for i, slot in enumerate(prep.slots):
            if timed.rounds == 0:
                result, tries = first_run(slot, op, timed)
                first[i] = result
            else:
                result, took = run_op(slot, op)
                tries = [took]
                if outcome(first[i]) != outcome(result):
                    timed.problems.append(f"{slot.name}: answer changed between rounds")
            # the tries of a redrawn game are timed operations too
            timed.scaled += [timed.clock.scaled(took) for took in tries]
            timed.samples += tries
            round_time += math.fsum(tries)
            count_outcome(slot, result, timed)
        timed.rounds += 1
        elapsed += round_time
        if _rounds_done(elapsed, round_time, seconds):
            break
    timed.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_games(prep, first, timed, LP_CHECKS)
    return timed


def outcome(result) -> object:
    if isinstance(result, Exception):
        return str(result)
    return result["sol"].payoff


def measure_cli(prep: Prepared, seconds: float) -> Timed:
    timed = Timed()
    runs: dict[str, CliRun] = {}
    rss = 0
    elapsed = 0.0
    while True:
        round_time = 0.0
        for key, argv in prep.calls:
            run = run_cli(argv, prep.env, prep.tmp)
            timed.clock.tick()
            timed.samples.append(run.seconds)
            round_time += run.seconds
            timed.attempted += 1
            rss = max(rss, run.rss_kb)
            if run.code != 0:
                timed.problems.append(f"{key}: exit {run.code}: {run.stderr.decode()[-300:]}")
            elif key in runs and runs[key].stdout != run.stdout:
                timed.problems.append(f"{key}: output differs between two runs")
            runs.setdefault(key, run)
        timed.rounds += 1
        elapsed += round_time
        if _rounds_done(elapsed, round_time, seconds):
            break
    timed.peak_rss_mb = rss / 1024.0
    timed.scaled = [timed.clock.median_scaled(took) for took in timed.samples]
    repeat = random.Random(f"cli-verbs/{prep.seed}/repeat").sample(prep.calls, REPEATS_CHECKED)
    for key, argv in repeat:
        if run_cli(argv, prep.env, prep.tmp).stdout != runs[key].stdout:
            timed.problems.append(f"{key}: output differs between two runs")
    if timed.problems:
        return timed
    outputs = {key: json.loads(run.stdout) for key, run in runs.items()}
    specs = {name: json.loads((ROOT / "specs" / f"{name}.json").read_text()) for name in SPECS}
    timed.problems += check_cli(outputs, specs)
    timed.problems += check_csv(prep.tmp)
    return timed


def measure(prep: Prepared, seconds: float) -> Timed:
    if prep.workload == "cli-verbs":
        return measure_cli(prep, seconds)
    return measure_games(prep, seconds)


def summary(timed: Timed) -> dict:
    """End-to-end figures of one run, at the reference speed, and the
    reference figures beside them, the raw ones among them."""
    samples = sorted(timed.scaled)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {
        "op_p50_s": statistics.median(samples),
        "ops_per_s": len(samples) / math.fsum(samples),
        "peak_rss_mb": timed.peak_rss_mb,
        "raw_op_p50_s": statistics.median(timed.samples),
        "raw_ops_per_s": len(timed.samples) / math.fsum(timed.samples),
        "op_q1_s": q1,
        "op_q3_s": q3,
        "op_p90_s": samples[min(len(samples) - 1, math.ceil(0.9 * len(samples)) - 1)],
        "samples": len(samples),
        "rounds": timed.rounds,
    }
