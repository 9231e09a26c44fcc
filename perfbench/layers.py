"""The traced run: per-layer metrics of the package's modules.

Every layer is measured from outside, through the package's public
functions; nothing in the package is patched. Times come from spans the
benchmark records around its own calls. Counts, and the times of steps no
public function isolates (LP build, HiGHS, segment recovery, the prior's
own time), come from a separate cProfile pass over the same operations.
The spans are kept in memory and written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import itertools
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import disclosure_lab as dl
from disclosure_lab import cli

import workloads as wl

# Seeded games per traced pass; the many-action pass also runs the fixed
# recovery-fault game.
THREE_ACTION_GAMES = 8
MANY_ACTION_GAMES = 5
IMPORT_REPEATS = 3
SWEEP_REPEATS = 3
CDF_POINTS = 20000
PLINEAR_4 = dl.plinear_prior((0.0, 0.3, 0.6, 1.0), (0.5, 1.5, 1.0, 0.8))

# (file suffix, function) read from the profiler pass
PROFILED = {
    "cdf": ("disclosure_lab/prior.py", "cdf"),
    "first_moment": ("disclosure_lab/prior.py", "first_moment"),
    "find_root": ("disclosure_lab/prior.py", "find_root"),
    "commitment": ("disclosure_lab/design.py", "commitment_solution"),
    "lp_build": ("disclosure_lab/design.py", "_lp_problem"),
    "linprog": ("scipy/optimize/_linprog.py", "linprog"),
    "recovery": ("disclosure_lab/design.py", "_recover_segments"),
    "payoff": ("disclosure_lab/representation.py", "representation_payoff"),
}

PER_LAYER = {
    "import.package_s": "s", "import.scipy_s": "s",
    **{f"cli.{verb}_s": "s" for verb in (*wl.GAME_VERBS, "ore-at", "app-seller", "app-voting")},
    "cli.in_process_s": "s",
    "prior.cdf_calls": "count", "prior.first_moment_calls": "count",
    "prior.find_root_calls": "count", "prior.self_s": "s", "prior.cdf_us": "us",
    "design.commitment_s": "s", "design.commitment_calls": "count",
    "design.lp_value_s": "s", "design.lp_build_s": "s", "design.highs_s": "s",
    "design.recovery_s": "s", "design.linprog_calls": "count",
    "design.recovery_failures": "count",
    "representation.check_prop2_s": "s", "representation.nested_interval_rep_s": "s",
    "representation.payoff_calls": "count",
    "equilibrium.implementable_s": "s", "equilibrium.preferred_ore_s": "s",
    "equilibrium.ore_at_payoff_s": "s", "equilibrium.verify_ore_s": "s",
    "game.dominance_gap_s": "s",
    "apps.voting_sweep_s": "s",
}


class Tracer:
    """Spans with name, start, end, parent and operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None, "op": self.op}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time: its duration less
        that of its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({**s, "self": s["end"] - s["start"] - child[i]}) + "\n")


class Profiled:
    """cProfile pass: the ore_at_payoff calls go to a profiler of their
    own, so calls made inside one of them can be counted apart."""

    def __init__(self):
        self.whole = cProfile.Profile()
        self.ore = cProfile.Profile()

    def call(self, name: str, fn, *args):
        prof = self.ore if name == "equilibrium.ore_at_payoff" else self.whole
        prof.enable()
        try:
            return fn(*args)
        finally:
            prof.disable()


def _stats(*profiles) -> pstats.Stats:
    stats = pstats.Stats(profiles[0])
    for prof in profiles[1:]:
        stats.add(prof)
    return stats


def _profiled(stats: pstats.Stats, what: str) -> tuple[int, float]:
    """Total calls and cumulative seconds of one function."""
    suffix, func = PROFILED[what]
    calls, cum = 0, 0.0
    for (path, _, name), (_, nc, _, ct, _) in stats.stats.items():
        if name == func and Path(path).as_posix().endswith(suffix):
            calls += nc
            cum += ct
    return calls, cum


def _self_time(stats: pstats.Stats, suffix: str) -> float:
    return sum(
        tt for (path, _, _), (_, _, tt, _, _) in stats.stats.items()
        if Path(path).as_posix().endswith(suffix)
    )


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=wl.ROOT, env=wl.cli_env(),
        capture_output=True, text=True, check=True,
    )


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules in
    ``-X importtime`` output. Lines come after their children, so read
    backwards to meet each parent before its children."""
    total_us = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total_us += int(cumulative)
        stack.append((depth, name))
    return total_us / 1e6


def import_layer(tracer: Tracer, metrics: dict) -> None:
    timer = "import time; t = time.perf_counter(); import disclosure_lab; print(time.perf_counter() - t)"
    package, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        with tracer.span("import.package"):
            package.append(float(_python(["-c", timer]).stdout))
        with tracer.span("import.importtime"):
            scipy.append(scipy_import_s(_python(["-X", "importtime", "-c", "import disclosure_lab"]).stderr))
    metrics["import.package_s"] = statistics.median(package)
    metrics["import.scipy_s"] = statistics.median(scipy)


def cli_layer(tracer: Tracer, seed: int, metrics: dict, timed: wl.Timed) -> None:
    prep = wl.prepare("cli-verbs", seed)
    try:
        outputs = {}
        for key, argv in prep.calls:
            tracer.op = key
            with tracer.span(f"cli.{argv[0]}"):
                run = wl.run_cli(argv, prep.env, prep.tmp)
            timed.attempted += 1
            if run.code != 0:
                timed.problems.append(f"{key}: exit {run.code}")
                return
            outputs[key] = json.loads(run.stdout)
        for verb in (*wl.GAME_VERBS, "ore-at", "app-seller", "app-voting"):
            metrics[f"cli.{verb}_s"] = tracer.median(f"cli.{verb}")
        specs = {n: json.loads((wl.ROOT / "specs" / f"{n}.json").read_text()) for n in wl.SPECS}
        timed.problems += wl.check_cli(outputs, specs)
        # the same list in one warm process: the program's own share
        cwd = os.getcwd()
        os.chdir(wl.ROOT)
        try:
            for span in ("cli.in_process_warm-up", "cli.in_process"):
                for key, argv in prep.calls:
                    with contextlib.redirect_stdout(io.StringIO()) as out, tracer.span(span):
                        code = cli.main(argv)
                    if code != 0 or json.loads(out.getvalue()) != outputs[key]:
                        timed.problems.append(f"{key}: in-process answer differs")
        finally:
            os.chdir(cwd)
        metrics["cli.in_process_s"] = tracer.median("cli.in_process")
    finally:
        wl.cleanup(prep)


def _traced_op(tracer: Tracer, op, workload: str):
    ids = itertools.count()

    def run(spec, arg, call):
        tracer.op = f"{workload}-{next(ids)}"
        with tracer.span("op"):
            return op(spec, arg, call)

    return run


def three_action_layer(tracer: Tracer, seed: int, metrics: dict, timed: wl.Timed) -> None:
    prep = wl.prepare("three-action", seed, THREE_ACTION_GAMES)
    traced = _traced_op(tracer, wl.three_action_op, "three-action")
    results = {}
    for i, slot in enumerate(prep.slots):
        result, _ = wl.first_run(slot, traced, timed, call=tracer.call)
        wl.count_outcome(slot, result, timed)
        results[i] = result
        if isinstance(result, Exception):
            continue
        # extra calls that isolate a layer; the untraced operation makes none
        sol = result["sol"]
        tracer.call("representation.check_prop2", dl.check_prop2, slot.spec, sol.canonical)
        tracer.call("equilibrium.verify_ore", dl.verify_ore, slot.spec, result["pref"].rep)
        for seg in sol.segments:
            if seg.kind == "bipooling":
                tracer.call("representation.nested_interval_rep", dl.nested_interval_rep,
                            slot.spec.prior, seg.outer, *seg.means)
    wl.check_games(prep, results, timed, lp_checks=1)
    for name in ("equilibrium.implementable", "equilibrium.preferred_ore",
                 "equilibrium.ore_at_payoff", "equilibrium.verify_ore",
                 "representation.check_prop2"):
        metrics[f"{name}_s"] = tracer.median(name)
    metrics["design.commitment_s"] = tracer.median("design.commitment_solution")

    metrics.update(profile_three_action(prep.slots, results, timed))


def profile_three_action(slots, results: dict, timed: wl.Timed) -> dict:
    """Per-operation counts, and the prior's own time, from a cProfile
    pass over the same games; the answers must match the span pass."""
    profiled = Profiled()
    for i, slot in enumerate(slots):
        if wl.outcome(wl.three_action_op(slot.spec, slot.arg, profiled.call)) != wl.outcome(results[i]):
            timed.problems.append(f"{slot.name}: profiled answer differs")
    ops = len(slots)
    whole = _stats(profiled.whole, profiled.ore)
    return {
        "prior.cdf_calls": _profiled(whole, "cdf")[0] / ops,
        "prior.first_moment_calls": _profiled(whole, "first_moment")[0] / ops,
        "prior.find_root_calls": _profiled(whole, "find_root")[0] / ops,
        "prior.self_s": _self_time(whole, "disclosure_lab/prior.py") / ops,
        "design.commitment_calls": _profiled(whole, "commitment")[0] / ops,
        "representation.payoff_calls": _profiled(_stats(profiled.ore), "payoff")[0] / ops,
    }


def many_action_layer(tracer: Tracer, seed: int, metrics: dict, timed: wl.Timed) -> None:
    prep = wl.prepare("many-action", seed, MANY_ACTION_GAMES)
    traced = _traced_op(tracer, wl.many_action_op, "many-action")
    results = {}
    for i, slot in enumerate(prep.slots):
        result, _ = wl.first_run(slot, traced, timed, call=tracer.call)
        wl.count_outcome(slot, result, timed)
        results[i] = result
        tracer.call("design.lp_value", dl.lp_value, slot.spec, wl.LP_GRID)
    wl.check_games(prep, results, timed, lp_checks=1)
    metrics["design.lp_value_s"] = tracer.median("design.lp_value")

    metrics.update(profile_many_action(prep.slots, results, timed))


def profile_many_action(slots, results: dict, timed: wl.Timed) -> dict:
    """LP build, HiGHS and recovery per operation, from a cProfile pass.
    The recovery faults are those of this pass and those of the seeded
    games redrawn in the span pass."""
    profiled = Profiled()
    failures = 0
    for i, slot in enumerate(slots):
        try:
            got = wl.many_action_op(slot.spec, None, profiled.call)
        except dl.SolverError as err:
            got = err
            failures += wl.RECOVERY_FAULT in str(err)
        if wl.outcome(got) != wl.outcome(results[i]):
            timed.problems.append(f"{slot.name}: profiled answer differs")
    ops = len(slots)
    stats = _stats(profiled.whole)
    return {
        "design.lp_build_s": _profiled(stats, "lp_build")[1] / ops,
        "design.highs_s": _profiled(stats, "linprog")[1] / ops,
        "design.recovery_s": _profiled(stats, "recovery")[1] / ops,
        "design.linprog_calls": _profiled(stats, "linprog")[0] / ops,
        "design.recovery_failures": failures + len(timed.redrawn),
    }


def small_layers(tracer: Tracer, metrics: dict) -> None:
    xs = [j / (CDF_POINTS - 1) for j in range(CDF_POINTS)]
    for prior in (dl.uniform_prior(), PLINEAR_4) * 3:
        with tracer.span("prior.cdf_loop"):
            for x in xs:
                prior.cdf(x)
    metrics["prior.cdf_us"] = tracer.median("prior.cdf_loop") / CDF_POINTS * 1e6
    model = dl.VotingModel(
        tuple(dl.Voter(**v) for v in wl.VOTING["voters"]),
        v_ab=wl.VOTING["v_ab"], v_b=wl.VOTING["v_b"],
    )
    for _ in range(SWEEP_REPEATS):
        tracer.call("apps.voting_sweep", dl.voting_comparative_statics, model, wl.SWEEP, "beta_b")
    metrics["apps.voting_sweep_s"] = tracer.median("apps.voting_sweep")
    metrics["game.dominance_gap_s"] = tracer.median("game.dominance_gap")
    metrics["representation.nested_interval_rep_s"] = tracer.median("representation.nested_interval_rep")


def _ops_per_s(tracer: Tracer, workload: str) -> float:
    took = [s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "op" and s["op"].startswith(workload)]
    return len(took) / sum(took)


def traced(seed: int, workload: str):
    """Every layer on the inputs of one seed, whatever the workload: the
    per-layer metrics span all three workloads."""
    tracer = Tracer()
    timed = wl.Timed()
    metrics: dict[str, float] = {}
    start = time.perf_counter()
    import_layer(tracer, metrics)
    cli_layer(tracer, seed, metrics, timed)
    three_action_layer(tracer, seed, metrics, timed)
    many_action_layer(tracer, seed, metrics, timed)
    small_layers(tracer, metrics)
    tracer.write(wl.OUT / f"trace-{workload}-seed{seed}.jsonl")
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        timed.problems.append(f"per-layer metrics not measured: {missing}")
    detail = {
        "traced_s": time.perf_counter() - start,
        "spans": len(tracer.spans),
        # against the untraced ops_per_s, the cost of the spans
        "traced_three-action_ops_per_s": _ops_per_s(tracer, "three-action"),
        "traced_many-action_ops_per_s": _ops_per_s(tracer, "many-action"),
        "redrawn": timed.redrawn,
        "problems": timed.problems[:20],
    }
    values = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    return timed.attempted, timed.failed, not timed.problems, values, detail
