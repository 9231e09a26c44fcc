"""Tests of the benchmark itself: every check rejects a wrong answer, the
inputs are a function of the seed, and the profiler counts repeat.

Run from the root of the checkout:
    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import disclosure_lab as dl  # noqa: E402
from disclosure_lab import cli  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

EXY = {"prior": {"kind": "uniform"}, "cutoffs": [0.0, 0.6, 0.7, 1.0], "values": [0.0, 1.0, 1.3]}
PLINEAR = {"kind": "plinear", "knots": [0.0, 0.3, 1.0], "density": [0.5, 1.7, 0.9]}


def _integral(f, a, b, n=20000):
    h = (b - a) / n
    return sum(f(a + (j + 0.5) * h) for j in range(n)) * h


def test_density_matches_brute_force_integration():
    d = oracle.Density.from_obj(PLINEAR)
    assert _integral(d.pdf, 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    for x in (0.1, 0.3, 0.55, 1.0):
        assert d.cdf(x) == pytest.approx(_integral(d.pdf, 0.0, x), abs=1e-8)
        assert d.moment(x) == pytest.approx(_integral(lambda t: t * d.pdf(t), 0.0, x), abs=1e-8)
        assert d.icdf(x) == pytest.approx(_integral(d.cdf, 0.0, x), abs=1e-7)


def _solved(game):
    spec = dl.GameSpec.from_obj(game)
    return spec, wl.three_action_op(spec, 0.5)


def test_commitment_check_passes_a_true_answer():
    spec, result = _solved(wl.GK2016)
    assert wl.check_three_action(wl.GK2016, spec, result) == []


def test_broken_dominance_is_rejected():
    spread = dl.MeanDistribution(((0.0, 0.5), (1.0, 0.5)), payoff=1.5)
    problems = oracle.check_distribution(oracle.Game(wl.GK2016), spread.atoms, None, 1.5)
    assert any("dominance" in p for p in problems)


def test_payoff_off_by_1e6_is_rejected():
    spec, result = _solved(wl.GK2016)
    dist = result["sol"].distribution
    problems = oracle.check_distribution(
        oracle.Game(wl.GK2016), dist.atoms, None, result["sol"].payoff + 1e-6
    )
    assert any("payoff" in p for p in problems)


def test_ore_with_shifted_threshold_is_rejected():
    spec, result = _solved(EXY)
    assert wl.check_three_action(EXY, spec, result) == []
    rep = result["rep"]
    shifted = dl.sweep_representation(spec, rep, rep.cells[0].hi + 0.02)
    problems = wl.check_three_action(EXY, spec, dict(result, rep=shifted))
    assert any("target" in p for p in problems)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Every CLI invocation of the workload, through cli.main in process."""
    tmp = tmp_path_factory.mktemp("cli")
    outputs = {}
    cwd = os.getcwd()
    os.chdir(wl.ROOT)
    try:
        for key, argv in wl.cli_invocations(tmp, 0):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            outputs[key] = json.loads(out.getvalue())
    finally:
        os.chdir(cwd)
    specs = {n: json.loads((wl.ROOT / "specs" / f"{n}.json").read_text()) for n in wl.SPECS}
    return outputs, specs, tmp


def test_cli_check_passes_the_answers(cli_outputs):
    outputs, specs, tmp = cli_outputs
    assert wl.check_cli(outputs, specs) == []
    assert wl.check_csv(tmp) == []


@pytest.mark.parametrize("key,path", [
    ("solve gk2016", ("payoff",)),
    ("preferred exy", ("payoff",)),
    ("baselines exs", ("unraveling",)),
    ("payoff-set exy", ("preferred",)),
    ("ore-at exy", ("payoff",)),
])
def test_cli_altered_payoff_is_rejected(cli_outputs, key, path):
    outputs, specs, _ = cli_outputs
    altered = copy.deepcopy(outputs)
    node = altered[key]
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] += 1e-6
    assert wl.check_cli(altered, specs)


@pytest.mark.parametrize("make", [wl.three_action_game, wl.many_action_game])
def test_inputs_are_a_function_of_the_seed(make):
    for slot in (0, 5):
        assert make(3, slot) == make(3, slot)
        assert make(3, slot) != make(4, slot)
    assert make(3, 1) != make(3, 2)
    assert wl.many_action_game(3, 1, 1) != wl.many_action_game(3, 1, 0)


def _failing(message):
    def op(spec, arg=None, call=wl.direct):
        raise dl.SolverError(message)
    return op


def test_a_failed_three_action_operation_fails_the_run(monkeypatch):
    prep = wl.prepare("three-action", 3, games=2)
    monkeypatch.setattr(wl, "three_action_op", _failing("no obedient incentive-compatible candidate"))
    timed = wl.measure(prep, 0)
    assert (timed.attempted, timed.failed, timed.redrawn) == (2, 2, [])
    assert len(timed.problems) == 2


def test_only_the_recovery_fault_is_redrawn_and_only_a_few_times(monkeypatch):
    prep, again = (wl.prepare("many-action", 3, games=2) for _ in range(2))
    monkeypatch.setattr(wl, "many_action_op", _failing(wl.RECOVERY_FAULT + "; refine the grid"))
    timed = wl.measure(prep, 0)
    assert len(timed.redrawn) == 2 * wl.MAX_REDRAWS
    assert len(timed.samples) == 3 + 2 * wl.MAX_REDRAWS
    assert (timed.attempted, timed.failed, len(timed.problems)) == (3, 3, 2)
    assert not [p for p in timed.problems if p.startswith("recovery-fault")]

    monkeypatch.setattr(wl, "many_action_op", _failing("commitment LP failed"))
    timed = wl.measure(again, 0)
    assert timed.redrawn == []
    assert (timed.attempted, timed.failed, len(timed.problems)) == (3, 3, 3)


def test_times_are_scaled_by_the_loop_before_and_after(monkeypatch):
    loops = iter([0.002, 0.006, 0.008])
    monkeypatch.setattr(speed, "loop_s", lambda: next(loops))
    clock = speed.Clock()
    # the loop's mean is 0.004 around the first time, 0.007 around the second
    assert clock.scaled(1.0) == pytest.approx(speed.REFERENCE_S / 0.004)
    assert clock.scaled(0.7) == pytest.approx(0.7 * speed.REFERENCE_S / 0.007)
    assert clock.loops == [0.002, 0.006, 0.008]


def test_child_processes_are_scaled_by_the_median_arithmetic_half(monkeypatch):
    halves = iter([0.002, 0.008, 0.006, 0.001])
    monkeypatch.setattr(speed, "arithmetic_s", lambda: next(halves))
    monkeypatch.setattr(speed, "loop_s", lambda: 0.003)
    clock = speed.Clock()
    for _ in range(4):
        clock.tick()
    assert clock.median_scaled(1.0) == pytest.approx(speed.ARITHMETIC_REFERENCE_S / 0.004)


def test_cli_order_is_a_function_of_the_seed(tmp_path):
    assert wl.cli_invocations(tmp_path, 3) == wl.cli_invocations(tmp_path, 3)
    assert wl.cli_invocations(tmp_path, 3) != wl.cli_invocations(tmp_path, 4)


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(("_calls", "_failures"))}


def test_profiler_passes_repeat_their_counts():
    three = wl.prepare("three-action", 5, games=2).slots
    many = wl.prepare("many-action", 5, games=1).slots
    timed = wl.Timed()
    results = {
        "three": {i: wl.three_action_op(s.spec, s.arg) for i, s in enumerate(three)},
        "many": {},
    }
    for i, s in enumerate(many):
        try:
            results["many"][i] = wl.many_action_op(s.spec)
        except dl.SolverError as err:
            results["many"][i] = err
    runs = [
        {**layers.profile_three_action(three, results["three"], timed),
         **layers.profile_many_action(many, results["many"], timed)}
        for _ in range(2)
    ]
    assert timed.problems == []
    assert _counts(runs[0]) == _counts(runs[1])
    assert runs[0]["design.commitment_calls"] == 4
    assert runs[0]["design.recovery_failures"] == 1


def test_scipy_share_counts_only_outermost_scipy_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:       100 |        300 |     scipy",
        "import time:         5 |          5 |       scipy.optimize._zeros",
        "import time:        50 |         55 |     scipy.optimize",
        "import time:        20 |        400 |   disclosure_lab.prior",
        "import time:         7 |          7 | numpy",
    ])
    assert layers.scipy_import_s(text) == pytest.approx(355e-6)
