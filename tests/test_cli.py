import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import disclosure_lab
from disclosure_lab import (
    DeterministicRepresentation,
    GameSpec,
    Prior,
    SolverError,
    commitment_solution,
    uniform_prior,
    verify_ore,
)
from disclosure_lab import cli

from conftest import SLIVER_WINDOW_GAMES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(name):
    return str(resources.files("disclosure_lab") / "fixtures" / name)


GK = fixture_path("gk2016.json")
EXS = fixture_path("exs.json")
EXY = fixture_path("exy.json")

SPECS = Path(__file__).resolve().parent.parent / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SELLER = '{"utility":{"kind":"crra","sigma":0.5},"price":0.25}'
VOTER = json.dumps(
    {
        "voters": [
            {"alpha_ab": -0.6, "alpha_b": -1.5, "beta_ab": 1.0, "beta_b": 2.0}
        ],
        "v_ab": 1.0,
        "v_b": 1.05,
    }
)

# stdout of each run, saved under tests/golden/<name>.json
GOLDEN_RUNS = {
    f"{verb}-{game}": (verb, str(SPECS / f"{game}.json"))
    for verb in ("solve", "implementable", "suffcond", "preferred",
                 "payoff-set", "baselines")
    for game in ("gk2016", "exs", "exy")
}
GOLDEN_RUNS.update({
    "ore-at-exy": ("ore-at", str(SPECS / "exy.json"), "--target", "0.6"),
    "app-seller-implementable": ("app-seller", SELLER, "--then", "implementable"),
    "app-voting-sweep": ("app-voting", VOTER, "--sweep", "0,0.03,0.06,0.09,0.12"),
    "app-voting-preferred": ("app-voting", VOTER, "--then", "preferred"),
})


def test_solve_fixture(capsys):
    code, out, _ = run(capsys, "solve", GK)
    assert code == 0
    doc = json.loads(out)
    assert doc["payoff"] == pytest.approx(100.0 / 48.0, abs=1e-8)
    assert doc["feasible"] is True
    assert doc["segments"]
    kinds = {s["kind"] for s in doc["segments"]}
    assert kinds <= {"revealed", "pooling", "bipooling"}


def test_implementable_false_still_exits_zero(capsys):
    code, out, _ = run(capsys, "implementable", EXS)
    assert code == 0
    doc = json.loads(out)
    assert doc["implementable"] is False
    assert doc["violations"]
    assert doc["violations"][0]["kind"] == "skipped-action"


def test_suffcond_reports_all_three(capsys):
    code, out, _ = run(capsys, "suffcond", GK)
    assert code == 0
    doc = json.loads(out)
    assert doc["nam"] == [True]
    assert doc["cni"] is False
    assert doc["c3i"] is True


def test_suffcond_c3i_null_off_three_actions(capsys):
    spec = json.dumps(
        {
            "prior": {"kind": "uniform"},
            "cutoffs": [0.0, 0.75, 1.0],
            "values": [0.0, 1.0],
        }
    )
    code, out, _ = run(capsys, "suffcond", spec)
    assert code == 0
    assert json.loads(out)["c3i"] is None


def test_suffcond_on_a_prior_that_ends_early(capsys):
    """All prior mass sits below 0.283, so the NAM window [h, 0.9] is
    empty for every h past it; the condition fails instead of raising."""
    spec = json.dumps(
        {
            "prior": {
                "kind": "plinear",
                "knots": [0.0, 0.283, 0.529, 0.556, 0.728, 1.0],
                "density": [7.07, 0.0, 0.0, 0.0, 0.0, 0.0],
            },
            "cutoffs": [0.0, 0.63, 0.9, 1.0],
            "values": [0.0, 1.0, 1.83],
        }
    )
    code, out, _ = run(capsys, "suffcond", spec)
    assert code == 0
    assert json.loads(out)["nam"] == [False]


@pytest.mark.parametrize("game", SLIVER_WINDOW_GAMES)
@pytest.mark.parametrize("verb", ["solve", "implementable", "preferred", "payoff-set"])
def test_sliver_top_windows_exit_zero(capsys, game, verb):
    code, out, err = run(capsys, verb, json.dumps(game))
    assert code == 0, err
    if verb == "solve":
        assert json.loads(out)["feasible"] is True


def test_preferred_round_trips_representation(capsys):
    code, out, _ = run(capsys, "preferred", EXY)
    assert code == 0
    doc = json.loads(out)
    rep = DeterministicRepresentation.from_obj(doc["representation"])
    spec = GameSpec.from_obj(json.load(open(EXY)))
    audit = verify_ore(spec, rep)
    assert audit.ok == doc["equilibrium_ok"]
    assert audit.payoff == pytest.approx(doc["payoff"], abs=1e-9)


def test_payoff_set_bounds(capsys):
    code, out, _ = run(capsys, "payoff-set", EXY)
    assert code == 0
    doc = json.loads(out)
    assert doc["unraveling"] == pytest.approx(0.49, abs=1e-9)
    assert doc["preferred"] > doc["unraveling"]


def test_ore_at_target(capsys):
    code, out, _ = run(capsys, "ore-at", EXY, "--target", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["payoff"] == pytest.approx(0.6, abs=1e-6)
    assert doc["equilibrium_ok"] is True


def test_ore_at_out_of_range_is_spec_error(capsys):
    code, out, err = run(capsys, "ore-at", EXY, "--target", "0.99")
    assert code == 2
    assert out == ""
    assert "out of range" in err


def test_baselines(capsys):
    code, out, _ = run(capsys, "baselines", GK)
    assert code == 0
    doc = json.loads(out)
    assert doc["unraveling"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert doc["cheap_talk"] == pytest.approx(1.0, abs=1e-9)


def test_malformed_input_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"cutoffs": [0.0, 1.0]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2


def test_invalid_spec_exits_two(capsys):
    spec = json.dumps(
        {
            "prior": {"kind": "uniform"},
            "cutoffs": [0.0, 0.9, 0.3, 1.0],
            "values": [0.0, 1.0, 2.0],
        }
    )
    code, _, err = run(capsys, "solve", spec)
    assert code == 2
    assert "error:" in err


def test_solver_failure_exits_three(capsys, monkeypatch):
    def boom(spec, grid_size=961):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("disclosure_lab.design.commitment_solution", boom)
    code, _, err = run(capsys, "solve", GK)
    assert code == 3
    assert "solver error: synthetic failure" in err


def test_nan_residual_exits_three(capsys, monkeypatch):
    """A NaN met inside a root bracket is a solver error, not a traceback."""
    window_mean = Prior.window_mean

    def holed(self, a, b, empty):
        return math.nan if 0.1 < a < 0.6 else window_mean(self, a, b, empty)

    monkeypatch.setattr(Prior, "window_mean", holed)
    code, out, err = run(capsys, "solve", GK)
    assert code == 3 and out == ""
    assert "solver error: residual is NaN at x=" in err


FOUR_CUTOFFS, FOUR_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 1.0, 2.0, 4.0)

# Run in a fresh interpreter: no solve loads numpy or scipy, whatever its
# number of actions, and the lp_value oracle imports both on demand.
HYGIENE = f"""
import sys
from disclosure_lab import GameSpec, commitment_solution, lp_value, uniform_prior
from disclosure_lab.cli import main

def heavy():
    return [name for name in ("numpy", "scipy") if name in sys.modules]

assert heavy() == [], heavy()
for verb in ("solve", "preferred"):
    assert main([verb, {str(SPECS / "exy.json")!r}]) == 0
assert main(["app-seller", {SELLER!r}, "--then", "implementable"]) == 0
spec = GameSpec(uniform_prior(), {FOUR_CUTOFFS!r}, {FOUR_VALUES!r})
payoff = commitment_solution(spec).payoff
assert heavy() == [], heavy()
assert lp_value(spec) >= payoff - 1e-3
assert heavy() == ["numpy", "scipy"], heavy()
print(repr(payoff))
"""


def test_no_solve_loads_numpy_or_scipy():
    src = str(Path(disclosure_lab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", HYGIENE], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    payoff = done.stdout.splitlines()[-1]
    spec = GameSpec(uniform_prior(), FOUR_CUTOFFS, FOUR_VALUES)
    assert payoff == repr(commitment_solution(spec).payoff)


# Run in a fresh interpreter: a verb loads only the layers it runs, and
# `logging` stays unloaded while DISCLOSURE_LAB_LOG is unset.
LOADS = f"""
import sys
import disclosure_lab

def loaded(*names):
    return [name for name in names if name in sys.modules]

package = [name for name in sys.modules if name.startswith("disclosure_lab.")]
assert package == [], package
from disclosure_lab.cli import main

for verb, absent in (
    ("baselines", ("design", "representation", "equilibrium", "apps")),
    ("solve", ("equilibrium", "apps")),
    ("suffcond", ("apps",)),
):
    assert main([verb, {str(SPECS / "exy.json")!r}]) == 0
    names = [f"disclosure_lab.{{module}}" for module in absent]
    names += ["logging", "dataclasses", "inspect"]
    assert loaded(*names) == [], (verb, loaded(*names))
"""


def _python(*argv, **env):
    """A fresh interpreter on this package, DISCLOSURE_LAB_LOG set only
    as given."""
    src = str(Path(disclosure_lab.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "DISCLOSURE_LAB_LOG"}
    return subprocess.run(
        [sys.executable, *argv],
        env={**base, "PYTHONPATH": src, **env}, capture_output=True, text=True,
    )


def test_each_verb_loads_only_what_it_runs():
    done = _python("-c", LOADS)
    assert done.returncode == 0, done.stderr


def test_info_log_reports_csv_writes_and_leaves_stdout_alone(tmp_path):
    cli_solve = ("-m", "disclosure_lab.cli", "solve", EXY, "--csv")
    quiet = _python(*cli_solve, str(tmp_path / "quiet"))
    info = _python(*cli_solve, str(tmp_path / "info"), DISCLOSURE_LAB_LOG="info")
    assert quiet.returncode == info.returncode == 0
    assert quiet.stderr == ""
    assert info.stdout == quiet.stdout
    wrote = [line for line in info.stderr.splitlines() if "wrote" in line]
    assert wrote == [
        f"INFO wrote {tmp_path / 'info' / name}"
        for name in ("steps.csv", "intervals.csv")
    ]


def test_log_level_lasts_one_call(capsys, caplog, monkeypatch, tmp_path):
    """A logger set up by one in-process call writes nothing in a later
    call made without DISCLOSURE_LAB_LOG."""
    monkeypatch.setenv("DISCLOSURE_LAB_LOG", "info")
    assert run(capsys, "solve", EXY, "--csv", str(tmp_path))[0] == 0
    assert any("wrote" in r.getMessage() for r in caplog.records)
    caplog.clear()
    monkeypatch.delenv("DISCLOSURE_LAB_LOG")
    assert run(capsys, "solve", EXY, "--csv", str(tmp_path))[0] == 0
    assert caplog.records == []


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "solve", EXY)
    _, second, _ = run(capsys, "solve", EXY)
    assert first == second


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


HELP_VERBS = ("", "solve", "implementable", "suffcond", "preferred",
              "payoff-set", "ore-at", "baselines", "app-seller", "app-voting")


@pytest.mark.parametrize("verb", HELP_VERBS)
def test_help_matches_golden(capsys, monkeypatch, verb):
    """--help of the parser and of each verb, saved under
    tests/golden/help[-<verb>].txt at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--help"] if verb else ["--help"])
    assert exc.value.code == 0
    name = f"help-{verb}" if verb else "help"
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_floats_use_short_repr(capsys):
    _, out, _ = run(capsys, "baselines", GK)
    assert "1.33333333333" in out
    assert "-0" not in out


def test_fixtures_match_bundled_copies():
    for name in ("gk2016.json", "exs.json", "exy.json"):
        bundled = json.loads(
            (resources.files("disclosure_lab") / "fixtures" / name).read_text()
        )
        spec = GameSpec.from_obj(bundled)
        assert spec.n_actions in (2, 3)
        with open(f"specs/{name}") as fh:
            assert json.load(fh) == bundled


def test_csv_artifacts(capsys, tmp_path):
    """Full pooling on this game leaves the bottom and top actions
    unused, so their interval rows carry the skipped note."""
    code, _, _ = run(capsys, "solve", EXS, "--csv", str(tmp_path))
    assert code == 0
    with open(tmp_path / "steps.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u"]
    assert len(rows) == 1 + 2 * 3
    with open(tmp_path / "intervals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cell", "lo", "hi", "mean", "note"]
    skipped = [r for r in rows[1:] if r[4] == "skipped"]
    assert {r[0] for r in skipped} == {"0", "2"}
    pooled = next(r for r in rows[1:] if r[0] == "1")
    assert float(pooled[3]) == pytest.approx(0.5, abs=1e-9)


def test_payoff_sweep_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "payoff-set", EXY, "--csv", str(tmp_path))
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z", "payoff"]
    assert len(rows) == 1 + 101
    zs = [float(r[0]) for r in rows[1:]]
    assert zs[0] == 0.0
    assert zs[-1] == pytest.approx(0.7)
    assert zs == sorted(zs)


def test_payoff_set_csv_solves_the_preferred_equilibrium_once(
    capsys, monkeypatch, tmp_path
):
    from disclosure_lab import equilibrium

    calls = []
    solve = equilibrium.preferred_ore

    def counted(spec):
        calls.append(spec)
        return solve(spec)

    monkeypatch.setattr(equilibrium, "preferred_ore", counted)
    code, _, _ = run(capsys, "payoff-set", str(SPECS / "exy.json"), "--csv", str(tmp_path))
    assert code == 0
    assert len(calls) == 1


def test_app_seller_then_solve(capsys):
    model = json.dumps(
        {"utility": {"kind": "crra", "sigma": 0.5}, "price": 0.35}
    )
    code, out, _ = run(capsys, "app-seller", model, "--then", "implementable")
    assert code == 0
    doc = json.loads(out)
    assert doc["prudence"]["ok"] is True
    assert doc["game"]["cutoffs"][0] == 0
    assert "implementable" in doc["result"]


def test_app_seller_that_buys_no_unit_says_so(capsys):
    model = '{"utility":{"kind":"crra","sigma":0.5},"price":0.9999999999999}'
    with pytest.warns(UserWarning, match="truncating"):
        code, _, err = run(capsys, "app-seller", model)
    assert code == 2
    assert "no unit is ever worth buying at this price" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("app-seller", '{"utility":{"kind":"table"},"price":0.5}'),
         "table utility needs 'values'"),
        (("app-seller", '{"utility":{"kind":"crra"},"price":0.5}'),
         "crra utility needs 'sigma'"),
        (("app-seller", '{"utility":"crra","price":0.5}'),
         "utility must be an object with a kind"),
        (("app-seller", '{"utility":{"kind":"table","values":[0,"a",2]},"price":0.5}'),
         "malformed table utility"),
        (("app-seller", '{"utility":{"kind":"table","values":[]},"price":0.5}'),
         "utility table is empty"),
        (("app-seller", '{"utility":{"kind":"cara"},"price":0.5}'),
         "unknown utility kind 'cara'"),
        (("app-seller", SELLER, "--then", "ore-at"), "ore-at requires --target"),
        (("solve", '{"prior": '), "inline JSON does not parse"),
        (("solve", "{bad}"), "does not parse as JSON"),
        (("app-seller", "{list}"), "seller model must be a JSON object"),
        (("app-seller", '{"price":0.5}'), "seller model missing fields: utility"),
        (("app-voting", "{list}"), "voting model must be a JSON object"),
        (("app-voting", '{"voters":[]}'), "voting model missing fields: v_ab, v_b"),
        (("app-voting", '{"voters":[{}],"v_ab":1,"v_b":2}'),
         "malformed voting model"),
        (("app-voting", VOTER, "--sweep", "0,x"), "bad --sweep list"),
        (("app-seller", "[1, 2]"), "seller model must be a JSON object"),
        (("app-voting", " [1, 2]"), "voting model must be a JSON object"),
        (("solve", "[1, 2]"), "game spec must be a JSON object"),
        (("solve", "[1, 2"), "inline JSON does not parse"),
    ],
)
def test_malformed_app_and_loader_inputs_exit_two(capsys, tmp_path, argv, message):
    (tmp_path / "bad.json").write_text('{"cutoffs": [0.0,')
    (tmp_path / "list.json").write_text("[1, 2]")
    files = {"{bad}": tmp_path / "bad.json", "{list}": tmp_path / "list.json"}
    argv = [str(files.get(a, a)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "utility, prudent, chain, actions",
    [
        (lambda q: q**0.8, True, False, 6),
        (lambda q: 1.0 - math.exp(-q), False, True, 2),
    ],
    ids=["power", "cara"],
)
def test_app_seller_table_prudence(capsys, utility, prudent, chain, actions):
    model = json.dumps(
        {"utility": {"kind": "table", "values": [utility(q) for q in range(6)]},
         "price": 0.5}
    )
    code, out, _ = run(capsys, "app-seller", model)
    assert code == 0
    doc = json.loads(out)
    assert doc["prudence"]["hypothesis"] is prudent
    assert doc["prudence"]["ok"] is prudent
    assert doc["prudence"]["cutoff_gap_chain"] is chain
    assert len(doc["game"]["values"]) == actions


def test_app_then_verb_writes_steps_once(capsys, caplog, monkeypatch, tmp_path):
    monkeypatch.setenv("DISCLOSURE_LAB_LOG", "info")
    argv = ("app-seller", SELLER, "--then", "implementable", "--csv", str(tmp_path))
    assert run(capsys, *argv)[0] == 0
    wrote = [r.getMessage() for r in caplog.records if "wrote" in r.getMessage()]
    assert wrote == [
        f"wrote {tmp_path / name}" for name in ("steps.csv", "intervals.csv")
    ]


def test_app_voting_sweep_csv(capsys, tmp_path):
    model = json.dumps(
        {
            "voters": [
                {"alpha_ab": -0.6, "alpha_b": -1.5, "beta_ab": 1.0, "beta_b": b}
                for b in (1.99, 2.0, 2.01)
            ],
            "v_ab": 1.0,
            "v_b": 1.05,
        }
    )
    code, out, _ = run(
        capsys,
        "app-voting",
        model,
        "--sweep",
        "0.0,0.05,0.1",
        "--sweep-parameter",
        "beta_b",
        "--csv",
        str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep"]["payoff_decrease"] is True
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "gamma2_m", "payoff", "implementable_flag"]
    assert len(rows) == 4


def test_unknown_log_level_warns(capsys, monkeypatch):
    monkeypatch.setenv("DISCLOSURE_LAB_LOG", "chatty")
    code, out, err = run(capsys, "baselines", GK)
    assert code == 0
    assert "unknown DISCLOSURE_LAB_LOG" in err
    json.loads(out)


def test_console_help_lists_verbs(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in ("solve", "implementable", "suffcond", "preferred",
                 "payoff-set", "ore-at", "app-seller", "app-voting",
                 "baselines"):
        assert verb in out
