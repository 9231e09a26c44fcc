"""The benchmark of disclosure-lab: one workload per run, from the root
of a source checkout.

Usage:
    python3 perfbench/run.py --workload {cli-verbs,three-action,many-action}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer ones (see README.md). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the reference figures. Both are also written under
``perfbench/out/``. Exit code 0 means every check passed, 1 that a check
failed, 2 that the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-verbs", "three-action", "many-action")
# set-ups per run; setup_s is their median
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return took


def untraced(workload: str, seed: int, seconds: int):
    import speed

    clock = speed.Clock()
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(probe_setup(workload, seed))
        clock.tick()
    scaled = [clock.median_scaled(took) for took in setups]
    import workloads

    prep = workloads.prepare(workload, seed)
    try:
        timed = workloads.measure(prep, seconds)
    finally:
        workloads.cleanup(prep)
    figures = workloads.summary(timed)
    figures["setup_s"] = statistics.median(scaled)
    figures["raw_setup_s"] = statistics.median(setups)
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END.items()}
    detail = {
        "setup_samples_s": scaled,
        "raw_setup_samples_s": setups,
        "loop_ms": 1e3 * statistics.median(timed.clock.loops),
        "arithmetic_ms": 1e3 * statistics.median(clock.ticks + timed.clock.ticks),
        **{k: v for k, v in figures.items() if k not in END_TO_END},
        "redrawn": timed.redrawn,
        "problems": timed.problems[:20],
    }
    return timed.attempted, timed.failed, not timed.problems, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "disclosure_lab" / "__init__.py"
    if not package.is_file() or not (ROOT / "specs").is_dir():
        print(f"error: no disclosure_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import disclosure_lab

    if Path(disclosure_lab.__file__).resolve() != package.resolve():
        print(f"error: imported {disclosure_lab.__file__}, not {package}", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    if args.trace:
        import layers

        attempted, failed, correct, metrics, detail = layers.traced(args.seed, args.workload)
    else:
        attempted, failed, correct, metrics, detail = untraced(args.workload, args.seed, args.seconds)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "package": disclosure_lab.__file__, **detail}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (HERE / "out" / f"result-{stem}.json").write_text(json.dumps({"detail": detail, **result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
