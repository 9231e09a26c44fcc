"""One set-up of a workload in a fresh process, for ``setup_s``.

Usage: python3 perfbench/probe.py WORKLOAD SEED

Imports the package from the checkout's ``src``, makes the workload's
inputs and runs its warm-up operation, then prints ``ready`` and exits.
The caller times from starting this process to reading that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    prep = workloads.prepare(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
    workloads.cleanup(prep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
