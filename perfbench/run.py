#!/usr/bin/env python3
"""Build the CloudQC benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with a path
dependency on the repository, built in release mode with the repository's
release settings; `CARGO_TARGET_DIR` picks the build directory as usual.
Its last line of standard output is the JSON result. A failed build or a
failed correctness check exits non-zero without printing a result.
"""

import argparse
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_batch", "poisson_stream", "fleet_failover")
MANIFEST = Path(__file__).resolve().parent / "Cargo.toml"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Cargo builds first and writes its messages to stderr, so the
    # result stays the last line of stdout; a failed build exits non-zero.
    run = [
        "cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST),
        "--bin", "perfbench", "--",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    return subprocess.run(run).returncode


if __name__ == "__main__":
    sys.exit(main())
