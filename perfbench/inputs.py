"""Write one workload's seeded inputs into a directory.

run.py starts this in a child process, so building and saving the seeded
checkpoint does not count toward the measured process's peak RSS:

    python3 perfbench/inputs.py --workload infer-short --seed 1 --out DIR
"""

import argparse
import sys
from pathlib import Path

from workloads import WORKLOADS, make_inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    make_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
