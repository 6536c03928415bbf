"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) against its
bound in BENCHMARK.json. Runs are sequential, one process at a time.

    python3 perfbench/spread.py --workload infer-short --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in args.workload:
        values: dict = {}
        raw: dict = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            details = json.loads((OUT / f"{workload}_seed{seed}_trace0.json").read_text())["details"]
            for name, v in details["raw"].items():
                raw.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: speed factor {details['speed_factor']:.3f}, " + ", ".join(
                f"{k} {v[-1]:.4g} (raw {raw[k][-1]:.4g})" for k, v in values.items()), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
            raw_spread = quartile_spread(raw[m["name"]]) if len(vals) >= 2 else float("nan")
            print(f"  {workload} {m['name']:<16} median {statistics.median(vals):.6g} {m['unit']:<5} "
                  f"spread {spread:.4f} bound {m['bound']} ({spread / m['bound']:.2f} of bound), "
                  f"unscaled spread {raw_spread:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
