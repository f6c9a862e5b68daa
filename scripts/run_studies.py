#!/usr/bin/env python3
"""Run both flagship studies on the shipped benchmark configs and write the
CSV tables + summaries under out/.

    python3 scripts/run_studies.py [--quick] [--jobs N]

--quick runs configs/homog_quick.json, the homogenization benchmark at a
laptop-scale grid (the slopes stay near 1 but with less headroom above the
solver floor); the full configuration is what the acceptance suite runs.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gaslab.cli import main as gaslab_main


def run(argv):
    print("+ gaslab " + " ".join(argv))
    code = gaslab_main(argv)
    if code != 0:
        print(f"exited with {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    homog_cfg = os.path.join(configs, "homog_quick.json" if args.quick else "homog_benchmark.json")
    lip_cfg = os.path.join(configs, "lipschitz_benchmark.json")

    rc = run(["study-homog", homog_cfg, "--out",
              os.path.join(args.out, "homog"), "--jobs", str(args.jobs)])
    rc |= run(["study-lipschitz", lip_cfg, "--out",
               os.path.join(args.out, "lipschitz")])
    sys.exit(rc)
