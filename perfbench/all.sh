#!/bin/sh
# Run every workload named in BENCHMARK.json once, for its run_seconds.
#   sh perfbench/all.sh [seed] [trace]     (defaults: seed 0, trace 0)
set -e
cd "$(dirname "$0")/.."
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    python3 perfbench/run.py --workload "$w" --seed "${1:-0}" --seconds "$seconds" --trace "${2:-0}"
done
