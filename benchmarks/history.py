"""One comparable row per PR in ``results/BENCH_history.jsonl``: append this
tree's from the end-to-end benchmark's whole stdout (any runs, seeds,
workloads): per workload, each metric's median over its runs, the per-layer
readings of ``--traced`` runs included, zero readings dropped::

    for s in 1 2 3; do python3 benchmarks/e2e/run.py --seed $s; done \\
        | python -m benchmarks.history 21
"""
import json
import re
import subprocess
import sys
from pathlib import Path
from statistics import median

HISTORY = Path(__file__).resolve().parent.parent / "results/BENCH_history.jsonl"


def main(pr: str) -> None:
    text = sys.stdin.read()  # one header per run, then one JSON line per run
    workloads = re.findall(r"^== (\w+) \((?:un)?traced", text, re.M)
    docs = [json.loads(line) for line in text.splitlines()
            if line.startswith('{"correct"')]
    if not docs or len(docs) != len(workloads):
        sys.exit("expected run.py's whole stdout: a header and a JSON line per run")
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], text=True,
                          capture_output=True, check=True).stdout.strip()
    row = {"pr": int(pr), "commit": None, "parent": head,  # not committed yet
           "source": f"benchmarks/history.py, {len(docs)} runs",
           "correct": all(d["correct"] for d in docs)}
    for name in dict.fromkeys(workloads):
        mine = [d["metrics"] for w, d in zip(workloads, docs) if w == name]
        row[name] = {k: v for k in dict.fromkeys(k for m in mine for k in m)
                     if (v := median(m[k]["value"] for m in mine if k in m))}
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
