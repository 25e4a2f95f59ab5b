"""One comparable row per PR in ``results/BENCH_history.jsonl``: append this
tree's from the end-to-end benchmark's whole stdout (any runs, seeds,
workloads): per workload, each metric's median over its runs, the per-layer
readings of ``--traced`` runs included, zero readings dropped.  A row is
written before its commit exists (``"commit": null``); the next append names
it — the commit whose first parent is the row's ``parent``::

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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], text=True, capture_output=True,
                          check=True).stdout.strip()


def fill_commits(lines: list[str], log: str) -> list[str]:
    """``lines`` with every null ``commit`` named from ``log`` (``git log
    --format='%H %P'``); rows already named, or not landed yet, stay as is."""
    children = {parents.split()[0]: commit[:7] for commit, _, parents in
                (entry.partition(" ") for entry in log.splitlines()) if parents}
    out = []
    for line in lines:
        row = json.loads(line)
        commit = row["commit"] or next(
            (c for parent, c in children.items()
             if parent.startswith(row["parent"])), None)
        out.append(line if commit == row["commit"]
                   else json.dumps({**row, "commit": commit}))
    return out


def main(pr: str) -> None:
    text = sys.stdin.read()  # one header per run, then one JSON line per run
    workloads = re.findall(r"^== (\w+) \((?:un)?traced", text, re.M)
    docs = [json.loads(line) for line in text.splitlines()
            if line.startswith('{"correct"')]
    if not docs or len(docs) != len(workloads):
        sys.exit("expected run.py's whole stdout: a header and a JSON line per run")
    row = {"pr": int(pr), "commit": None,  # not committed yet
           "parent": _git("rev-parse", "--short", "HEAD"),
           "source": f"benchmarks/history.py, {len(docs)} runs",
           "correct": all(d["correct"] for d in docs)}
    for name in dict.fromkeys(workloads):
        mine = [d["metrics"] for w, d in zip(workloads, docs) if w == name]
        row[name] = {k: v for k in dict.fromkeys(k for m in mine for k in m)
                     if (v := median(m[k]["value"] for m in mine if k in m))}
    lines = fill_commits(HISTORY.read_text().splitlines(),
                         _git("log", "--format=%H %P"))
    HISTORY.write_text("\n".join([*lines, json.dumps(row)]) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
