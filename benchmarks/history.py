"""One comparable row per PR in ``results/BENCH_history.jsonl``: append this
tree's from the end-to-end benchmark's whole stdout (any runs, seeds,
workloads): per workload, each metric's median over its runs, the per-layer
readings of ``--traced`` runs included, zero readings dropped.  A row is
written before its commit exists (``"commit": null``); the next append names
it — the commit whose first parent is the row's ``parent``::

    for s in 1 2 3; do python3 benchmarks/e2e/run.py --seed $s; done \\
        | python -m benchmarks.history 21

Absolute medians taken on different days are not comparable (the box has
fast and slow phases), so ``--parent FILE`` takes the whole stdout of the
parent commit's runs made in the same session — the alternating pairs a
perf claim rests on — and the row also records the parent's medians
(``parent_runs``) and change ÷ parent per metric (``vs_parent``).  A later
reading chains those ratios instead of subtracting absolute numbers::

    python -m benchmarks.history PR --parent parent.txt < change.txt
"""
import argparse
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


def medians(text: str) -> tuple[dict, int, bool]:
    """``({workload: {metric: median}}, runs, all correct)`` of run.py's
    whole stdout: one header and one JSON line per run."""
    workloads = re.findall(r"^== (\w+) \((?:un)?traced", text, re.M)
    docs = [json.loads(line) for line in text.splitlines()
            if line.startswith('{"correct"')]
    if not docs or len(docs) != len(workloads):
        sys.exit("expected run.py's whole stdout: a header and a JSON line per run")
    out = {}
    for name in dict.fromkeys(workloads):
        mine = [d["metrics"] for w, d in zip(workloads, docs) if w == name]
        out[name] = {k: v for k in dict.fromkeys(k for m in mine for k in m)
                     if (v := median(m[k]["value"] for m in mine if k in m))}
    return out, len(docs), all(d["correct"] for d in docs)


def make_row(pr: str, text: str, parent: str, parent_text: str | None = None):
    """The history row of this tree's runs (``text``), with the same
    session's parent runs (``parent_text``) beside them when given."""
    mine, runs, correct = medians(text)
    row = {"pr": int(pr), "commit": None,  # not committed yet
           "parent": parent, "source": f"benchmarks/history.py, {runs} runs",
           "correct": correct, **mine}
    if parent_text is not None:
        theirs, runs, correct = medians(parent_text)
        row["source"] += f" + {runs} same-session parent runs"
        row["parent_correct"] = correct
        row["parent_runs"] = theirs
        row["vs_parent"] = {
            name: {k: v / theirs[name][k] for k, v in metrics.items()
                   if k in theirs[name]}
            for name, metrics in mine.items() if name in theirs}
    return row


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pr")
    ap.add_argument("--parent", type=Path,
                    help="whole stdout of the parent commit's runs")
    args = ap.parse_args(argv)
    row = make_row(args.pr, sys.stdin.read(),
                   _git("rev-parse", "--short", "HEAD"),
                   args.parent.read_text() if args.parent else None)
    lines = fill_commits(HISTORY.read_text().splitlines(),
                         _git("log", "--format=%H %P"))
    HISTORY.write_text("\n".join([*lines, json.dumps(row)]) + "\n")


if __name__ == "__main__":
    main()
