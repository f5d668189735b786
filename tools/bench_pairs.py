"""Paired benchmark runs of two commits, summarized into one trajectory file.

Usage:
    python tools/bench_pairs.py PARENT CHANGE --out BENCH_<label>.json

PARENT and CHANGE are commits (any revision git accepts; ``git stash
create`` names an uncommitted, staged tree).  Each is exported with
``git archive`` into a temporary directory outside the repository, and
each tree's own ``perfbench/run.py --trace 0`` runs there, unchanged, with
PYTHONDONTWRITEBYTECODE=1 so that no run starts from another's bytecode.
Every workload of the change's ``BENCHMARK.json`` runs for that file's
``run_seconds``, at seeds 1 and 2, in 10 pairs per workload and seed that
alternate which side goes first.  The output records, per workload, seed and
end-to-end metric, each side's median and quartiles and the number of
pairs the change won, plus ``correct`` and ``failed`` per side, the host
(``nproc``, CPU model), the date and the sha256 of each tree's
``perfbench/``.  Figures compare only within one file: the host's speed
drifts from one invocation of this tool to the next.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = (1, 2)
PAIRS = 10


def export(revision: str, folder: Path) -> str:
    """Extract ``git archive revision`` into folder; returns the full commit sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", revision + "^{commit}"], cwd=REPO,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=REPO, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(folder, filter="data")
    return sha


def tree_sha256(folder: Path) -> str:
    """sha256 over the relative paths and contents of every file under folder, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(folder)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in tree: the JSON object of its last output line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def host() -> dict:
    model = None
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version()}


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method); a single value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(records: list[dict], better: dict[str, str]) -> dict:
    """Per workload and seed: each side's spread of each metric, the pairs the change won, correctness.

    ``records`` holds one dict per run: ``workload``, ``seed``, ``pair``,
    ``side`` ("parent" or "change") and the run's ``correct``, ``failed``
    and ``metrics`` (name -> {"value", "unit"}), as ``run.py`` prints them.
    ``better`` maps a metric to "lower" or "higher"; a pair is won when the
    change's value is strictly better than the parent's in the same pair.
    """
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    for record in records:
        pairs = groups.setdefault((record["workload"], record["seed"]), {})
        pairs.setdefault(record["pair"], {})[record["side"]] = record
    out: dict[str, dict] = {}
    for (workload, seed), pairs in sorted(groups.items()):
        complete = [sides for _, sides in sorted(pairs.items()) if set(sides) == set(SIDES)]
        cell = {
            "pairs": len(complete),
            "correct": {side: all(p[side]["correct"] for p in complete) for side in SIDES},
            "failed": {side: sum(p[side]["failed"] for p in complete) for side in SIDES},
            "metrics": {},
        }
        for name in sorted(better):
            values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES}
            sign = 1 if better[name] == "lower" else -1
            won = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
            cell["metrics"][name] = {
                "better": better[name],
                "unit": complete[0]["parent"]["metrics"][name]["unit"] if complete else None,
                **{side: _spread(values[side]) for side in SIDES if values[side]},
                "change_won": won,
            }
        out.setdefault(workload, {})[str(seed)] = cell
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<label>.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        shas = {}
        for side, revision in zip(SIDES, (args.parent, args.change)):
            trees[side].mkdir()
            shas[side] = export(revision, trees[side])
        # hashed before any run writes perfbench/out/
        benchmark_sha256 = {side: tree_sha256(trees[side] / "perfbench") for side in SIDES}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        records = []
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                for pair in range(PAIRS):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for side in order:
                        result = run_once(trees[side], workload, seed, seconds)
                        records.append(dict(result, workload=workload, seed=seed, pair=pair, side=side))
                        print("%s seed %d pair %d %s: wall_s %s" % (workload, seed, pair, side,
                              result["metrics"].get("wall_s", {}).get("value")), file=sys.stderr)
        document = {
            "how": ("tools/bench_pairs.py: git archive of each commit, each tree's own perfbench/run.py "
                    "--trace 0 --seconds %g, PYTHONDONTWRITEBYTECODE=1, %d pairs per workload and seed, "
                    "alternating which side runs first; median and quartiles (inclusive) per side, "
                    "change_won = pairs in which the change was strictly better. Figures compare only "
                    "within this file." % (seconds, PAIRS)),
            "revisions": {side: {"given": given, "sha": shas[side]} for side, given in zip(SIDES, (args.parent, args.change))},
            "perfbench_sha256": benchmark_sha256,
            "host": host(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "workloads": summarize(records, better),
        }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
