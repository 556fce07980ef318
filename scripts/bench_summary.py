#!/usr/bin/env python3
"""Summarize paired oifbench runs into a committed ``BENCH_<workload>.json``.

Each input file is the full standard output of one
``python3 oifbench/run.py --workload W --seed N ...`` run, the ``# host``
record and, on the last line, the JSON result, preceded by a
``# command <JSON list>`` line naming the exact command that produced it::

    cmd=(python3 oifbench/run.py --workload paper-cold --seed 101 --seconds 26 --trace 0)
    { printf '# command %s\\n' "$(python3 -c 'import json, sys; print(json.dumps(sys.argv[1:]))' \\
        "${cmd[@]}")"; "${cmd[@]}"; } > runs/parent_101.txt

Runs come in pairs, one at the parent commit and one at the change, on the
same seed, each run from a git checkout so that its host record names the
commit::

    python3 scripts/bench_summary.py --workload paper-cold \\
        --pair 101 runs/parent_101.txt runs/change_101.txt \\
        --pair 102 runs/parent_102.txt runs/change_102.txt \\
        --out BENCH_paper-cold.json

The output keeps every run's command, host record and raw result, the two
commits compared and the ``src/**/*.py`` line count of each (read with
``git show <rev>:<path>`` from ``--repo``, this checkout by default), the
median and interquartile range of every metric on each side, and, for the
end-to-end metrics of ``BENCHMARK.json``, the change in median against the
metric's bound, the pairs the change won, and whether the median moved by
more than the parent's IQR.  The exit status is 1 when an end-to-end metric
is worse than its bound or the change fails a larger share of operations,
and 2 when the runs cannot be attributed: a missing command line, a seed
that differs from its pair's, an unknown or unreadable revision, or sides
that do not each come from one commit.

Standard library only, so it runs wherever the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(text: str) -> tuple[str, dict, dict]:
    """``(command, host record, result)`` of one run's standard output."""
    command = None
    host: dict = {}
    result = None
    for line in text.splitlines():
        if line.startswith("# command "):
            command = json.loads(line[len("# command ") :])
        elif line.startswith("# host "):
            host = json.loads(line[len("# host ") :])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        raise ValueError("no JSON result line in run output")
    if command is None:
        raise ValueError("no '# command' line in run output")
    return command, host, result


def side_revision(side: str, runs: list[dict]) -> str:
    """The one known commit all of ``side``'s runs were made at."""
    revisions = {run["host"].get("git_rev", "unknown") for run in runs if run["side"] == side}
    if "unknown" in revisions:
        raise ValueError(f"a {side} run does not name its commit (git_rev unknown)")
    if len(revisions) != 1:
        raise ValueError(f"{side} runs come from several commits: {sorted(revisions)}")
    return revisions.pop()


def _git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise ValueError(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout


def source_lines(repo: Path, revision: str) -> int:
    """Lines of ``src/**/*.py`` at ``revision`` (what ``wc -l`` counts)."""
    paths = _git(repo, "ls-tree", "-r", "--name-only", revision, "--", "src").splitlines()
    return sum(
        _git(repo, "show", f"{revision}:{path}").count("\n")
        for path in paths
        if path.endswith(".py")
    )


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR (inclusive quartiles; one value has IQR 0)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def failed_share(result: dict) -> float:
    return result["failed"] / result["attempted"] if result["attempted"] else 0.0


def summarize(workload: str, pairs: list[tuple[int, dict, dict]], benchmark: dict) -> dict:
    """The BENCH record for ``pairs`` of ``(seed, parent run, change run)``."""
    runs = []
    for seed, parent, change in pairs:
        for side, (command, host, result) in (("parent", parent), ("change", change)):
            if "--seed" not in command or command[command.index("--seed") + 1] != str(seed):
                raise ValueError(f"{side} run of pair {seed} was not run with --seed {seed}")
            runs.append(
                {"side": side, "seed": seed, "command": command, "host": host, "result": result}
            )
    revisions = {side: side_revision(side, runs) for side in ("parent", "change")}
    if revisions["parent"] == revisions["change"]:
        raise ValueError(f"parent and change runs are both at {revisions['parent']}")

    summary: dict = {}
    for side in ("parent", "change"):
        results = [run["result"] for run in runs if run["side"] == side]
        names = sorted(set.intersection(*(set(r["metrics"]) for r in results)))
        summary[side] = {
            name: {
                "unit": results[0]["metrics"][name]["unit"],
                **spread([r["metrics"][name]["value"] for r in results]),
            }
            for name in names
        }
        summary[side]["failed_share"] = spread([failed_share(r) for r in results])

    comparison = {}
    regressions = []
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        if name not in summary["parent"] or name not in summary["change"]:
            continue
        higher = spec["better"] == "higher"
        base = summary["parent"][name]
        new = summary["change"][name]
        delta = new["median"] - base["median"]
        share = delta / base["median"] if base["median"] else 0.0
        worse_share = -share if higher else share
        wins = sum(
            (c[2]["metrics"][name]["value"] > p[2]["metrics"][name]["value"])
            if higher
            else (c[2]["metrics"][name]["value"] < p[2]["metrics"][name]["value"])
            for _, p, c in pairs
        )
        regressed = worse_share > spec["bound"]
        comparison[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": base["median"],
            "change_median": new["median"],
            "change_share": share,
            "pairs_won": wins,
            "pairs": len(pairs),
            "beyond_parent_iqr": abs(delta) > base["iqr"],
            "regressed": regressed,
        }
        if regressed:
            regressions.append(name)
    more_failures = (
        summary["change"]["failed_share"]["median"] > summary["parent"]["failed_share"]["median"]
    )
    if more_failures:
        regressions.append("failed_share")
    return {
        "workload": workload,
        "revisions": revisions,
        "runs": runs,
        "summary": summary,
        "comparison": comparison,
        "regressions": regressions,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--pair",
        nargs=3,
        action="append",
        required=True,
        metavar=("SEED", "PARENT_OUTPUT", "CHANGE_OUTPUT"),
    )
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--repo", type=Path, default=ROOT, help="git repository of the revisions")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads(args.benchmark.read_text())
    try:
        pairs = [
            (int(seed), parse_run(Path(parent).read_text()), parse_run(Path(change).read_text()))
            for seed, parent, change in args.pair
        ]
        record = summarize(args.workload, pairs, benchmark)
        record["source_lines"] = {
            side: source_lines(args.repo, revision)
            for side, revision in record["revisions"].items()
        }
    except ValueError as error:
        parser.error(str(error))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    lines = record["source_lines"]
    print(f"{'src lines':24s} {lines['parent']:12d} -> {lines['change']:12d}")
    for name, row in record["comparison"].items():
        print(
            f"{name:24s} {row['parent_median']:12.4f} -> {row['change_median']:12.4f}"
            f"  {row['change_share']:+7.1%}  won {row['pairs_won']}/{row['pairs']}"
            f"{'  REGRESSED' if row['regressed'] else ''}"
        )
    return 1 if record["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
