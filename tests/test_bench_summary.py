"""``scripts/bench_summary.py``: paired oifbench runs -> a BENCH record."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_summary", ROOT / "scripts" / "bench_summary.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def repo(tmp_path) -> Path:
    """A git repository whose branches stand for the revisions the runs name.

    ``parent-rev`` has 3 lines of ``src/**/*.py``; ``change-rev`` and ``c``
    add a 2-line module and a non-Python file.
    """
    root = tmp_path / "repo"
    (root / "src" / "pkg").mkdir(parents=True)

    def git(*args: str) -> None:
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=root,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    (root / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    git("branch", "parent-rev")
    (root / "src" / "pkg" / "b.py").write_text("w = 4\nv = 5\n")
    (root / "src" / "pkg" / "data.txt").write_text("not\ncounted\n")
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    git("branch", "change-rev")
    git("branch", "c")
    return root


def _run_output(
    qps: float, p50: float, failed: int = 0, seed: int = 7, git_rev: str = "parent-rev"
) -> str:
    result = {
        "attempted": 100,
        "correct": failed == 0,
        "failed": failed,
        "metrics": {
            "query_throughput_qps": {"unit": "1/s", "value": qps},
            "query_p50_ms": {"unit": "ms", "value": p50},
            "storage.btree_self_ms": {"unit": "ms", "value": 1.0},
        },
    }
    command = ["python3", "oifbench/run.py", "--workload", "w", "--seed", str(seed)]
    host = {"git_rev": git_rev, "nproc": 2, "python": "3.11.7"}
    return (
        f"# command {json.dumps(command)}\n# host {json.dumps(host)}\n# notes {{}}\n"
        f"{json.dumps(result)}\n"
    )


def _summarize(
    script, tmp_path, repo: Path, parent_text: str, change_text: str, seed: int = 7
) -> int:
    parent = tmp_path / "parent.txt"
    change = tmp_path / "change.txt"
    parent.write_text(parent_text)
    change.write_text(change_text)
    out = tmp_path / "bench.json"
    return script.main(
        ["--workload", "w", "--pair", str(seed), str(parent), str(change), "--out", str(out),
         "--repo", str(repo)]
    )


def test_two_fake_runs_are_summarized_against_the_bounds(tmp_path, repo):
    script = _load_script()
    parent = tmp_path / "parent.txt"
    change = tmp_path / "change.txt"
    parent.write_text(_run_output(qps=100.0, p50=4.0))
    change.write_text(_run_output(qps=190.0, p50=6.0, git_rev="change-rev"))
    out = tmp_path / "BENCH_paper-cold.json"

    status = script.main(
        ["--workload", "paper-cold", "--pair", "7", str(parent), str(change), "--out", str(out),
         "--repo", str(repo)]
    )

    record = json.loads(out.read_text())
    assert [(run["side"], run["seed"]) for run in record["runs"]] == [
        ("parent", 7),
        ("change", 7),
    ]
    assert record["runs"][0]["host"] == {"git_rev": "parent-rev", "nproc": 2, "python": "3.11.7"}
    assert record["runs"][1]["command"][-2:] == ["--seed", "7"]
    assert record["revisions"] == {"parent": "parent-rev", "change": "change-rev"}
    assert record["source_lines"] == {"parent": 3, "change": 5}
    assert record["runs"][1]["result"]["metrics"]["query_p50_ms"]["value"] == 6.0
    assert record["summary"]["parent"]["query_throughput_qps"] == {
        "unit": "1/s",
        "median": 100.0,
        "q1": 100.0,
        "q3": 100.0,
        "iqr": 0.0,
    }
    qps = record["comparison"]["query_throughput_qps"]
    assert qps["pairs_won"] == 1 and not qps["regressed"]
    assert abs(qps["change_share"] - 0.9) < 1e-12
    # p50 got 50 % worse against a 25 % bound: flagged, and the exit status says so.
    assert record["comparison"]["query_p50_ms"]["regressed"]
    assert record["regressions"] == ["query_p50_ms"]
    assert status == 1
    # Per-layer metrics are summarized but carry no bound.
    assert "storage.btree_self_ms" in record["summary"]["change"]
    assert "storage.btree_self_ms" not in record["comparison"]


def test_more_failed_operations_is_a_regression(tmp_path, repo):
    status = _summarize(
        _load_script(),
        tmp_path,
        repo,
        _run_output(qps=100.0, p50=4.0),
        _run_output(qps=100.0, p50=4.0, failed=3, git_rev="change-rev"),
    )
    assert status == 1
    assert json.loads((tmp_path / "bench.json").read_text())["regressions"] == ["failed_share"]


@pytest.mark.parametrize(
    "parent_text, change_text",
    [
        # A run that does not name its commit.
        (_run_output(100.0, 4.0, git_rev="unknown"), _run_output(100.0, 4.0, git_rev="c")),
        # Both sides at one commit: nothing was compared.
        (_run_output(100.0, 4.0), _run_output(100.0, 4.0)),
        # The change run used another seed than its pair.
        (_run_output(100.0, 4.0), _run_output(100.0, 4.0, seed=8, git_rev="c")),
        # No command line recorded.
        (_run_output(100.0, 4.0).split("\n", 1)[1], _run_output(100.0, 4.0, git_rev="c")),
        # A revision the repository does not have: its source cannot be read.
        (_run_output(100.0, 4.0), _run_output(100.0, 4.0, git_rev="no-such-rev")),
    ],
)
def test_runs_that_cannot_be_attributed_are_refused(tmp_path, repo, parent_text, change_text):
    with pytest.raises(SystemExit) as exit_info:
        _summarize(_load_script(), tmp_path, repo, parent_text, change_text)
    assert exit_info.value.code == 2
    assert not (tmp_path / "bench.json").exists()
