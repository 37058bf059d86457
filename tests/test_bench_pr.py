"""The summary arithmetic of tools/bench_pr.py on synthetic runs, and its runners on
fake trees that fail; no benchmark runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py"
_SPEC = importlib.util.spec_from_file_location("bench_pr", _PATH)
bench_pr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pr)

METRICS = [{"name": "job_ref.mean", "better": "lower", "bound": 0.25},
           {"name": "accuracy_digits", "better": "higher", "bound": 0.2}]


def _run(seed, side, job, digits=12.0, failed=0, workload="rb_dephasing"):
    return {"workload": workload, "seed": seed, "side": side,
            "printed": {"correct": True, "attempted": 10, "failed": failed,
                        "metrics": {"job_ref.mean": {"value": job, "unit": "ref"},
                                    "accuracy_digits": {"value": digits, "unit": "digits"}}}}


def _runs(parent, change, **kw):
    return ([_run(seed, "parent", p, **kw) for seed, p in enumerate(parent)]
            + [_run(seed, "change", c, **kw) for seed, c in enumerate(change)])


def test_quartiles_are_inclusive():
    assert bench_pr.quartiles([1.0 + 0.1 * k for k in range(10)]) == pytest.approx(
        (1.225, 1.45, 1.675))
    assert bench_pr.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_nine_of_ten_pairs_and_a_move_beyond_the_spread_is_a_gain():
    parent = [1.0 + 0.1 * k for k in range(10)]
    change = [0.6 * p for p in parent[:9]] + [parent[9] + 0.1]
    m = bench_pr.summarize(_runs(parent, change), METRICS)["rb_dephasing"]
    job = m["metrics"]["job_ref.mean"]
    assert (job["won"], job["lost"], m["pairs"]) == (9, 1, 10)
    assert job["parent"] == pytest.approx({"median": 1.45, "q1": 1.225, "q3": 1.675})
    assert job["gain"] and not job["beyond_bound"]
    # equal digits on every pair: ties count for neither side
    digits = m["metrics"]["accuracy_digits"]
    assert (digits["won"], digits["lost"], digits["gain"]) == (0, 0, False)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_move_beyond_the_spread():
    parent = [1.0 + 0.1 * k for k in range(10)]
    eight = [0.6 * p for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert not bench_pr.summarize(_runs(parent, eight), METRICS)[
        "rb_dephasing"]["metrics"]["job_ref.mean"]["gain"]
    # every pair won, but the median moves by 0.05, inside the parent's 0.45 spread
    small = [p - 0.05 for p in parent]
    job = bench_pr.summarize(_runs(parent, small), METRICS)["rb_dephasing"]["metrics"][
        "job_ref.mean"]
    assert job["won"] == 10 and not job["gain"]


def test_the_bound_is_a_share_of_the_parent_median_in_the_worse_direction():
    def job(parent, change):
        return bench_pr.summarize(_runs(parent, change), METRICS)["rb_dephasing"][
            "metrics"]["job_ref.mean"]
    assert job([1.0] * 3, [1.26] * 3)["beyond_bound"]
    assert not job([1.0] * 3, [1.24] * 3)["beyond_bound"]
    assert not job([1.0] * 3, [0.5] * 3)["beyond_bound"]     # better, however far

    def digits(parent, change):
        runs = ([_run(s, "parent", 1.0, digits=d) for s, d in enumerate(parent)]
                + [_run(s, "change", 1.0, digits=d) for s, d in enumerate(change)])
        return bench_pr.summarize(runs, METRICS)["rb_dephasing"]["metrics"][
            "accuracy_digits"]
    lower = digits([12.0] * 3, [9.0] * 3)     # higher is better: 12 -> 9 is worse by 25 %
    assert lower["beyond_bound"] and lower["lost"] == 3
    assert not digits([12.0] * 3, [10.0] * 3)["beyond_bound"]


def test_only_seeds_run_on_both_sides_pair_up_and_failures_are_shares():
    runs = _runs([1.0, 1.0, 1.0], [1.0, 1.0], failed=1)
    runs.append(_run(7, "change", 9.0, workload="sweep"))     # unpaired: no summary
    summary = bench_pr.summarize(runs, METRICS)
    assert set(summary) == {"rb_dephasing"}
    entry = summary["rb_dephasing"]
    assert entry["pairs"] == 2 and entry["correct"]
    assert entry["failed_share"] == {"parent": 0.1, "change": 0.1}


def test_diff_file_reports_the_largest_numeric_move(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    a.write_text("m,mean\n1,0.5\n2,0.25\n")
    b.write_text("m,mean\n1,0.5\n2,0.2500001\n")
    c.write_text("m,mean\n1,0.5\n")
    assert bench_pr.diff_file(a, a) == {"status": "identical"}
    moved = bench_pr.diff_file(a, b)
    assert moved["status"] == "moved"
    assert moved["max_abs"] == pytest.approx(1e-7)
    assert moved["max_rel"] == pytest.approx(1e-7 / 0.2500001)
    assert bench_pr.diff_file(a, c) == {"status": "differs"}
    # other bytes, every number equal: a renamed column, or 0.5 written as 0.50
    renamed, padded = tmp_path / "renamed", tmp_path / "padded"
    renamed.write_text("m,avg\n1,0.5\n2,0.25\n")
    padded.write_text("m,mean\n1,0.50\n2,0.25\n")
    assert bench_pr.diff_file(a, renamed) == {"status": "differs"}
    assert bench_pr.diff_file(a, padded) == {"status": "differs"}


def test_the_output_jobs_end_with_criterion_9s_configs():
    jobs = bench_pr.output_jobs(["rb_dephasing"])
    assert len(jobs) == len(bench_pr.OUTPUT_SEEDS) * bench_pr.OUTPUT_JOBS + 2
    assert jobs[0][0] == "rb_dephasing/seed1/job0/0_rb"
    assert [job[:2] for job in jobs[-2:]] == [("criterion9/qpt", "qpt"),
                                              ("criterion9/sweep", "sweep")]


def test_the_parent_is_a_plain_export_of_its_commit(tmp_path, monkeypatch):
    # git archive | tar -x: the commit's files, with no .git and no new worktree
    try:
        head = bench_pr._git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a commit")
    worktrees = bench_pr._git("worktree", "list")
    tree = bench_pr.export_tree(head, tmp_path / "parent")
    assert (tree / "src" / "holopulse" / "__init__.py").is_file()
    assert not (tree / ".git").exists()
    assert bench_pr._git("worktree", "list") == worktrees
    # the change is exported the same way: its tracked files as they stand,
    # an uncommitted edit, a staged file and a deletion included, and nothing
    # untracked; the tree, the index and the stash stay as they were
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@localhost",
                               *args], cwd=repo, capture_output=True, text=True,
                              check=True).stdout

    git("init", "-q")
    (repo / "edited.py").write_text("committed\n")
    (repo / "deleted.py").write_text("committed\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    monkeypatch.setattr(bench_pr, "ROOT", repo)
    clean = bench_pr.export_tree(bench_pr.working_tree_rev(), tmp_path / "clean")
    assert sorted(p.name for p in clean.iterdir()) == ["deleted.py", "edited.py"]
    (repo / "edited.py").write_text("uncommitted\n")
    (repo / "deleted.py").unlink()
    (repo / "staged.py").write_text("staged\n")
    git("add", "staged.py")
    (repo / "untracked.py").write_text("untracked\n")
    status = git("status", "--porcelain")
    change = bench_pr.export_tree(bench_pr.working_tree_rev(), tmp_path / "change")
    assert sorted(p.name for p in change.iterdir()) == ["edited.py", "staged.py"]
    assert (change / "edited.py").read_text() == "uncommitted\n"
    assert git("status", "--porcelain") == status and git("stash", "list") == ""


def test_an_exported_tree_is_byte_compiled(tmp_path):
    # every source of the tree gets a .pyc that an import accepts: this
    # interpreter's magic number and the source's mtime and size
    tree = tmp_path / "tree"
    (tree / "src" / "pkg").mkdir(parents=True)
    sources = [tree / "src" / "pkg" / "__init__.py", tree / "src" / "pkg" / "mod.py",
               tree / "tool.py"]
    for k, source in enumerate(sources):
        source.write_text(f"X = {k}\n")
    assert bench_pr.compile_tree(tree) == tree
    for source in sources:
        pyc = Path(importlib.util.cache_from_source(str(source))).read_bytes()
        stat = source.stat()
        assert pyc[:4] == importlib.util.MAGIC_NUMBER
        assert int.from_bytes(pyc[8:12], "little") == int(stat.st_mtime) & 0xFFFFFFFF
        assert int.from_bytes(pyc[12:16], "little") == stat.st_size


_FAKE_RUN = '''
import argparse, json, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
if args.seed == "102":
    sys.exit("Traceback: the job raised")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"job_ref.mean": {"value": 1.0, "unit": "ref"},
                              "accuracy_digits": {"value": 12.0, "unit": "digits"}}}))
'''


def test_a_failing_perfbench_run_is_listed_and_pairs_with_nothing(tmp_path, monkeypatch):
    # the parent's run at seed 102 exits 1; the other runs still go on
    trees = {}
    for side, script in (("parent", _FAKE_RUN), ("change", _FAKE_RUN.replace("102", "-1"))):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(script)
        trees[side] = tmp_path / side
    monkeypatch.setattr(bench_pr, "PAIRS", 3)
    runs, traced, failed = bench_pr.bench_runs(trees, ["sweep"], 0.1)
    assert len(runs) == 5 and len(traced) == 2
    assert [(f["seed"], f["side"], f["trace"], f["exit"]) for f in failed] == [
        (102, "parent", 0, 1)]
    assert failed[0]["stderr"].strip() == "Traceback: the job raised"
    assert bench_pr.summarize(runs, METRICS)["sweep"]["pairs"] == 2


_FAKE_CLI = """
import json, sys
def main(argv):
    with open(json.load(open(argv[2]))["log"], "a") as log:
        log.write(__file__.split("/")[-4] + " " + argv[0] + "\\n")
    if argv[0] == "bad":
        raise ZeroDivisionError("a job that raises")
    return 3 if argv[0] == "flagged" else 0
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
"""


def _fake_trees(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "holopulse"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(_FAKE_CLI)
        trees[side] = tmp_path / side
    return trees


def test_a_cli_job_that_raises_writes_its_type_and_the_next_job_runs(tmp_path):
    # each call is its own `python -m holopulse.cli` process on its tree's src
    trees = _fake_trees(tmp_path)
    log = str(tmp_path / "calls.log")
    jobs = [("w/0_bad", "bad", {"log": log}, 1), ("w/1_rb", "rb", {"log": log}, 1),
            ("v/seed1/job0/0_rb", "rb", {"log": log}, 1),
            ("v/seed1/job0/1_flagged", "flagged", {"log": log}, 1)]
    outs = {side: tmp_path / f"out_{side}" for side in trees}
    records = bench_pr.cold_runs(trees, outs, jobs)
    for side in trees:
        assert (outs[side] / "w" / "0_bad.exit").read_text() == "ZeroDivisionError\n"
        assert (outs[side] / "w" / "1_rb.exit").read_text() == "0\n"
        assert (outs[side] / "v" / "seed1" / "job0" / "1_flagged.exit").read_text() == "3\n"
    # the side that goes first alternates per job; a drawn job's calls run together
    assert (tmp_path / "calls.log").read_text().split("\n")[:-1] == [
        "parent bad", "change bad", "change rb", "parent rb",
        "parent rb", "parent flagged", "change rb", "change flagged"]
    assert [(r["job"], r["workload"], r["side"]) for r in records] == [
        ("w/0_bad", "w", "parent"), ("w/0_bad", "w", "change"),
        ("w/1_rb", "w", "change"), ("w/1_rb", "w", "parent"),
        ("v/seed1/job0", "v", "parent"), ("v/seed1/job0", "v", "change")]
    assert all(r["seconds"] > 0.0 for r in records)


def test_the_cold_summary_pairs_each_job_of_a_workload():
    parent = [1.0 + 0.1 * k for k in range(10)]
    change = [0.6 * p for p in parent[:9]] + [parent[9] + 0.1]
    records = ([{"job": f"verify/seed1/job{k}", "workload": "verify", "side": "parent",
                 "seconds": t} for k, t in enumerate(parent)]
               + [{"job": f"verify/seed1/job{k}", "workload": "verify", "side": "change",
                   "seconds": t} for k, t in enumerate(change)])
    # a job run on one side only pairs with nothing
    records.append({"job": "sweep/seed1/job0", "workload": "sweep", "side": "parent",
                    "seconds": 9.0})
    records.append({"job": "verify/seed2/job0", "workload": "verify", "side": "change",
                    "seconds": 9.0})
    summary = bench_pr.summarize_cold(records)
    assert set(summary) == {"verify"}
    entry = summary["verify"]
    assert (entry["pairs"], entry["won"], entry["lost"]) == (10, 9, 1)
    assert entry["parent"] == pytest.approx({"median": 1.45, "q1": 1.225, "q3": 1.675})
    assert entry["change"]["median"] == pytest.approx(
        bench_pr.quartiles(change)[1])
    assert entry["gain"]


_SLOT_RUN = '''
import argparse, json
from pathlib import Path
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
slot = Path(__file__).resolve().parent.parent.name
job = 1.0 + 0.01 * (int(args.seed) % 4) - (0.5 if slot == "change" else 0.0)
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"job_ref.mean": {"value": job, "unit": "ref"},
                              "accuracy_digits": {"value": 12.0, "unit": "digits"}}}))
'''

_SLOT_CLI = '''
import sys, time
from pathlib import Path
slot = Path(__file__).resolve().parents[2].name
time.sleep(0.2 if slot == "parent" else 0.0)
out = Path(sys.argv[sys.argv.index("--out") + 1])
out.mkdir(parents=True, exist_ok=True)
(out / "result.csv").write_text("1\\n")
'''


def test_a_per_slot_offset_is_a_gain_that_its_null_vetoes(tmp_path, monkeypatch):
    # one commit whose perfbench and CLI run faster in the change's slot than
    # in the parent's: the plain comparison flags gain, and so does the null,
    # which exports that commit into both slots at the same paths, so main
    # marks the gain vetoed, in the summary and in the cold summary
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src" / "holopulse").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_SLOT_RUN)
    (repo / "perfbench" / "workloads.py").write_text(
        "def draw_job(workload, seed, index):\n    return [('rb', {'index': index}, 0)]\n")
    (repo / "src" / "holopulse" / "__init__.py").write_text("")
    (repo / "src" / "holopulse" / "cli.py").write_text(_SLOT_CLI)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 0.1, "workloads": [{"name": "sweep"}], "end_to_end": METRICS}))
    for args in (("init", "-q"), ("add", "."), ("commit", "-q", "-m", "fake")):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@localhost", *args],
                       cwd=repo, capture_output=True, check=True)
    monkeypatch.setattr(bench_pr, "ROOT", repo)
    monkeypatch.setattr(bench_pr, "PAIRS", 3)
    monkeypatch.setattr(bench_pr, "OUTPUT_JOBS", 3)
    monkeypatch.setattr(bench_pr, "OUTPUT_SEEDS", (1,))
    monkeypatch.setattr(bench_pr, "CRITERION_9", ())
    bench_pr.main(["--parent", "HEAD", "--pr", "null"])
    report = json.loads((repo / "BENCH_null.json").read_text())
    job = report["summary"]["sweep"]["metrics"]["job_ref.mean"]
    assert job["won"] == 3 and job["gain"]
    assert job["null"]["won"] == 3 and job["null"]["gain"] and job["vetoed"]
    digits = report["summary"]["sweep"]["metrics"]["accuracy_digits"]
    assert not digits["gain"] and not digits["null"]["gain"] and not digits["vetoed"]
    cold = report["cold"]["summary"]["sweep"]
    assert cold["pairs"] == 3 and cold["gain"] and cold["null"]["gain"] and cold["vetoed"]
    # the null has pairs and cold calls of its own, no traced runs, and the
    # same outputs on both sides
    assert len(report["null"]["runs"]) == 6 and len(report["traced"]) == 2
    assert len(report["null"]["cold"]["jobs"]) == 6
    assert report["outputs"]["counts"] == report["null"]["outputs"]["counts"] == {
        "identical": 9}
