"""Benchmark a change against its parent commit and diff their outputs.

    python3 tools/bench_pr.py --parent REV --pr N

Run from the root of a holopulse checkout. Both sides are unpacked the same
way, with `git archive | tar -x`, into a temporary directory that is removed
at exit: the parent REV, and the change as the commit `git stash create`
makes of the tracked files as they stand in the working tree (HEAD when none
changed), which touches neither the tree, the index nor the stash. So the
script writes nothing outside that directory but git objects (local git
only), and no untracked file of the checkout reaches a run. Each tree is
byte-compiled into its own __pycache__ (`compile_tree`) before any timed
run, as an install by pip would, so its cold calls read bytecode even where
PYTHONDONTWRITEBYTECODE, which the runs inherit, forbids writing it. For every
workload of BENCHMARK.json the script runs `perfbench/run.py --trace 0`, at the run
length BENCHMARK.json fixes, for PAIRS pairs of the two trees, pair i at
seed FIRST_SEED + i, the parent first on odd seeds; then one `--trace 1`
run of TRACED_SECONDS per side at seed 1. Next it runs every CLI call of
jobs 0 .. OUTPUT_JOBS - 1 of every workload at seeds 1 and 2, and of
criterion 9's `qpt` and `sweep` configs at seed 7 (CRITERION_9), as its own
`python -m holopulse.cli` process in both trees, the side that goes first
alternating per job. It times each job cold, interpreter start included
(`cold_runs`, `summarize_cold`), and lists each output file as identical,
moved (with its largest numeric change) or differing. It writes
BENCH_<N>.json: every run's final JSON line, a summary per workload and
end-to-end metric (`summarize`), the cold job times with their summary per
workload, and the output diff. Then it measures its own noise: the parent is
exported into both slots, at the paths the change used, and the same pairs,
cold jobs and output diff run again (`measure`, no traced runs). That null
compares code with itself, so a `gain` it flags comes from the slots or the
host; each compared entry carries its null twin, and is `vetoed` when the
null flags `gain` (or has no pairs), so no gain can be claimed from it in
this run (`with_null`). A perfbench run that exits non-zero is listed
with its exit code and the tail of its stderr, and its seed pairs with
nothing; a CLI call that raises writes the exception's type name as its exit
code. Either way the comparison goes on.

Runs are sequential, one process at a time, with BLAS at one thread.
"""
from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import py_compile
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 101
OUTPUT_JOBS = 8
OUTPUT_SEEDS = (1, 2)
TRACED_SECONDS = 2.0
STDERR_TAIL = 2000      # characters of a failed run's stderr kept in the report
# a gain needs this share of the pairs won (ties count for neither side)
WIN_SHARE = 0.9
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", re.IGNORECASE)

# criterion 9's configs (tests/test_acceptance.py), at CLI seed 7
CRITERION_9 = (
    ("qpt", {"experiment": "qpt", "gate": "X", "shots": 2000, "n_samples": 256,
             "steps": 1024}, 7),
    ("sweep", {"experiment": "sweep", "gate": "X", "n_samples": 256, "steps": 512,
               "epsilon_grid": {"min": -0.2, "max": 0.2, "points": 5}}, 7),
)

def quartiles(values):
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _pairs(runs, workload):
    """[(parent metrics, change metrics)] of the seeds that both sides ran, by seed."""
    by_seed = defaultdict(dict)
    for run in runs:
        if run["workload"] == workload:
            by_seed[run["seed"]][run["side"]] = run["printed"]
    return [(sides["parent"], sides["change"]) for _, sides in sorted(by_seed.items())
            if len(sides) == 2]


def _failed_share(printed):
    attempted = sum(p["attempted"] for p in printed)
    return sum(p["failed"] for p in printed) / attempted if attempted else 0.0


def compare(parent, change, worse=1.0) -> dict:
    """Paired values of the two sides: each side's median and quartiles, the
    pairs won and lost by the change (`worse` is the sign of a worsening, 1
    when lower is better; ties count for neither side), and `gain` when the
    change won at least WIN_SHARE of the pairs and its median is better by
    more than the parent's interquartile range."""
    moves = [worse * (c - p) for p, c in zip(parent, change)]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    won = sum(m < 0 for m in moves)
    return {"parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "won": won, "lost": sum(m > 0 for m in moves),
            "gain": won >= WIN_SHARE * len(moves) and worse * (pmed - cmed) > pq3 - pq1}


def summarize(runs, end_to_end):
    """Per workload and end-to-end metric of `end_to_end` (BENCHMARK.json's
    entries: name, better, bound): the `compare` entry of its pairs, with
    `beyond_bound` when the change's median is worse than the parent's by
    more than bound x |parent median|. Per workload also the failed share of
    each side and whether every run was correct.
    """
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        pairs = _pairs(runs, workload)
        if not pairs:
            continue
        entry = {"pairs": len(pairs),
                 "failed_share": {"parent": _failed_share([p for p, _ in pairs]),
                                  "change": _failed_share([c for _, c in pairs])},
                 "correct": all(p["correct"] and c["correct"] for p, c in pairs),
                 "metrics": {}}
        for metric in end_to_end:
            name = metric["name"]
            worse = 1.0 if metric["better"] == "lower" else -1.0     # sign of a worsening
            m = compare([p["metrics"][name]["value"] for p, _ in pairs],
                        [c["metrics"][name]["value"] for _, c in pairs], worse)
            m["beyond_bound"] = (worse * (m["change"]["median"] - m["parent"]["median"])
                                 > metric["bound"] * abs(m["parent"]["median"]))
            entry["metrics"][name] = m
        summary[workload] = entry
    return summary


def with_null(entry: dict, null) -> dict:
    """`entry`, a `compare` result, with its null twin (the same comparison of
    the parent against itself, or None when the null has no pairs) and
    `vetoed`: the null flags `gain`, or could not be compared, so this run
    cannot claim a gain for it."""
    entry["null"] = null
    entry["vetoed"] = null is None or null["gain"]
    return entry


def veto(summary: dict, null: dict) -> dict:
    """`summarize`'s `summary` with each metric's `with_null` entry from the
    null's summary `null`."""
    for workload, entry in summary.items():
        metrics = null.get(workload, {}).get("metrics", {})
        for name, m in entry["metrics"].items():
            with_null(m, metrics.get(name))
    return summary


def veto_cold(summary: dict, null: dict) -> dict:
    """`summarize_cold`'s `summary` with each workload's `with_null` entry
    from the null's cold summary `null`."""
    for workload, entry in summary.items():
        with_null(entry, null.get(workload))
    return summary


def _numbers(text):
    return [float(x) for x in _NUMBER.findall(text)]


def diff_file(parent: Path, change: Path) -> dict:
    """"identical"; "moved", with the largest absolute and relative change of
    its numbers, when the files hold as many numbers and some differ; else
    "differs" (a change that is not numeric, or not only)."""
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        return {"status": "identical"}
    x, y = _numbers(a.decode("utf-8")), _numbers(b.decode("utf-8"))
    if len(x) != len(y):
        return {"status": "differs"}
    pairs = [(p, c) for p, c in zip(x, y) if p != c]
    if not pairs:
        return {"status": "differs"}
    return {"status": "moved",
            "max_abs": max(abs(p - c) for p, c in pairs),
            "max_rel": max(abs(p - c) / max(abs(p), abs(c)) for p, c in pairs)}


def diff_outputs(parent_root: Path, change_root: Path) -> dict:
    """Every file under either root (the outputs, and the job configs and exit
    codes beside them), by path: its `diff_file` entry, or "missing" on the side that
    lacks it."""
    files = {}
    names = sorted({p.relative_to(root).as_posix() for root in (parent_root, change_root)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        a, b = parent_root / name, change_root / name
        if not (a.is_file() and b.is_file()):
            files[name] = {"status": "missing in " + ("parent" if b.is_file() else "change")}
        else:
            files[name] = diff_file(a, b)
    return files


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in `tree`: {"printed": its final JSON line}, or
    {"exit": its exit code, "stderr": the last STDERR_TAIL characters of its
    stderr} when it exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=_env(), capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "stderr": proc.stderr[-STDERR_TAIL:]}
    return {"printed": json.loads(proc.stdout.strip().splitlines()[-1])}


def bench_runs(trees: dict, workloads, seconds: float, traced_runs: bool = True):
    """(runs, traced, failed): the PAIRS pairs of `--trace 0` runs of `seconds`
    per workload, the parent first on odd seeds, then, with `traced_runs`, one
    `--trace 1` run of TRACED_SECONDS per side and workload at seed 1. A run
    that exits non-zero goes to `failed` with its exit code and stderr tail,
    not to its list."""
    runs, traced, failed = [], [], []

    def run(into, workload, seed, side, seconds, trace):
        _log(f"trace {trace}: {workload} seed {seed} {side}")
        record = {"workload": workload, "seed": seed, "side": side, "trace": trace,
                  **bench_run(trees[side], workload, seed, seconds, trace)}
        (into if "printed" in record else failed).append(record)

    for i in range(PAIRS):
        seed = FIRST_SEED + i
        for workload in workloads:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                run(runs, workload, seed, side, seconds, 0)
    for workload in workloads if traced_runs else ():
        for side in ("parent", "change"):
            run(traced, workload, 1, side, TRACED_SECONDS, 1)
    return runs, traced, failed


def output_jobs(workloads):
    """[(output path, command, config, CLI seed)]: jobs 0 .. OUTPUT_JOBS - 1 of
    each workload at OUTPUT_SEEDS, as this checkout's perfbench draws them,
    then criterion 9's configs."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    drawn = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drawn)
    jobs = [(f"{workload}/seed{seed}/job{index}/{k}_{command}", command, cfg, cli_seed)
            for workload in workloads for seed in OUTPUT_SEEDS for index in range(OUTPUT_JOBS)
            for k, (command, cfg, cli_seed) in enumerate(drawn.draw_job(workload, seed, index))]
    return jobs + [(f"criterion9/{command}", command, cfg, seed)
                   for command, cfg, seed in CRITERION_9]


def _exit_record(proc) -> str:
    """A CLI call's exit code, or, when it raised, the type name of its
    exception, read from the last line of its traceback."""
    if proc.returncode and "Traceback (most recent call last)" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        return last.split(":")[0].rsplit(".", 1)[-1]
    return str(proc.returncode)


def cli_call(tree: Path, out: Path, command: str, cfg: dict, seed: int) -> float:
    """Run one CLI call as its own `python -m holopulse.cli` process on
    `tree`'s src, its output in `out` and its config and exit record (see
    `_exit_record`) beside it; return its wall seconds, interpreter start
    included."""
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "holopulse.cli", command, "--config", str(cfg_path),
         "--seed", str(seed), "--out", str(out)],
        cwd=tree, env={**_env(), "PYTHONPATH": str(tree / "src")}, capture_output=True,
        text=True)
    seconds = time.perf_counter() - start
    (out.parent / f"{out.name}.exit").write_text(f"{_exit_record(proc)}\n", encoding="utf-8")
    return seconds


def _job_of(name: str) -> str:
    """The job of an `output_jobs` call: workload/seedS/jobI for a drawn job's
    call, the call itself for a criterion 9 config."""
    parts = name.split("/")
    return "/".join(parts[:3]) if len(parts) == 4 else name


def cold_runs(trees: dict, outs: dict, jobs) -> list:
    """Every call of `jobs` (see `output_jobs`) in both trees, each its own
    process (`cli_call`), outputs under outs[side]; per job the parent goes
    first on even jobs and the change on odd ones. One record per job and
    side: its workload and its wall seconds, summed over its calls."""
    grouped = defaultdict(list)
    for job in jobs:
        grouped[_job_of(job[0])].append(job)
    records = []
    for i, (job, calls) in enumerate(grouped.items()):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            _log(f"cold: {job} {side}")
            seconds = sum(cli_call(trees[side], outs[side] / name, command, cfg, seed)
                          for name, command, cfg, seed in calls)
            records.append({"job": job, "workload": job.split("/")[0], "side": side,
                            "seconds": seconds})
    return records


def summarize_cold(records) -> dict:
    """Per workload: the `compare` entry of the wall seconds of its jobs run
    on both sides, and their number."""
    by_job = defaultdict(dict)
    for record in records:
        by_job[record["workload"], record["job"]][record["side"]] = record["seconds"]
    summary = {}
    for workload in sorted({w for w, _ in by_job}):
        pairs = [(sides["parent"], sides["change"]) for (w, _), sides in sorted(by_job.items())
                 if w == workload and len(sides) == 2]
        if pairs:
            summary[workload] = {"pairs": len(pairs), **compare(*zip(*pairs))}
    return summary


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def working_tree_rev() -> str:
    """A commit of the tracked files as they stand in the working tree, made
    by `git stash create` (under a fixed identity, which it records but needs
    no configuration for); HEAD when none changed."""
    return (_git("-c", "user.name=bench_pr", "-c", "user.email=bench_pr@localhost",
                 "stash", "create") or _git("rev-parse", "HEAD"))


def export_tree(rev: str, dest: Path) -> Path:
    """Unpack the files of commit `rev` into the new directory `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, capture_output=True,
                   check=True)
    return dest


def compile_tree(tree: Path) -> Path:
    """Byte-compile every .py file under `tree` into its own __pycache__,
    checked by the source's mtime, as pip installs it."""
    compileall.compile_dir(str(tree), quiet=1,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    return tree


def measure(revs: dict, root: Path, workloads, seconds: float, jobs,
            traced_runs: bool = True) -> dict:
    """One comparison of the commits `revs` (side -> rev), each exported into
    root/<side> and byte-compiled: the perfbench pairs (`bench_runs`), the
    cold calls of `jobs` with outputs under root/out_<side> (`cold_runs`) and
    the output diff. `root` is left holding only the trees and outputs."""
    trees = {side: compile_tree(export_tree(rev, root / side)) for side, rev in revs.items()}
    runs, traced, failed = bench_runs(trees, workloads, seconds, traced_runs)
    outs = {side: root / f"out_{side}" for side in trees}
    cold = cold_runs(trees, outs, jobs)
    files = diff_outputs(outs["parent"], outs["change"])
    return {"runs": runs, "traced": traced, "failed": failed, "cold": cold, "files": files}


def _counts(files: dict) -> dict:
    statuses = [f["status"] for f in files.values()]
    return {s: statuses.count(s) for s in sorted(set(statuses))}


def _log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    args.seconds = bench["run_seconds"]
    args.workloads = [w["name"] for w in bench["workloads"]]
    args.end_to_end = bench["end_to_end"]
    return args


def main(argv=None):
    args = parse_args(argv)
    revs = {"parent": _git("rev-parse", args.parent), "change": working_tree_rev()}
    jobs = output_jobs(args.workloads)
    with tempfile.TemporaryDirectory(prefix="bench_pr_") as tmp:
        root = Path(tmp)
        pr = measure(revs, root, args.workloads, args.seconds, jobs)
        for path in root.iterdir():     # the null takes the same paths
            shutil.rmtree(path)
        _log("null: the parent in both slots")
        null = measure({side: revs["parent"] for side in revs}, root, args.workloads,
                       args.seconds, jobs, traced_runs=False)
    host = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": 1}
    null_summary = summarize(null["runs"], args.end_to_end)
    null_cold = summarize_cold(null["cold"])
    report = {
        "description": (
            f"perfbench/run.py --trace 0 --seconds {args.seconds:g} runs of the parent "
            f"commit and this change: {PAIRS} seeds ({FIRST_SEED}-"
            f"{FIRST_SEED + PAIRS - 1}) per workload, the parent first on odd "
            f"seeds; then one --trace 1 --seconds {TRACED_SECONDS:g} run per side "
            f"and workload at seed 1. 'printed' is the final JSON line of each run; "
            f"'failed_runs' lists the runs that exited non-zero, which pair with nothing. "
            f"Outputs and 'cold': every CLI call of jobs 0-{OUTPUT_JOBS - 1} of each "
            f"workload at seeds {', '.join(map(str, OUTPUT_SEEDS))} and of criterion 9's "
            f"qpt and sweep configs at seed 7, each its own python -m holopulse.cli "
            f"process in both trees, the parent first on even jobs; 'cold' holds each "
            f"job's wall seconds, interpreter start included, and per workload both "
            f"medians and quartiles and the pairs won. 'null': the same pairs, cold "
            f"calls and output diff with the parent exported into both slots, at the "
            f"same paths and in the same order, and no traced runs; every compared "
            f"entry of 'summary' and of the cold summary holds its null twin under "
            f"'null', and is 'vetoed' when the null flags 'gain' or has no pairs: a "
            f"claimed gain must not be vetoed."),
        "parent": revs["parent"],
        "host": host,
        "runs": pr["runs"],
        "traced": pr["traced"],
        "failed_runs": pr["failed"],
        "summary": veto(summarize(pr["runs"], args.end_to_end), null_summary),
        "cold": {"jobs": pr["cold"], "summary": veto_cold(summarize_cold(pr["cold"]), null_cold)},
        "outputs": {"jobs": OUTPUT_JOBS, "seeds": list(OUTPUT_SEEDS),
                    "counts": _counts(pr["files"]), "files": pr["files"]},
        "null": {"runs": null["runs"], "failed_runs": null["failed"],
                 "cold": {"jobs": null["cold"]},
                 "outputs": {"counts": _counts(null["files"])}},
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, entry in report["summary"].items():
        for name, m in entry["metrics"].items():
            _log(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                 f"change {m['change']['median']:.6g} won {m['won']}/{entry['pairs']}"
                 f"{' BEYOND BOUND' if m['beyond_bound'] else ''}"
                 f"{' gain' if m['gain'] else ''}{' VETOED by the null' if m['vetoed'] else ''}")
    for workload, m in report["cold"]["summary"].items():
        _log(f"{workload} cold s: parent {m['parent']['median']:.4g} "
             f"change {m['change']['median']:.4g} won {m['won']}/{m['pairs']}"
             f"{' VETOED by the null' if m['vetoed'] else ''}")
    for label, failed in (("", pr["failed"]), ("null ", null["failed"])):
        for run in failed:
            _log(f"FAILED: {label}{run['workload']} seed {run['seed']} {run['side']} "
                 f"trace {run['trace']}: exit {run['exit']}")
    _log(f"outputs: {report['outputs']['counts']}; null outputs: "
         f"{report['null']['outputs']['counts']}; wrote {path.name}")


if __name__ == "__main__":
    main()
