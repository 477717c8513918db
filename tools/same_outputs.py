#!/usr/bin/env python3
"""Check that this checkout gives the same outputs as a git revision.

    python3 tools/same_outputs.py REV [--seeds 1 2]

REV is checked out in a temporary git worktree.  Each tree, REV's and this
checkout's working tree, is run in a subprocess of its own, with BLAS pinned
to one thread and the tree's src/ first on sys.path.  Each records:

- for every batch of the seed's corpora of the benchmark workloads (built by
  perfbench/workloads.build_corpus, batched as perfbench/run.py batches
  them: one batch per chunk, or per family and chunk): the stdout, stderr
  and exit code of each analysis command, and of `verify` on its output;
- for every corpus input: its library reports (classification_report,
  psl_report, decompose_simple), or the error each raises;
- the outcome of every input of tests/test_conditioning.sweep at seeds 0 and
  11 and cond 1e2 ... 1e6.

The corpora, the sweep and this driver are this checkout's in both runs, so
only the qproj package differs; perfbench/ and tests/ are imported, never
written.  The script prints the keys whose records differ, and exits 1 if
any do, 0 if none do, 2 on a usage error or a run that fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("classify", "reversibility", "decompose", "simple-check")
WORKLOADS = ("generic", "defective", "shapes")
SWEEP_SEEDS = (0, 11)
SWEEP_CONDS = (1e2, 1e3, 1e4, 1e5, 1e6)
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# one tree's records, in its own process


def _invoked(runner, main, args, text):
    res = runner.invoke(main, args, input=text)
    record = {"stdout": res.stdout, "stderr": res.stderr, "exit": res.exit_code}
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        record["exception"] = _error(res.exception)
    return record


def _library_reports(qproj, a):
    out = {}
    for name, report in (("classify", qproj.classification_report),
                         ("reversibility", lambda a: qproj.psl_report(a).to_json_dict()),
                         ("decompose", lambda a: qproj.decompose_simple(a).to_json_dict())):
        try:
            out[name] = json.dumps(report(a), sort_keys=True)
        except Exception as exc:
            out[name] = _error(exc)
    return out


def record(tree, seeds):
    """{key: record} of the tree whose package is at tree/src."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "tests")]
    import numpy as np
    from click.testing import CliRunner

    import qproj
    import qproj.cli

    if os.path.dirname(os.path.abspath(qproj.__file__)) != os.path.join(tree, "src", "qproj"):
        raise SystemExit(f"qproj imported from {qproj.__file__}, not from {tree}/src")
    workloads = _load(os.path.join(ROOT, "perfbench", "workloads.py"), "workloads")
    conditioning = _load(os.path.join(ROOT, "tests", "test_conditioning.py"), "test_conditioning")

    runner, out = CliRunner(), {}
    for seed in seeds:
        for workload in WORKLOADS:
            by_family = workloads.WORKLOADS[workload]["batch_by_family"]
            for c, chunk in enumerate(workloads.build_corpus(workload, seed)):
                batches = {}
                for k, item in enumerate(chunk):
                    out[f"library seed={seed} {workload} chunk={c} item={k} {item['family']}"] = (
                        _library_reports(qproj, item["matrix"]))
                    batches.setdefault(item["family"] if by_family else "chunk", []).append(item)
                for batch, items in batches.items():
                    text = json.dumps([item["matrix"].to_json_dict() for item in items])
                    for command in COMMANDS:
                        rec = _invoked(runner, qproj.cli.main, [command, "-"], text)
                        rec["verify"] = _invoked(runner, qproj.cli.main, ["verify", "-"],
                                                 rec["stdout"])
                        out[f"cli seed={seed} {workload} chunk={c} batch={batch} {command}"] = rec
    for seed in SWEEP_SEEDS:
        for cond in SWEEP_CONDS:
            out[f"sweep seed={seed} cond={cond:g}"] = conditioning.sweep(
                cond, np.random.default_rng(seed))
    return out


# ---------------------------------------------------------------------------
# the comparison


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _start(tree, seeds, path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(PINNED, "1"))
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--record", tree, path,
                             "--seeds", *map(str, seeds)], env=env)


def _differences(theirs, ours):
    """(key, what differs) of each key whose records differ, in key order."""
    out = []
    for key in sorted(set(theirs) | set(ours)):
        if key not in ours or key not in theirs:
            out.append((key, "only in " + ("REV" if key in theirs else "this checkout")))
            continue
        a, b = theirs[key], ours[key]
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            fields = [f for f in sorted(set(a) | set(b)) if a.get(f) != b.get(f)]
            out.append((key, ", ".join(fields)))
        else:
            out.append((key, "outcomes"))
    return out


def _fully_correct(records):
    """Per sweep key, the number of inputs with all three answers correct."""
    return {key: sum(row == ["correct"] * 3 for row in rows)
            for key, rows in records.items() if key.startswith("sweep ")}


def compare(rev, seeds):
    try:
        commit = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: {rev!r} is not a commit of this repository", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="same-outputs-")
    tree = os.path.join(scratch, "rev")
    _git("worktree", "add", "--detach", "--quiet", tree, commit)
    try:
        t0 = time.perf_counter()
        paths = [os.path.join(scratch, name) for name in ("rev.json", "checkout.json")]
        runs = [_start(t, seeds, p) for t, p in zip((tree, ROOT), paths)]
        if any([run.wait() != 0 for run in runs]):  # a list: wait for both
            print("error: a recording run failed", file=sys.stderr)
            return 2
        theirs, ours = map(_read_json, paths)
    finally:
        _git("worktree", "remove", "--force", tree)
        shutil.rmtree(scratch, ignore_errors=True)

    before = _fully_correct(theirs)
    for key, count in _fully_correct(ours).items():
        print(f"{key}: fully correct {before.get(key)} -> {count}")
    differences = _differences(theirs, ours)
    for key, what in differences:
        print(f"differs: {key}: {what}")
    print(f"{len(differences)} of {len(set(theirs) | set(ours))} records differ from "
          f"{rev} ({commit[:12]}), seeds {' '.join(map(str, seeds))}; "
          f"{time.perf_counter() - t0:.0f} s")
    return 1 if differences else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="corpus seeds of the workloads (default: 1 2)")
    parser.add_argument("--record", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        tree, path = args.record
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record(tree, args.seeds), fh)
        return 0
    if args.rev is None:
        parser.error("REV is required")
    return compare(args.rev, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
