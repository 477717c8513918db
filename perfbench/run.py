"""End-to-end and per-layer benchmark of the qproj pipeline.

    python3 perfbench/run.py --workload generic|defective|shapes \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, in this one process, with BLAS/OpenMP pinned to a
single thread.  The corpus is made from ``--seed`` by ``qproj.generate``.

``--trace 0`` is a closed loop with one client: pass after pass, each over
one corpus chunk, until ``--seconds`` have elapsed.  A pass asks the three
questions of every matrix through the library (``classification_report``,
``psl_report``, ``decompose_simple``), then sends the chunk through the
``classify``, ``reversibility`` and ``decompose`` CLI commands as JSON arrays
(one batch per chunk; per family on ``shapes``), and replays every report
they print with ``qproj verify``.  The order of the four stages rotates from
pass to pass so that slow drift of the machine falls on all of them alike.
Rates are the median over passes; ``setup_s`` is the median of several fresh
interpreters.  Around each stage (and in each set-up probe) a fixed
reference loop that does not use qproj is timed, and rates and times are
reported at the loop's nominal speed; the values as timed are printed next
to them and in the ``detail`` line.

``--trace 1`` runs each of the workload's first ``trace_chunks`` chunks once
untraced and once with the layer tracer installed, and reports per-layer
counts and times from the traced passes; that work is fixed, so the counts
repeat exactly for a given seed.

Every output is checked (labels, reversibility flags, at most four factors,
``verify`` exit status); a failed check counts as a failed operation and
never aborts the run.  ``correct`` is false on any failure other than the
documented baseline ones (``workloads.KNOWN_FAILURES``).  The line before
the last is ``detail`` and a JSON object (fail_frac, failures by reason,
slowdown, values as timed); the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here and in the set-up probes
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BASELINE_SEED = 1
HELDOUT_SEED = 2
SETUP_PROBES = 5
# the gate `qproj verify` applies at the default tolerance
RESIDUAL_GATE = 1e-6
COMMANDS = ("classify", "reversibility", "decompose")
REPORT_KIND = {"classify": "classification", "reversibility": "reversibility",
               "decompose": "decomposition"}
FLAGS = ("reversible_sl", "strongly_reversible_sl", "negative_reversible", "reversible_psl")
VERDICT = {"classify": lambda rep: rep["minor"],
           "reversibility": lambda rep: tuple(rep[f] for f in FLAGS),
           "decompose": lambda rep: len(rep["factors"])}


def import_qproj():
    """Import qproj from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "qproj", "__init__.py")):
        sys.stderr.write(f"error: no qproj sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qproj
    import qproj.cli

    if os.path.dirname(os.path.abspath(qproj.__file__)) != os.path.join(SRC, "qproj"):
        sys.stderr.write(f"error: qproj imported from {qproj.__file__}, not {SRC}\n")
        sys.exit(2)
    return qproj


class Tally:
    """Attempted / failed operations; ``unexpected`` counts the failures that
    are not documented baseline failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons = Counter()

    def ok(self, n=1):
        self.attempted += n

    def fail(self, reason, n=1, known=False):
        self.attempted += n
        self.failed += n
        self.unexpected += 0 if known else n
        self.reasons[("known " if known else "") + reason] += n

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.reasons.update(other.reasons)


class Bench:
    def __init__(self, qproj, workload, seed, tracer):
        import workloads
        from click.testing import CliRunner

        self.qproj = qproj
        self.spec = workloads.WORKLOADS[workload]
        self.wl = workloads
        self.tracer = tracer
        self.runner = CliRunner()
        t0 = time.perf_counter()
        self.corpus = workloads.build_corpus(workload, seed)
        self.corpus_s = time.perf_counter() - t0
        # the JSON arrays handed to the CLI: one per chunk, or per family and chunk
        self.batches = [self._batches(chunk) for chunk in self.corpus]

    def _batches(self, chunk):
        groups = {}
        for item in chunk:
            key = item["family"] if self.spec["batch_by_family"] else None
            groups.setdefault(key, []).append(item)
        return [(items, json.dumps([it["matrix"].to_json_dict() for it in items]))
                for items in groups.values()]

    # -- one pass over one chunk -------------------------------------------

    def run_pass(self, index, rotate, ref=None):
        """One pass over chunk ``index``.

        With a MachineRef, the reference loop is timed before the first stage
        and after every stage.  Each stage's times are also kept divided by
        the mean slowdown of the two loops around it: ``nominal`` and
        ``analyze_nominal``.
        """
        out = {"analyze": [], "tally": Tally(), "verdicts": [], "bytes": 0,
               "verify_reports": 0, "analyze_nominal": []}
        for key in (*COMMANDS, "verify"):
            out[key] = [0, 0.0]  # matrices or timed reports answered, seconds
        out["nominal"] = dict.fromkeys((*COMMANDS, "verify"), 0.0)
        stages = ["library", *COMMANDS]
        k = rotate % len(stages)
        before = ref.slowdown() if ref is not None else None
        slowdowns = []
        for stage in stages[k:] + stages[:k]:
            seconds = {key: out[key][1] for key in out["nominal"]}
            samples = len(out["analyze"])
            if stage == "library":
                self._library(self.corpus[index], out)
            else:
                self._cli(stage, self.batches[index], out)
            if ref is None:
                continue
            after = ref.slowdown()
            slow = (before + after) / 2
            before = after
            slowdowns.append(slow)
            for key, s in seconds.items():
                out["nominal"][key] += (out[key][1] - s) / slow
            out["analyze_nominal"] += [t / slow for t in out["analyze"][samples:]]
        if slowdowns:
            out["slowdown"] = statistics.median(slowdowns)
        return out

    def _library(self, chunk, out):
        q, wl, tr, tally = self.qproj, self.wl, self.tracer, out["tally"]
        clock = time.perf_counter
        for item in chunk:
            a = item["matrix"]
            total, all_ok = 0.0, True
            for question in COMMANDS:
                tr.phase = f"lib.{question}"
                t0 = clock()
                try:
                    if question == "classify":
                        res = q.classification_report(a)
                    elif question == "reversibility":
                        res = q.psl_report(a)
                    else:
                        res = q.decompose_simple(a)
                except Exception as exc:  # any exception is a failed operation
                    total += clock() - t0
                    all_ok = False
                    reason = f"library {question} {item['family']}: {type(exc).__name__}"
                    tally.fail(reason, known=wl.is_known_failure(item["family"], question, exc))
                    out["verdicts"].append((item["family"], question, type(exc).__name__))
                    continue
                total += clock() - t0
                if question == "classify":
                    verdict = res["minor"]
                    problem = wl.check_classification(item, res)
                elif question == "reversibility":
                    verdict = tuple(getattr(res, f) for f in FLAGS)
                    problem = wl.check_reversibility(item, {f: getattr(res, f) for f in FLAGS})
                    if problem is None and any(v > RESIDUAL_GATE for v in res.residuals.values()):
                        problem = f"{item['family']}: witness residual above gate"
                else:
                    verdict = len(res)
                    problem = wl.check_decomposition(item, len(res))
                    residuals = [res.residual] + [c.residual for c in res.certificates]
                    if problem is None and max(residuals) > RESIDUAL_GATE:
                        problem = f"{item['family']}: decomposition residual above gate"
                out["verdicts"].append((item["family"], question, verdict))
                if problem is None:
                    tally.ok()
                else:
                    all_ok = False
                    tally.fail(f"library {question}: {problem}")
            if all_ok:
                out["analyze"].append(total)
        tr.phase = "idle"

    def _invoke(self, args, text):
        return self.runner.invoke(self.qproj.cli.main, args, input=text)

    def _cli(self, command, batches, out):
        wl, tr, tally = self.wl, self.tracer, out["tally"]
        kind = REPORT_KIND[command]
        check = {"classify": wl.check_classification,
                 "reversibility": wl.check_reversibility,
                 "decompose": lambda item, rep: wl.check_decomposition(item, len(rep["factors"]))}[command]
        for items, text in batches:
            n = len(items)
            tr.phase = f"cli.{command}"
            t0 = time.perf_counter()
            with tr.span(f"cli.{command}"):
                res = self._invoke([command, "-"], text)
            out[command][1] += time.perf_counter() - t0
            families = {it["family"] for it in items}
            family = families.pop() if len(families) == 1 else "chunk"
            if res.exit_code != 0:
                name = type(res.exception).__name__ if res.exception else "exit"
                known = res.exit_code == 1 and wl.is_known_failure(family, command, res.exception)
                tally.fail(f"cli {command} {family}: exit {res.exit_code} ({name})", n, known)
                out["verdicts"].append((family, command, res.exit_code))
                continue
            out["bytes"] += len(res.stdout.encode())
            reports = json.loads(res.stdout)
            verdicts = []
            for item, rep in zip(items, reports):
                problem = check(item, rep)
                if problem is None:
                    tally.ok()
                    out[command][0] += 1
                else:
                    tally.fail(f"cli {command}: {problem}")
                verdicts.append(VERDICT[command](rep))
            if len(reports) != n:
                tally.fail(f"cli {command} {family}: {len(reports)} reports for {n} inputs",
                           abs(n - len(reports)))
            out["verdicts"].append((family, command, tuple(verdicts)))
            self._verify(kind, family, res.stdout, len(reports), out)
        tr.phase = "idle"

    def _verify(self, kind, family, text, n, out):
        tally, tr = out["tally"], self.tracer
        tr.phase = "cli.verify"
        t0 = time.perf_counter()
        with tr.span("cli.verify"):
            res = self._invoke(["verify", "-"], text)
        dt = time.perf_counter() - t0
        if kind in self.spec["timed_verify"]:
            out["verify"][0] += n
            out["verify"][1] += dt
        out["verify_reports"] += n
        statuses = [line.rsplit(" ", 1)[-1] for line in res.stderr.splitlines()
                    if line.startswith("report ")]
        out["verdicts"].append((family, f"verify {kind}", res.exit_code, tuple(statuses)))
        if res.exit_code == 0:
            tally.ok(n)
        elif res.exit_code == 4 and len(statuses) == n:
            bad = statuses.count("FAIL")
            tally.ok(n - bad)
            tally.fail(f"verify {kind} {family}: certificate rejected", bad)
        else:
            tally.fail(f"verify {kind} {family}: exit {res.exit_code}", n)


# ---------------------------------------------------------------------------
# modes


class MachineRef:
    """A fixed piece of numpy and Python work that does not use qproj.

    The machine's speed drifts by a quarter within minutes (see NOTES.md), and
    qproj's rates follow it closely.  Timing this loop before and after each
    stage of a pass tells how slow the machine was just then; the end-to-end
    metrics are reported at the nominal speed: a time is divided, and a rate
    multiplied, by the mean ``slowdown()`` of the two loops around the stage
    it was measured in.  The loop runs with the garbage
    collector off, so the size of the heap qproj leaves behind does not
    change its time.

    The loop reacts more strongly to a busy machine than qproj does: qproj's
    time grows about as the loop's time to the power ``EXPONENT`` (fitted in
    NOTES.md), so the slowdown is the loop's time ratio to that power.
    """

    NOMINAL_S = 0.010  # typical time of one call on the machine of NOTES.md
    EXPONENT = 0.75

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.mats = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                     for _ in range(40)]

    def slowdown(self):
        np = self.np
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc = 0.0
        for m in self.mats:
            _, v = np.linalg.eig(m)
            acc += float(np.abs(np.linalg.inv(v)).sum())
            b = np.block([[m[:3, :3], m[:3, 3:]], [-m[3:, :3].conj(), m[3:, 3:]]])
            acc += sum(complex(x).real for x in b.ravel())
            text = json.dumps({"m": [[[float(z.real), float(z.imag)] for z in row] for row in b]})
            acc += len(json.loads(text)["m"])
        elapsed = time.perf_counter() - t0
        if enabled:
            gc.enable()
        return (elapsed / self.NOMINAL_S) ** self.EXPONENT


def setup_probe(workload, seed):
    """Fresh-interpreter set-up: import, build the corpus, one warm-up analysis."""
    t0 = time.perf_counter()
    qproj = import_qproj()
    from layertrace import LayerTracer

    bench = Bench(qproj, workload, seed, LayerTracer())
    a = bench.corpus[0][0]["matrix"]
    qproj.classification_report(a)
    qproj.psl_report(a)
    qproj.decompose_simple(a)
    setup_s = time.perf_counter() - t0
    ref = MachineRef()
    slow = statistics.median(ref.slowdown() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "slowdown": slow}))


def measure_setup(workload, seed):
    """(set-up seconds, slowdown) of SETUP_PROBES fresh interpreters."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append((probe["setup_s"], probe["slowdown"]))
    return values


def quantile(values, q):
    """Linear-interpolation quantile (statistics.quantiles' inclusive method)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def untraced(bench, seconds):
    n_chunks = len(bench.corpus)
    ref = MachineRef()
    bench.run_pass(0, 0)  # warm-up: lazy imports, click, first LAPACK calls
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = len(passes)
        passes.append(bench.run_pass(p % n_chunks, p, ref))
    return passes


def end_to_end(passes, setup_values, nominal=True):
    """End-to-end metrics, at nominal machine speed unless ``nominal`` is false."""

    def rate(key):
        return statistics.median(n / (p["nominal"][key] if nominal else s) for p in passes
                                 for n, s in [p[key]] if s > 0 and n > 0)

    analyze = [t * 1e3 for p in passes
               for t in (p["analyze_nominal"] if nominal else p["analyze"])]
    return {
        "classify_per_s": (rate("classify"), "1/s"),
        "reversibility_per_s": (rate("reversibility"), "1/s"),
        "decompose_per_s": (rate("decompose"), "1/s"),
        "verify_per_s": (rate("verify"), "1/s"),
        "analyze_ms_p50": (quantile(analyze, 0.5), "ms"),
        "analyze_ms_p90": (quantile(analyze, 0.9), "ms"),
        "setup_s": (statistics.median(t / (k if nominal else 1.0) for t, k in setup_values), "s"),
    }, len(analyze)


def traced(bench):
    """Each chunk once untraced, then once traced; per-layer metrics."""
    tr = bench.tracer
    bench.run_pass(0, 0)  # warm-up
    plain_s = traced_s = 0.0
    traced_passes, mismatches = [], []
    for i in range(bench.spec["trace_chunks"]):
        t0 = time.perf_counter()
        plain = bench.run_pass(i, i)
        plain_s += time.perf_counter() - t0
        with tr.installed():
            t0 = time.perf_counter()
            done = bench.run_pass(i, i)
            traced_s += time.perf_counter() - t0
        if done["verdicts"] != plain["verdicts"]:
            mismatches.append(i)
        traced_passes.append(done)
    return traced_passes, plain_s, traced_s, mismatches


def empty_invoke_ms(bench, repeats=20):
    """Median ms of one CLI invocation on an empty array, over the four commands.

    This is the fixed cost of a batch: CliRunner's stream swapping, click's
    dispatch and reading the input.  It is part of ``cli.self_ms_per_matrix``.
    """
    times = []
    for _ in range(repeats):
        for command in (*COMMANDS, "verify"):
            t0 = time.perf_counter()
            res = bench._invoke([command, "-"], "[]")
            times.append(time.perf_counter() - t0)
            if res.exit_code != 0:
                raise RuntimeError(f"{command} on an empty array exited {res.exit_code}")
    return statistics.median(times) * 1e3


def per_layer(bench, passes, plain_s, traced_s, empty_ms):
    tr = bench.tracer
    n = sum(len(chunk) for chunk in bench.corpus[:len(passes)])
    reports = sum(p["verify_reports"] for p in passes)
    lib = {"lib.classify", "lib.reversibility", "lib.decompose"}
    cli = {"cli.classify", "cli.reversibility", "cli.decompose"}
    work = lib | cli | {"cli.verify"}  # everything but building the corpus
    jf = "spectral.jordan_form"

    def per_call(question, entry):
        phase = {f"lib.{question}"}
        return tr.calls(jf, phase) / tr.calls(entry, phase)

    def per_matrix(key):
        return tr.calls(key, work) / n

    def self_ms(layer):
        return tr.layer_self(layer, work) * 1e3 / n

    lib_total = sum(tr.inclusive(k, lib) for k in (
        "classify.classification_report", "reversibility.psl_report",
        "decompose.decompose_simple"))
    jf_ms = [d * 1e3 for d in tr.durations[jf]]
    return {
        "spectral.jordan_form.calls_per_classify":
            (per_call("classify", "classify.classification_report"), "count"),
        "spectral.jordan_form.calls_per_reversibility":
            (per_call("reversibility", "reversibility.psl_report"), "count"),
        "spectral.jordan_form.calls_per_decompose":
            (per_call("decompose", "decompose.decompose_simple"), "count"),
        "spectral.jordan_form.ms_p50": (quantile(jf_ms, 0.5), "ms"),
        "spectral.jordan_form.ms_p90": (quantile(jf_ms, 0.9), "ms"),
        "spectral.jordan_form.share": (tr.inclusive(jf, lib) / lib_total, "frac"),
        "classify.self_ms_per_matrix": (self_ms("classify"), "ms"),
        "reversibility.self_ms_per_matrix": (self_ms("reversibility"), "ms"),
        "reversibility.reverser.calls_per_matrix": (per_matrix("reversibility.reverser"), "count"),
        "decompose.self_ms_per_matrix": (self_ms("decompose"), "ms"),
        "decompose.realify.calls_per_matrix": (per_matrix("decompose.realify"), "count"),
        "matrix.inverse.calls_per_matrix": (per_matrix("matrix.inverse"), "count"),
        "matrix.inverse.ms_per_matrix": (tr.inclusive("matrix.inverse", work) * 1e3 / n, "ms"),
        "matrix.matmul.calls_per_matrix": (per_matrix("matrix.matmul"), "count"),
        "matrix.det_h.calls_per_matrix": (per_matrix("matrix.det_h"), "count"),
        "matrix.adjoint.calls_per_matrix": (per_matrix("matrix.adjoint"), "count"),
        "quaternion.objects_per_matrix":
            (per_matrix("quaternion.from_complex_pair") + per_matrix("quaternion.from_scalar"),
             "count"),
        "cli.self_ms_per_matrix": (tr.layer_self("cli", cli) * 1e3 / n, "ms"),
        "cli.verify.self_ms_per_report": (tr.layer_self("cli", {"cli.verify"}) * 1e3 / reports, "ms"),
        "cli.report_bytes_per_matrix": (sum(p["bytes"] for p in passes) / n, "count"),
        "cli.empty_invoke_ms": (empty_ms, "ms"),
        "generate.ms_per_matrix": (bench.corpus_s * 1e3 / sum(map(len, bench.corpus)), "ms"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pinning": {v: os.environ[v] for v in PINNED},
        "baseline_seed": BASELINE_SEED,
        "heldout_seed": HELDOUT_SEED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, one process",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("generic", "defective", "shapes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    qproj = import_qproj()
    from layertrace import LayerTracer

    print("environment " + json.dumps(environment(args), sort_keys=True))
    tracer = LayerTracer()
    if args.trace:
        bench = Bench(qproj, args.workload, args.seed, tracer)
        passes, plain_s, traced_s, mismatches = traced(bench)
        metrics = per_layer(bench, passes, plain_s, traced_s, empty_invoke_ms(bench))
        samples = None
    else:
        setup_values = measure_setup(args.workload, args.seed)
        bench = Bench(qproj, args.workload, args.seed, tracer)
        passes = untraced(bench, args.seconds)
        metrics, samples = end_to_end(passes, setup_values)
        raw, _ = end_to_end(passes, setup_values, nominal=False)
        mismatches = []

    tally = Tally()
    for p in passes:
        tally.add(p["tally"])
    n_matrices = sum(len(bench.corpus[i % len(bench.corpus)]) for i in range(len(passes)))
    batch_sizes = sorted({len(items) for batches in bench.batches for items, _ in batches})
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{n_matrices} matrices, corpus {sum(map(len, bench.corpus))}, "
          f"CLI batch size {'/'.join(map(str, batch_sizes))}"
          + (f", analyze samples {samples}" if samples is not None else ""))
    if args.trace:
        for key, calls, incl, self_s in tracer.table()[:12]:
            print(f"  span {key:40s} calls {calls:8d} incl {incl:8.3f} s self {self_s:8.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + ("" if args.trace else f" (as timed {raw[name][0]:.6g})"))
    detail = {
        "fail_frac": tally.failed / tally.attempted,
        "unexpected_failures": tally.unexpected,
        "failures": dict(tally.reasons.most_common()),
    }
    if not args.trace:
        slowdowns = [p["slowdown"] for p in passes]
        detail["slowdown"] = {"median": statistics.median(slowdowns),
                              "min": min(slowdowns), "max": max(slowdowns)}
        detail["as_timed"] = {k: v for k, (v, _) in raw.items()}
        print(f"machine slowdown median {statistics.median(slowdowns):.3f} "
              f"(min {min(slowdowns):.3f}, max {max(slowdowns):.3f}) over nominal")
    print(f"fail_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} operations, {tally.unexpected} unexpected)")
    for reason, count in tally.reasons.most_common():
        print(f"  failed x{count}: {reason}")
    if mismatches:
        print(f"traced and untraced verdicts differ on chunks {mismatches}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.unexpected == 0 and not mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
