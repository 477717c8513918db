"""Self-test of the benchmark: tracer coverage, exact counts, output checks.

    python3 perfbench/selftest.py

Runs on the first corpus chunk of each workload (about 20 s in all)
and exits non-zero on the first failed check.
"""

from __future__ import annotations

import sys

import run  # pins BLAS/OpenMP threads before numpy is imported
from layertrace import METHODS, LayerTracer, public_functions, qproj_namespaces

qproj = run.import_qproj()
import workloads  # noqa: E402  (needs qproj on the path)


def small_bench(workload, tracer):
    bench = run.Bench(qproj, workload, run.BASELINE_SEED, tracer)
    bench.corpus, bench.batches = bench.corpus[:1], bench.batches[:1]
    bench.spec = dict(bench.spec, trace_chunks=1)
    return bench


def check_patch_covers_every_namespace():
    """No qproj namespace keeps an unwrapped public layer function while tracing."""
    originals = {id(fn): key for key, fn in public_functions()}
    namespaces = qproj_namespaces()
    before = [dict(vars(ns)) for ns in namespaces]
    holders = sum(1 for ns in namespaces for obj in vars(ns).values() if id(obj) in originals)
    assert holders > len(originals), "re-exported names were expected in several namespaces"
    tracer = LayerTracer()
    with tracer.installed():
        for ns in namespaces:
            for name, obj in vars(ns).items():
                assert id(obj) not in originals, f"{ns.__name__}.{name} left unwrapped"
        for layer, cls_name, attr, _ in METHODS:
            cls = getattr(sys.modules[f"qproj.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            fn = fn.__func__ if isinstance(fn, classmethod) else fn
            assert hasattr(fn, "__wrapped__"), f"{cls_name}.{attr} left unwrapped"
    for ns, saved in zip(namespaces, before):
        assert all(vars(ns).get(k) is v for k, v in saved.items()), f"{ns.__name__} not restored"
    print(f"ok: {len(originals)} functions wrapped in all {holders} places they are bound")


def check_workload(workload):
    """Counts are non-zero and repeat exactly; tracing changes no verdict; the
    only failures are the documented baseline ones."""
    runs = []
    for _ in range(2):
        tracer = LayerTracer()
        bench = small_bench(workload, tracer)
        passes, plain_s, traced_s, mismatches = run.traced(bench)
        assert not mismatches, f"{workload}: traced and untraced verdicts differ"
        for p in passes:
            assert p["tally"].unexpected == 0, f"{workload}: {p['tally'].reasons}"
            assert (p["tally"].failed > 0) == (workload == "shapes"), p["tally"].reasons
        metrics = run.per_layer(bench, passes, plain_s, traced_s, run.empty_invoke_ms(bench, 1))
        runs.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    for name, value in runs[0].items():
        assert value > 0, f"{workload}: {name} is zero"
    assert runs[0] == runs[1], f"{workload}: counts differ between identical runs"
    print(f"ok: {workload}: {len(runs[0])} counts non-zero and repeatable, verdicts unchanged")


def check_wrong_label_is_caught():
    bench = small_bench("generic", LayerTracer())
    item = bench.corpus[0][0]
    item["label"] = "Identity" if item["label"] != "Identity" else "RegularElliptic"
    out = bench.run_pass(0, 0)
    # the library answer and the CLI report both contradict the altered label
    assert out["tally"].unexpected == 2, out["tally"].reasons
    print("ok: a classification that contradicts its label is counted unexpected")


def check_malformed_report_is_caught():
    bench = small_bench("generic", LayerTracer())
    out = bench.run_pass(0, 0)
    assert out["tally"].unexpected == 0, out["tally"].reasons
    bench._verify("classification", "malformed", "[{}]", 1, out)  # verify exits 2
    assert out["tally"].unexpected == 1, out["tally"].reasons
    print("ok: a report that verify cannot parse is counted unexpected")


def main():
    check_patch_covers_every_namespace()
    for workload in workloads.WORKLOADS:
        check_workload(workload)
    check_wrong_label_is_caught()
    check_malformed_report_is_caught()
    print("selftest passed")


if __name__ == "__main__":
    main()
