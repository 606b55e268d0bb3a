"""One workload in its own process; started by run.py, which pins its threads.

Prints one JSON object as its last line: the set-up time, and either the
end-to-end figures (untraced) or the per-layer figures of one traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import CONSTRUCTORS, Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run_passes(workload, log, seconds):
    """Whole passes, as many as bring the measured time closest to ``seconds``
    (at least one); peak RSS is read after the first."""
    walls, builds = [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
        log.build_s = 0.0
        t = time.perf_counter()
        workload.run_pass(log)
        walls.append(time.perf_counter() - t)
        builds.append(log.build_s)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return walls, builds, peak_rss_mb


def layer_metrics(tracer, registry_live, traced_wall, untraced_wall):
    t = tracer
    candidates = t.counters["modules.hom_candidates"]
    valid = t.counters["modules.hom_valid"]
    constructors = [i for i, name in enumerate(t.names) if name in CONSTRUCTORS]
    values = {
        "dsl.self_s": (t.self_s("dsl."), "s"),
        "dsl.build_ring.total_s": (t.stat("dsl.build_ring", "total_s"), "s"),
        "rings.self_s": (t.self_s("rings."), "s"),
        "rings.construct.self_s": (sum(t.self_ns[i] for i in constructors) / 1e9, "s"),
        "rings.verify_ring_axioms.self_s": (t.stat("rings.verify_ring_axioms", "self_s"), "s"),
        "rings.verify_ring_axioms.triples": (t.counters["rings.verify_ring_axioms.triples"], "count"),
        "rings.verify_ring_axioms.sampled": (t.counters["rings.verify_ring_axioms.sampled"], "count"),
        "ideals.self_s": (t.self_s("ideals."), "s"),
        "ideals.ideal_generated.calls": (t.stat("ideals.ideal_generated", "calls"), "count"),
        "ideals.ideal_generated.self_s": (t.stat("ideals.ideal_generated", "self_s"), "s"),
        "ideals.is_simple_ring.total_s": (t.stat("ideals.is_simple_ring", "total_s"), "s"),
        "ideals.jacobson_radical.self_s": (t.stat("ideals.jacobson_radical", "self_s"), "s"),
        "ideals.one_sided_ideals.total_s": (t.stat("ideals.one_sided_ideals", "total_s"), "s"),
        "modules.self_s": (t.self_s("modules."), "s"),
        "modules.submodule_generated.calls": (t.stat("modules.submodule_generated", "calls"), "count"),
        "modules.submodule_generated.self_s": (t.stat("modules.submodule_generated", "self_s"), "s"),
        "modules.all_submodules.total_s": (t.stat("modules.all_submodules", "total_s"), "s"),
        "modules.lattice_size": (t.counters["modules.lattice_size"], "count"),
        "modules.hom_candidates": (candidates, "count"),
        "modules.hom_valid": (valid, "count"),
        "modules.hom_valid_ratio": (valid / candidates if candidates else 0.0, "ratio"),
        "modules.iter_hom_images.self_s": (t.stat("modules.iter_hom_images", "self_s"), "s"),
        "modules.iter_hom_images.random_draws": (t.counters["modules.iter_hom_images.random_draws"], "count"),
        "modules.hom_value_at.calls": (t.stat("modules.hom_value_at", "calls"), "count"),
        "modules.find_bijective_hom.total_s": (t.stat("modules.find_bijective_hom", "total_s"), "s"),
        "decompose.self_s": (t.self_s("decompose."), "s"),
        "decompose.primitive_decomposition.self_s": (t.stat("decompose.primitive_decomposition", "self_s"), "s"),
        "decompose.krull_schmidt.calls": (t.stat("decompose.krull_schmidt", "calls"), "count"),
        "decompose.krull_schmidt.self_s": (t.stat("decompose.krull_schmidt", "self_s"), "s"),
        "decompose.registry_live": (registry_live, "count"),
        "properties.self_s": (t.self_s("properties."), "s"),
        "properties.is_flat_module.self_s": (t.stat("properties.is_flat_module", "self_s"), "s"),
        "properties.checked_relations": (t.counters["properties.checked_relations"], "count"),
        "properties.is_projective_module.total_s": (t.stat("properties.is_projective_module", "total_s"), "s"),
        "properties.is_free_module.total_s": (t.stat("properties.is_free_module", "total_s"), "s"),
        "pp.self_s": (t.self_s("pp."), "s"),
        "pp.baur_monk_invariant.calls": (t.stat("pp.baur_monk_invariant", "calls"), "count"),
        "pp.witness_space": (t.counters["pp.witness_space"], "count"),
        "classify.self_s": (t.self_s("classify."), "s"),
        "classify.classify_ring.total_s": (t.stat("classify.classify_ring", "total_s"), "s"),
        "classify.recheck_ring_axioms.total_s": (t.stat("classify.recheck_ring_axioms", "total_s"), "s"),
        "corpus.self_s": (t.self_s("corpus."), "s"),
        "corpus.flat_projective_suite.total_s": (t.stat("corpus.flat_projective_suite", "total_s"), "s"),
        "corpus.multiplicativity_suite.total_s": (t.stat("corpus.multiplicativity_suite", "total_s"), "s"),
        "corpus.decomposition_determinism_suite.total_s": (
            t.stat("corpus.decomposition_determinism_suite", "total_s"),
            "s",
        ),
        "cli.self_s": (t.self_s("cli."), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1, "ratio"),
        "trace.coverage": (t.top_ns / 1e9 / traced_wall, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def registries(mc) -> int:
    cls = getattr(mc, "IndecomposableRegistry", None)
    gc.collect()
    return sum(isinstance(obj, cls) for obj in gc.get_objects()) if cls else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import modclass as mc

    root_src = HERE.parent / "src"
    if Path(mc.__file__).resolve().parent.parent != root_src.resolve():
        print(f"modclass imported from {mc.__file__}, not {root_src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](mc, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    log = workloads.OpLog(golden[args.workload])
    walls, builds, peak_rss_mb = run_passes(workload, log, args.seconds)
    run_s = statistics.median(walls)
    result = {
        "setup_s": setup_s,
        "passes": len(walls),
        "run_s": run_s,
        "build_s": statistics.median(builds),
        "op_p50_ms": percentile(log.latencies, 50) * 1e3,
        "op_p90_ms": percentile(log.latencies, 90) * 1e3,
        "ops_per_s": len(log.latencies) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }

    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        before = registries(mc)
        start = time.perf_counter()
        workload.run_pass(log)
        traced_wall = time.perf_counter() - start
        live = registries(mc) - before
        result["layers"] = layer_metrics(tracer, live, traced_wall, run_s)
        tracer.write(
            OUT / f"trace-{args.workload}-seed{args.seed}",
            {"workload": args.workload, "seed": args.seed, "traced_wall_s": traced_wall, "untraced_run_s": run_s},
        )
        tracer.reset()
        tracer.track_alloc = True
        workload.builds()
        tracer.uninstall()
        peak = tracer.peak_alloc / 2**20
        result["layers"]["rings.construct.peak_alloc_mb"] = {"value": peak, "unit": "MB"}

    control = log.negative_control()
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        errors=log.errors,
        negative_control=control,
        correct=log.failed == 0 and control,
    )
    (OUT / f"digests-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(log.digests, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
