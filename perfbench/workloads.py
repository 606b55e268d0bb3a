"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload reaches modclass through the package namespace (``mc.name``)
at call time, so the tracer's wrappers see every call.  A pass records each
step in an ``OpLog``: builds feed ``build_s``, operations feed the latency
percentiles, and every step's output digest is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np

# Half-scale versions of Z/4096, GF(256) and the 1024-element PolyQuot: the
# same mechanisms at a fifth of the cost, so a run holds several passes.
RING_SCALE_SPECS = (
    "Z/2048",
    "GF(128)",
    # x^9 + x^3 + 1 = (x^3 + x^2 + 1)(x^6 + x^5 + x^4 + x^2 + 1): GF(8) x GF(64).
    "PolyQuot(GF(2),[1,0,0,1,0,0,0,0,0,1])",
    "M(2,Z/4)",
)

# 48 distinct specs of size <= 32, drawn once from the recipe generator behind
# ``random_recipe_rings`` (seed 0) and frozen, so every seed does the same work.
SWEEP_SMALL_SPECS = (
    "GF(3) x PolyQuot(GF(2),[0,0,1])",
    "Z/4 x Z/2 x GF(4)",
    "PolyQuot(Z/4,[2,0,1])",
    "GF(13)",
    "T(2,GF(2))",
    "Z/25",
    "M(2,GF(2))",
    "Z/4 x Z/5",
    "Z/11",
    "GF(5)",
    "GF(2)",
    "Z/5",
    "Z/22",
    "PolyQuot(GF(3),[1,1,2,1])",
    "GF(9) x GF(3)",
    "T(2,GF(2)) x Z/2",
    "PolyQuot(GF(2),[0,1,1]) x GF(2) x Z/4",
    "PolyQuot(GF(2),[1,1,0,1,1])",
    "GF(4)",
    "Z/4 x T(2,GF(2))",
    "Z/4",
    "PolyQuot(GF(2),[1,0,0,1,0,1])",
    "Z/28",
    "GF(16)",
    "Z/10 x Z/3",
    "Z/31",
    "Z/21",
    "GF(2) x GF(3) x Z/3",
    "Z/17",
    "PolyQuot(GF(3),[1,2,1]) x Z/2",
    "Z/15",
    "Z/8 x Z/2 x Z/2",
    "PolyQuot(GF(3),[1,1,1]) x Z/3",
    "Z/14",
    "PolyQuot(Z/4,[2,2,1])",
    "Z/3 x Z/8",
    "T(2,GF(2)) x GF(2) x Z/2",
    "Z/32",
    "PolyQuot(GF(2),[1,0,1,1]) x Z/2",
    "Z/29",
    "GF(2) x Z/2 x Z/6",
    "GF(3)",
    "Z/30",
    "PolyQuot(GF(2),[1,0,1])",
    "Z/2 x GF(13)",
    "PolyQuot(GF(2),[1,1,0,1])",
    "Z/2 x Z/15",
    "Z/9",
)

# Larger rings, up to 512 elements.  Fields of 256 or more elements stay out:
# their classification alone would dominate the pass.
SWEEP_LARGE_SPECS = (
    "Z/8 x M(2,GF(2))",
    "T(2,GF(4))",
    "GF(4) x T(2,GF(2)) x Z/9",
    "PolyQuot(Z/4,[2,0,1]) x Z/27",
    "T(2,GF(3)) x Z/12",
    "GF(8) x GF(9) x Z/5",
    "M(2,GF(3)) x Z/4",
    "Z/512",
)

CHECK_PAPER_SEEDS = 3
CORPUS_BUILDS = 40


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def table_digest(ring) -> dict:
    table = np.asarray(ring.mul_table, dtype=np.int64)
    return {
        "orders": list(ring.orders),
        "one": int(ring.one),
        "table": hashlib.sha256(table.tobytes()).hexdigest()[:16],
    }


class OpLog:
    """Timing, failure count and digest check for every step of a run.

    ``expected`` maps step keys to golden digests.  A step fails when it
    raises, when its own consistency check raises, or when its digest differs
    from the expected one.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.digests: dict[str, str] = {}
        self.build_s = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _step(self, key, func, describe):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = func()
        except Exception as exc:  # any exception is a failed operation
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        try:
            view = describe(result)
        except Exception as exc:
            self.fail(key, f"check {type(exc).__name__}: {exc}")
            return None, elapsed
        self.record(key, view)
        return result, elapsed

    def build(self, key, func, describe):
        result, elapsed = self._step(key, func, describe)
        if elapsed is not None:
            self.build_s += elapsed
        return result

    def op(self, key, func, describe):
        result, elapsed = self._step(key, func, describe)
        if elapsed is not None:
            self.latencies.append(elapsed)
        return result

    def record(self, key: str, view) -> None:
        """Digest ``view`` under ``key``, or several digests if it is a dict of them."""
        views = view if isinstance(view, Views) else {key: view}
        for name, value in views.items():
            self.digests[name] = digest(value)
            if not matches(self.expected, name, self.digests[name]):
                self.fail(name, f"digest {self.digests[name]} != expected {self.expected[name]}")

    def fail(self, key: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {message}")

    def negative_control(self) -> bool:
        """A corrupted expected digest must be counted as one failure."""
        shared = sorted(k for k in self.digests if k in self.expected)
        if not shared:
            return False
        key = shared[len(shared) // 2]
        corrupted = dict(self.expected)
        corrupted[key] = "0" * 16 if corrupted[key] != "0" * 16 else "f" * 16
        misses = sum(not matches(corrupted, k, d) for k, d in self.digests.items())
        return misses == 1


class Views(dict):
    """Several named digests produced by one step."""


def matches(expected: dict, key: str, value: str) -> bool:
    return key not in expected or expected[key] == value


def summary_view(report) -> dict:
    return report.to_dict()


# -- ring-scale ------------------------------------------------------------------


class RingScale:
    """Few large rings, up to 2048 elements; the seed sets the order."""

    name = "ring-scale"

    def __init__(self, mc, seed: int):
        self.mc = mc
        rng = np.random.default_rng(seed)
        self.specs = [RING_SCALE_SPECS[i] for i in rng.permutation(len(RING_SCALE_SPECS))]

    def run_pass(self, log: OpLog) -> None:
        mc = self.mc
        for spec in self.specs:
            ring = log.build(f"build:{spec}", lambda: mc.build_ring(spec), table_digest)
            if ring is not None:
                log.op(f"classify:{spec}", lambda: mc.classify_ring(ring), summary_view)
            del ring

    def builds(self) -> None:
        for spec in self.specs:
            self.mc.build_ring(spec)


# -- check-paper ---------------------------------------------------------------------


class CheckPaper:
    """``modclass check-paper --seeds 3`` in-process, with seeds (s, s+1, s+2).

    The CLI derives its determinism seeds as 1..n, so the benchmark shifts
    them by s - 1 at the CLI's own binding of ``run_meta_suite``; s = 1 runs
    the CLI unchanged.  The shim keeps the returned ``SuiteResult`` for the
    output check.
    """

    name = "check-paper"

    def __init__(self, mc, seed: int):
        import modclass.cli
        import modclass.corpus

        self.mc = mc
        self.cli = modclass.cli
        self.results: list = []
        offset = seed - 1
        corpus = modclass.corpus

        def shifted_meta_suite(*args, seeds, **kwargs):
            result = corpus.run_meta_suite(*args, seeds=tuple(s + offset for s in seeds), **kwargs)
            self.results.append(result)
            return result

        self.cli.run_meta_suite = shifted_meta_suite

    def _check_paper(self):
        self.results.clear()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = self.cli.main(["check-paper", "--seeds", str(CHECK_PAPER_SEEDS)])
        if code != 0 or len(self.results) != 1:
            raise RuntimeError(f"check-paper exited {code}:\n{out.getvalue()[-2000:]}")
        return self.results[0]

    @staticmethod
    def _describe(result):
        sections = [[m.name, m.checked, m.ok, len(m.findings)] for m in result.meta]
        bad = [s for s in sections if not s[2]]
        if bad or not result.ok:
            raise RuntimeError(f"violated sections: {bad}")
        return Views(
            {
                "check-paper:sections": sections,
                "check-paper:reports": [r.to_dict() for r in result.reports],
            }
        )

    def _build_corpus(self, log: OpLog, times: int) -> None:
        mc = self.mc
        for _ in range(times):
            log.build("build:corpus", lambda: mc.builtin_corpus(mc.DEFAULTS), lambda rings: [table_digest(r) for r in rings])

    def run_pass(self, log: OpLog) -> None:
        # Half the corpus builds before and half after the long CLI call, so
        # these short timings sample the whole pass.
        self._build_corpus(log, CORPUS_BUILDS // 2)
        log.op("check-paper", self._check_paper, self._describe)
        self._build_corpus(log, CORPUS_BUILDS - CORPUS_BUILDS // 2)

    def builds(self) -> None:
        self.mc.builtin_corpus(self.mc.DEFAULTS)


# -- module-sweep ----------------------------------------------------------------------


def struct_consts(ring) -> dict:
    """The struct-const tables of ``ring``, as an untrusted caller would pass them."""
    return {"orders": list(ring.orders), "one": int(ring.one), "table": np.array(ring.mul_table, dtype=np.int64)}


class ModuleSweep:
    """Many small rings built from untrusted struct-const tables, one after another.

    Each ring is validated, classified, and its regular and corpus test
    modules are profiled.  The seed sets the order, so the work per seed
    stays the same.
    """

    name = "module-sweep"

    def __init__(self, mc, seed: int):
        self.mc = mc
        rng = np.random.default_rng(seed)
        specs = SWEEP_SMALL_SPECS + SWEEP_LARGE_SPECS
        self.inputs = [(specs[i], struct_consts(mc.build_ring(specs[i]))) for i in rng.permutation(len(specs))]

    def _build(self, spec, data):
        ring = self.mc.struct_const_from_dict(data, label=f"SC<{spec}>", cfg=self.mc.DEFAULTS)
        if not np.array_equal(ring.mul_table, data["table"]) or ring.one != data["one"]:
            raise RuntimeError(f"{spec}: built ring differs from its tables")
        return ring

    def _classify(self, ring):
        mc = self.mc
        report = mc.classify_ring(ring, mc.DEFAULTS)
        modules = {}
        for module in [mc.regular_module(ring, mc.DEFAULTS)] + mc.corpus_test_modules(ring, mc.DEFAULTS):
            modules.setdefault(module.label, module)
        return report, list(modules.values())

    def _profile(self, module):
        mc = self.mc
        cfg = mc.DEFAULTS
        flat = mc.is_flat_module(module, cfg=cfg)
        return {
            "label": module.label,
            "size": module.size,
            "free": bool(mc.is_free_module(module, cfg)),
            "projective": bool(mc.is_projective_module(module, cfg)),
            "flat": bool(flat.value),
            "flat_exact": bool(flat.exact),
            "signature": [list(p) for p in mc.krull_schmidt(module, cfg).sizes()],
            "invariants": [
                mc.baur_monk_invariant(module, phi, psi, cfg).index for phi, psi in mc.library_pairs(module.ring)
            ],
        }

    @staticmethod
    def _check_profile(profile: dict) -> dict:
        if profile["free"] and not profile["projective"]:
            raise RuntimeError("free but not projective")
        if profile["flat_exact"] and profile["flat"] != profile["projective"]:
            raise RuntimeError("exact flatness disagrees with projectivity")
        if math.prod(size**mult for size, mult in profile["signature"]) != profile["size"]:
            raise RuntimeError("Krull-Schmidt summands do not multiply to the module size")
        if min(profile["invariants"], default=1) < 1:
            raise RuntimeError("invariant index below 1")
        return profile

    def run_pass(self, log: OpLog) -> None:
        for spec, data in self.inputs:
            ring = log.build(f"build:{spec}", lambda: self._build(spec, data), table_digest)
            if ring is None:
                continue
            classified = log.op(f"classify:{spec}", lambda: self._classify(ring), lambda out: summary_view(out[0]))
            if classified is None:
                continue
            for i, module in enumerate(classified[1]):
                log.op(f"profile:{spec}:{i}", lambda: self._profile(module), self._check_profile)

    def builds(self) -> None:
        for spec, data in self.inputs:
            self._build(spec, data)


WORKLOADS = {cls.name: cls for cls in (RingScale, CheckPaper, ModuleSweep)}
