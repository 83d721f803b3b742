"""The traced run: per-layer metrics, a layer sweep and the baseline rows.

Layers are the package modules: ``cli``, ``theorems``, ``lorentz``,
``objects``, ``models`` and ``generators`` (``rng`` runs only inside
``generators``).  The tracer wraps the public functions of each module,
plus the object constructors, in every module namespace that refers to
them, and records one span per call: stage, start, end, parent span and
operation id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus its direct children's.  The tiny per-pair
helpers (``lorentz.inner`` and friends, the ``objects`` pair functions)
are counted but not timed, because a span around a call of a few
microseconds would cost about as much as the call; their time lands in
the caller, which is what ``theorems.build_ms`` means to measure.

Timings here are totals per pass over the workload's operations.  The
end-to-end metrics are never taken from this run; ``trace.overhead`` is the
traced pass time divided by the untraced pass time, interleaved pass by pass.
"""

from __future__ import annotations

import importlib
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from lorentzgram import cli, generators, objects, theorems
from lorentzgram.generators import GenKind, GenSpec

import corpus
import harness

LAYERS = ("cli", "theorems", "lorentz", "objects", "models", "generators")
SHARE_LAYERS = ("cli", "theorems", "lorentz", "objects", "models")
COUNT_ONLY = {
    "lorentz.inner",
    "lorentz.norm_sq",
    "lorentz.as_vector",
    "lorentz.metric_diag",
    "lorentz.classify",
}
CONSTRUCTORS = (
    "HPoint",
    "Horosphere",
    "CoHyperplane",
    "Hypersphere",
    "EquidistantBranch",
    "CoSphereE",
    "EuclideanPlane",
)
# casey witness extraction has no public entry point of its own
EXTRA_SPANS = ("theorems._classify_from_kernel",)
BUILDERS = {
    "theorems.lambda_sq_matrix",
    "theorems.half_dist_matrix",
    "theorems.sigma_matrix",
    "theorems.tau_matrix",
}
TESTS = {
    "theorems.penner_test",
    "theorems.ptolemy1_test",
    "theorems.ptolemy2_test",
    "theorems.casey_test",
    "theorems.corollary_d_test",
}
CLASSIFIERS = {
    "theorems.ptolemy2_classify",
    "theorems.fit_umbilical",
    "theorems.casey_classify",
    "theorems.casey_witness_check",
    "theorems._classify_from_kernel",
}
REPORT = {"cli.cmd_verify", "cli.cmd_classify", "cli.cmd_relation", "cli.object_to_record"}
SWEEP_NS = (2, 3, 5, 8, 11)


class Tracer:
    """Spans and counters for calls into the package, installed by patching names."""

    def __init__(self):
        self.spans: list[list] = []  # [stage, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._undo: list[tuple] = []

    def _span(self, stage: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            rec = [stage, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapped

    def _count(self, stage: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[stage] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"lorentzgram.{layer}") for layer in LAYERS}
        replace = {}
        for layer, module in modules.items():
            for name, value in vars(module).items():
                stage = f"{layer}.{name}"
                defined_here = callable(value) and getattr(value, "__module__", None) == module.__name__
                if not defined_here or isinstance(value, type):
                    continue
                if name.startswith("_") and stage not in EXTRA_SPANS:
                    continue
                if stage in COUNT_ONLY or layer == "objects":
                    replace[value] = self._count(stage, value)
                else:
                    replace[value] = self._span(stage, value)
        # every namespace that imported a wrapped function by name
        for module in [importlib.import_module("lorentzgram"), *modules.values()]:
            for name, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type) and value in replace:
                    self._set(module, name, replace[value])
        for name in CONSTRUCTORS:
            cls = getattr(modules["objects"], name, None)
            if cls is not None and "__init__" in vars(cls):
                self._set(cls, "__init__", self._span(f"objects.{name}", vars(cls)["__init__"]))
        for name in ("eigh", "eigvalsh"):
            self._set(np.linalg, name, self._count("lorentz.eigensolves", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def summary(self) -> dict:
        """Self time per stage, inclusive time per stage group, span counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for stage, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        for i, (stage, start, end, _, _) in enumerate(spans):
            self_ms[stage] += (end - start - child_ns[i]) / 1e6
            calls[stage] += 1

        def inclusive(group) -> float:
            # outermost spans of the group only, so nested calls count once
            total = 0.0
            for stage, start, end, parent, _ in spans:
                if stage not in group:
                    continue
                p = parent
                while p >= 0 and spans[p][0] not in group:
                    p = spans[p][3]
                if p < 0:
                    total += (end - start) / 1e6
            return total

        return {"self_ms": self_ms, "calls": calls, "inclusive": inclusive}


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e3


def _median_ms(repeats: int, fn, *args, **kwargs) -> float:
    return statistics.median(_timed(fn, *args, **kwargs) for _ in range(repeats))


def untraced_pass(ws, gate) -> tuple[float, float]:
    """Time every operation once; also the sign search share of the same scenes.

    The sign search time of a scene is its test with search on minus the
    same test with search off.
    """
    total = search = 0.0
    for item in ws.items:
        t0 = time.perf_counter()
        data, _, _ = harness.run_op(ws.directory, item)
        total += (time.perf_counter() - t0) * 1e3
        gate.check(data == ws.reference[item.name], f"untraced {item.name} bytes changed")
        # a scene the program rejected is already counted as failed
        if item.search and item.op != "relation" and ws.reference_code[item.name] != 2:
            scene, _ = cli.load_scene(str(corpus.scene_path(ws.directory, item)))
            test = {"casey": theorems.casey_test, "casey_e": theorems.corollary_d_test}.get(scene.theorem)
            if test is not None:
                on = _timed(test, scene.objects, harness.TOL, search=True)
                off = _timed(test, scene.objects, harness.TOL, search=False)
                search += max(on - off, 0.0)
    return total, search


def traced_pass(ws, gate, tracer: Tracer) -> float:
    """Run every operation under the tracer; return the summed operation time."""
    total = 0.0
    tracer.install()
    try:
        for item in ws.items:
            tracer.op = item.name
            t0 = time.perf_counter()
            data, _, _ = harness.run_op(ws.directory, item)
            total += (time.perf_counter() - t0) * 1e3
            gate.check(data == ws.reference[item.name], f"traced {item.name} bytes changed")
    finally:
        tracer.uninstall()
        tracer.op = None
    return total


def _signed_matrix(theorem: str, objs: list, signs: list) -> np.ndarray:
    if theorem == "casey":
        return theorems.sigma_matrix([objects.CoHyperplane(s * h.normal) for s, h in zip(signs, objs)])
    return theorems.tau_matrix([sph.with_eps(s * sph.eps) for s, sph in zip(signs, objs)])


def sign_counts(ws) -> dict:
    """Exact sign-search counts from the public matrix builders and degeneracy.

    Every coorientation assignment with the first object held fixed is
    rebuilt and tested, as the theorems' search enumerates them.
    """
    assignments = degenerate = multi = 0
    for item in ws.items:
        if not item.search or item.op == "relation" or ws.reference_code[item.name] == 2:
            continue
        scene, _ = cli.load_scene(str(corpus.scene_path(ws.directory, item)))
        if scene.theorem not in ("casey", "casey_e"):
            continue
        m = len(scene.objects)
        found = 0
        for k in range(1 << (m - 1)):
            signs = [1] + [-1 if (k >> (m - 1 - i)) & 1 else 1 for i in range(1, m)]
            matrix = _signed_matrix(scene.theorem, scene.objects, signs)
            found += theorems.degeneracy(matrix, harness.TOL).is_degenerate
        assignments += 1 << (m - 1)
        degenerate += found
        multi += found > 1
    return {
        "theorems.sign_assignments": assignments,
        "theorems.sign_degenerate": degenerate,
        "theorems.sign_multi_degenerate": multi,
    }


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import lorentzgram.cli; t2 = time.perf_counter(); print((t1 - t0) * 1e3, (t2 - t1) * 1e3)"
)


def import_times(ws, repeats: int = 3) -> tuple[float, float]:
    """Median fresh-process import time of numpy, then of lorentzgram.cli on top, in ms."""
    numpy_ms, package_ms = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=ws.env, cwd=ws.root, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        numpy_ms.append(float(out[0]))
        package_ms.append(float(out[1]))
    return statistics.median(numpy_ms), statistics.median(package_ms)


def _sweep_scene(directory: Path, kind: GenKind, n: int, seed: int):
    config = generators.generate(GenSpec(kind, n, seed=seed))
    path = directory / f"{kind.value}_n{n}.json"
    path.write_text(cli.canonical_json(cli.config_to_scene_doc(config)))
    return path


def sweep(ws, gate, seed: int) -> dict:
    """Each stage timed alone at n in SWEEP_NS, plus the ROADMAP baseline rows."""
    directory = ws.work / "sweep"
    directory.mkdir()
    out = {}
    kinds = {
        "penner": GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY,
        "ptolemy2": GenKind.POINTS_ON_HYPERSPHERE,
        "casey": GenKind.HYPERPLANES_TANGENT_AT_INFINITY,
        "casey_e": GenKind.SPHERES_TANGENT_TO_CIRCLE,
    }
    builders = {
        "penner": theorems.lambda_sq_matrix,
        "ptolemy2": theorems.half_dist_matrix,
        "casey": theorems.sigma_matrix,
        "casey_e": theorems.tau_matrix,
    }
    for n in SWEEP_NS:
        paths = {t: _sweep_scene(directory, k, n, seed + n) for t, k in kinds.items()}
        scenes = {t: cli.load_scene(str(p)) for t, p in paths.items()}
        objs = {t: s.objects for t, (s, _) in scenes.items()}
        big = n >= 8  # one repeat where a single call takes 100 ms or more
        reps = 1 if big else 5
        # search off: the report has the same shape, and casey_e at n=11 would search for seconds
        docs = [cli.cmd_classify(s, d, harness.TOL, False)[0] for s, d in scenes.values()]
        stage = {
            "load": statistics.fmean(_median_ms(5, cli.load_scene, str(p)) for p in paths.values()),
            "build": statistics.fmean(_median_ms(5, builders[t], objs[t]) for t in kinds),
            "degeneracy": _median_ms(5, theorems.degeneracy, theorems.half_dist_matrix(objs["ptolemy2"])),
            "sign_search.casey": max(
                _median_ms(3, theorems.casey_test, objs["casey"], search=True)
                - _median_ms(3, theorems.casey_test, objs["casey"], search=False),
                0.0,
            ),
            "sign_search.casey_e": max(
                _median_ms(reps, theorems.corollary_d_test, objs["casey_e"], search=True)
                - _median_ms(reps, theorems.corollary_d_test, objs["casey_e"], search=False),
                0.0,
            ),
            "classify": _median_ms(5, theorems.ptolemy2_classify, objs["ptolemy2"]),
            "emit": statistics.fmean(_median_ms(5, cli.canonical_json, d) for d in docs),
        }
        for name, value in stage.items():
            out[f"sweep.{name}_ms.n{n}"] = value

    penner8 = _sweep_scene(directory, kinds["penner"], 8, seed + 100)
    horos = cli.load_scene(str(penner8))[0].objects
    penner_ms = _median_ms(5, theorems.penner_test, horos)
    out["baseline.penner_ms.n8"] = penner_ms
    out["baseline.penner.lambda_sq_share.n8"] = _median_ms(5, theorems.lambda_sq_matrix, horos) / penner_ms
    for n in (9, 11, 13):
        path = _sweep_scene(directory, kinds["casey"], n, seed + 200 + n)
        out[f"baseline.casey_search_ms.n{n}"] = _timed(
            theorems.casey_test, cli.load_scene(str(path))[0].objects, search=True
        )
    path = _sweep_scene(directory, kinds["casey_e"], 9, seed + 309)
    out["baseline.corollary_d_ms.n9"] = _timed(
        theorems.corollary_d_test, cli.load_scene(str(path))[0].objects, search=True
    )

    verify_ms = []
    for _ in range(3):
        wall, code, _, _ = ws.child(["verify", str(penner8)])
        verify_ms.append(wall * 1e3)
        gate.check(code == 0, f"baseline verify process exit {code}, expected 0")
    out["baseline.verify_process_ms"] = statistics.median(verify_ms)

    # the ROADMAP's 624-scene corpus: 13 kinds x n=2,3,4 x 16 seeds
    batch_dir = directory / "batch624"
    corpus.write_corpus(corpus.roadmap624_items(seed), batch_dir)
    shutil.rmtree(batch_dir / "relation")
    wall, code, _, _ = ws.child(harness.batch_argv(batch_dir, True))
    gate.check(code == 1, f"baseline batch exit {code}, expected 1")
    out["baseline.batch624_s"] = wall
    shutil.rmtree(directory)
    return out


def traced_run(ws, gate, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics for one workload; see the module docstring."""
    start = time.perf_counter()
    calib = [harness.calib_ms()]
    out = {}

    numpy_ms, package_ms = import_times(ws)
    out["import.numpy_ms"] = numpy_ms
    out["import.lorentzgram_ms"] = package_ms
    out["baseline.import_ms"] = numpy_ms + package_ms

    kind_ms = {}
    gen_dir = ws.work / "gen"
    digest = corpus.write_corpus(ws.items, gen_dir, kind_ms)
    shutil.rmtree(gen_dir)
    gate.check(digest == ws.digest, "traced set-up: corpus digest changed")
    for kind in GenKind:
        out[f"generators.generate_ms.{kind.value}"] = kind_ms.get(kind.value, 0.0)
    calib.append(harness.calib_ms())

    out.update(sign_counts(ws))
    out.update(sweep(ws, gate, ws.seed))
    calib.append(harness.calib_ms())

    tracer = Tracer()
    untraced, traced, search = [], [], []
    while not traced or time.perf_counter() - start < seconds:
        total, search_ms = untraced_pass(ws, gate)
        untraced.append(total)
        search.append(search_ms)
        traced.append(traced_pass(ws, gate, tracer))
        calib.append(harness.calib_ms())
    passes = len(traced)

    s = tracer.summary()
    self_ms, inclusive = s["self_ms"], s["inclusive"]
    per_pass = lambda v: v / passes
    traced_ms = statistics.fmean(traced)
    untraced_ms = statistics.fmean(untraced)
    layer_self = {layer: sum(v for k, v in self_ms.items() if k.startswith(layer + ".")) for layer in LAYERS}
    constructed = sum(s["calls"][f"objects.{name}"] for name in CONSTRUCTORS)
    out.update({
        "cli.load_ms": per_pass(inclusive({"cli.load_scene"})),
        "cli.report_ms": per_pass(sum(self_ms[k] for k in REPORT)),
        "cli.emit_ms": per_pass(inclusive({"cli.canonical_json"})),
        "models.convert_ms": per_pass(layer_self["models"]),
        "objects.construct_ms": per_pass(layer_self["objects"]),
        "objects.constructed": per_pass(constructed),
        "theorems.build_ms": per_pass(inclusive(BUILDERS)),
        "theorems.build.share": per_pass(inclusive(BUILDERS)) / traced_ms,
        "lorentz.inner_calls": per_pass(tracer.counts["lorentz.inner"]),
        "lorentz.codim1_ms": per_pass(inclusive({"lorentz.codim1_test"})),
        "lorentz.degeneracy_ms": per_pass(inclusive({"lorentz.degeneracy"})),
        "lorentz.eigensolves": per_pass(tracer.counts["lorentz.eigensolves"]),
        "theorems.test_ms": per_pass(sum(self_ms[k] for k in TESTS)),
        "theorems.classify_ms": per_pass(inclusive(CLASSIFIERS)),
        "theorems.sign_search_ms": statistics.fmean(search),
        "theorems.sign_search.share": statistics.fmean(search) / untraced_ms,
        "host.calib_ms": statistics.median(calib),
        "trace.overhead": traced_ms / untraced_ms,
    })
    for layer in SHARE_LAYERS:
        out[f"{layer}.share"] = per_pass(layer_self[layer]) / traced_ms

    info = {
        "passes": passes,
        "elapsed_s": time.perf_counter() - start,
        "untraced_pass_ms": untraced,
        "traced_pass_ms": traced,
        "spans": len(tracer.spans),
        "calib_ms": calib,
    }
    return {k: {"value": harness.finite(v), "unit": unit_of(k)} for k, v in out.items()}, info


def unit_of(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "share" in name or name.endswith("overhead"):
        return "ratio"
    return "count"
