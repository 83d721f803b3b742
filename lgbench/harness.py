"""Operations, the correctness gate and child processes, shared by both runs.

An operation is one scene plus one command, run along the path the
``verify --scenes-dir`` batch takes per scene: ``load_scene`` ->
``cmd_verify``/``cmd_classify``/``cmd_relation`` -> ``canonical_json``.
It is not run through ``cli.main()``, whose argument parser costs about a
millisecond per call and is paid once per process, which the fresh-process
metrics already count.  Functions are looked up on their modules at call
time so that a traced run sees the wrappers it installs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lorentzgram import cli, lorentz
from lorentzgram.errors import GeometryError

import corpus

TOL = lorentz.DEFAULT_TOL


def run_op(directory: Path, item: corpus.Item) -> tuple[bytes, int, dict]:
    """One warm in-process operation: canonical report bytes, exit code, report.

    A scene the program rejects gives the error report and exit code 2,
    as ``cli.main`` and the batch give them.
    """
    try:
        scene, digest = cli.load_scene(str(corpus.scene_path(directory, item)))
        if item.op == "verify":
            doc, code = cli.cmd_verify(scene, digest, TOL, item.search)
        elif item.op == "classify":
            doc, code = cli.cmd_classify(scene, digest, TOL, item.search)
        else:
            doc, code = cli.cmd_relation(scene, digest, TOL)
        data = cli.canonical_json(doc)
    except (GeometryError, OSError) as exc:
        doc, code = error_doc(exc), 2
        data = cli.canonical_json(doc)
    return (data + "\n").encode("utf-8"), code, doc


def verify_bytes(directory: Path, item: corpus.Item) -> bytes:
    """Report bytes of a plain ``verify`` of the item's scene, as the batch runs it."""
    try:
        scene, digest = cli.load_scene(str(corpus.scene_path(directory, item)))
        doc, _ = cli.cmd_verify(scene, digest, TOL, item.search)
        return cli.canonical_json(doc).encode("utf-8")
    except (GeometryError, OSError) as exc:
        return cli.canonical_json(error_doc(exc)).encode("utf-8")


def error_doc(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def op_argv(directory: Path, item: corpus.Item) -> list[str]:
    """Arguments of the fresh ``python -m lorentzgram.cli`` process for one operation."""
    argv = [item.op, str(corpus.scene_path(directory, item))]
    if item.op != "relation" and not item.search:
        argv.append("--no-search-signs")
    return argv


def batch_argv(directory: Path, search: bool) -> list[str]:
    argv = ["verify", "--scenes-dir", str(directory)]
    if not search:
        argv.append("--no-search-signs")
    return argv


@dataclass
class Gate:
    """Counts checks attempted and failed; prints each failure on stderr."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {message}", file=sys.stderr)


def gate_report(item: corpus.Item, code: int, doc: dict) -> str | None:
    """Why one report breaks the expectations its scene was built with, or None."""
    if code != item.expected:
        return f"exit code {code}, expected {item.expected}"
    if item.op == "classify":
        check = doc.get("witness_check")
        needs_check = item.expected == 0 and doc.get("theorem") in ("casey", "casey_e")
        if needs_check and check is None:
            return "degenerate classify report has no witness_check"
        if check is not None and check.get("passed") is not True:
            return f"witness_check failed: {check.get('failures')}"
    return None


class Workspace:
    """A generated corpus plus the reference results every repeat must match."""

    def __init__(self, workload: str, seed: int, root: Path, src: Path, work: Path):
        self.seed = seed
        self.items = corpus.workload_items(workload, seed)
        self.root = root
        self.work = work
        self.directory = work / "corpus"
        self.digest = corpus.write_corpus(self.items, self.directory)
        self.batch_items = [it for it in self.items if it.in_batch]
        self.search = self.items[0].search
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.reference: dict[str, bytes] = {}
        self.reference_code: dict[str, int] = {}
        self.verify_reference: dict[str, bytes] = {}

    def build_reference(self, gate: Gate) -> None:
        """Run every operation once in process, gate it and keep its bytes."""
        for item in self.items:
            data, code, doc = run_op(self.directory, item)
            problem = gate_report(item, code, doc)
            gate.check(problem is None, f"{item.name} {item.op}: {problem}")
            self.reference[item.name] = data
            self.reference_code[item.name] = code
            if item.in_batch:
                self.verify_reference[item.name] = (
                    data.rstrip(b"\n") if item.op == "verify" else verify_bytes(self.directory, item)
                )

    def check_batch(self, gate: Gate, code: int, stdout: bytes) -> None:
        """Each batch entry must equal the single-scene verify report."""
        worst = max(it.expected for it in self.batch_items)
        try:
            reports = json.loads(stdout)["reports"]
        except (ValueError, KeyError, TypeError) as exc:
            gate.check(False, f"batch output unreadable: {exc}")
            return
        gate.check(code == worst, f"batch exit code {code}, expected {worst}")
        for item in self.batch_items:
            got = reports.get(item.name)
            same = got is not None and cli.canonical_json(got).encode("utf-8") == (
                self.verify_reference[item.name]
            )
            gate.check(same, f"batch entry {item.name} differs from its verify report")

    def child(self, argv: list[str]) -> tuple[float, int, bytes, float]:
        """Run ``python -m lorentzgram.cli argv`` alone; wall s, exit code, stdout, peak RSS MB."""
        out_path = self.work / "child.out"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "lorentzgram.cli", *argv],
                stdout=out,
                stderr=subprocess.DEVNULL,
                env=self.env,
                cwd=self.root,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0


_CALIB_MATRIX = np.add.outer(np.arange(8.0), np.arange(8.0)) + np.diag(np.arange(1.0, 9.0))


def calib_ms() -> float:
    """Time one fixed unit of pure Python plus small eigvalsh calls, in ms.

    The unit never changes, so its drift across a run is the host's drift.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(50):
        np.linalg.eigvalsh(_CALIB_MATRIX)
    return (time.perf_counter() - t0) * 1e3


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(root: Path, src: Path) -> dict:
    """Host and build facts that explain the numbers."""
    blas = "unknown"
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        ) if k in os.environ} or "default",
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric is not finite: {value}")
    return float(value)
