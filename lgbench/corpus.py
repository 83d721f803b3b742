"""Workload corpora: which scenes each workload holds and what they must return.

Every scene is generated from the workload seed through the package's own
generators, so equal seeds give byte-equal corpora.  The expected exit code
of each operation follows from how its scene was built: degenerate kinds
exit 0, ``generic_*`` kinds exit 1, n+1-point ptolemy1 scenes exit 1 (n+1
points on a horosphere or hypersphere span no common hyperplane in
general), and four-point relation scenes at n=2 exit 0 (four points on a
common curve satisfy the chord relation).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from lorentzgram import cli, generators
from lorentzgram.generators import GenKind, GenSpec

ALL_KINDS = tuple(GenKind)
POINT_SURFACE_KINDS = (
    GenKind.POINTS_ON_HOROSPHERE,
    GenKind.POINTS_ON_HYPERSPHERE,
    GenKind.POINTS_ON_HYPERPLANE,
    GenKind.POINTS_ON_EQUIDISTANT,
)
PTOLEMY1_KINDS = (GenKind.POINTS_ON_HOROSPHERE, GenKind.POINTS_ON_HYPERSPHERE)
PENNER_KINDS = (GenKind.HOROSPHERES_ON_HYPERPLANE_BOUNDARY, GenKind.GENERIC_HOROSPHERES)
CASEY_KINDS = (
    GenKind.HYPERPLANES_TANGENT_AT_INFINITY,
    GenKind.HYPERPLANES_COMMON_IDEAL_POINT,
    GenKind.HYPERPLANES_ORTH_EQUAL,
    GenKind.GENERIC_HYPERPLANES,
)
CASEY_E_KINDS = (GenKind.SPHERES_TANGENT_TO_CIRCLE, GenKind.SPHERES_THROUGH_POINT)

WORKLOADS = ("small-mixed", "search-heavy", "wide-nosearch")


@dataclass(frozen=True)
class Item:
    """One scene of a corpus and the single operation run on it."""

    name: str  # file name inside the corpus directory
    kind: GenKind
    n: int
    count: int
    seed: int
    disk: bool  # scene written with ball-model records
    relation: bool  # scene doc rewritten as a four-point relation scene
    op: str  # "verify", "classify" or "relation"
    search: bool
    expected: int  # exit code the operation must return

    @property
    def in_batch(self) -> bool:
        """verify --scenes-dir accepts every scene except relation scenes."""
        return not self.relation


def _expected(kind: GenKind, n: int, count: int, relation: bool) -> int:
    if relation:
        return 0
    if kind.value.startswith("generic_"):
        return 1
    if kind in PTOLEMY1_KINDS and count == n + 1:
        return 1
    return 0


def _scene_seed(seed: int, index: int) -> int:
    # distinct, reproducible generator seeds per scene; the workload seed
    # only moves the geometry, never the corpus composition
    return (seed * 1_000_003 + index * 7919) % (1 << 62)


def workload_items(workload: str, seed: int) -> list[Item]:
    """Scenes and operations of one workload, in the order they are run."""
    plan = []  # (kind, n, count, relation, search)
    if workload == "small-mixed":
        for n in (2, 3, 4):
            # casey_e at n=4 is bound by its sign search, which rebuilds the
            # sphere family once per assignment; search-heavy covers it from n=5
            kinds = [k for k in ALL_KINDS if not (n == 4 and k in CASEY_E_KINDS)]
            for kind in kinds:
                plan += [(kind, n, generators.default_count(kind, n), False, True)] * 16
            for kind in PTOLEMY1_KINDS:
                plan += [(kind, n, n + 1, False, True)] * 4
        for kind in POINT_SURFACE_KINDS:
            plan += [(kind, 2, 4, True, True)] * 4
    elif workload == "search-heavy":
        for n in (8, 9, 10, 11):
            plan += [(kind, n, n + 1, False, True) for kind in CASEY_KINDS]
        for n in (5, 6, 7, 8):
            plan += [(kind, n, n + 2, False, True) for kind in CASEY_E_KINDS]
    elif workload == "wide-nosearch":
        # four rounds of kinds, so that a batch process spends more of its
        # time on scenes than on its import
        for _ in range(4):
            for n in (8, 11, 14):
                kinds = list(PENNER_KINDS) + list(POINT_SURFACE_KINDS)
                kinds += [GenKind.GENERIC_POINTS] + list(CASEY_E_KINDS)
                # the generic_hyperplanes generator is itself a 2^m search
                kinds += CASEY_KINDS if n <= 10 else CASEY_KINDS[:3]
                plan += [(k, n, generators.default_count(k, n), False, False) for k in kinds]
                plan += [(k, n, n + 1, False, False) for k in PTOLEMY1_KINDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return _items(plan, seed)


def roadmap624_items(seed: int) -> list[Item]:
    """The ROADMAP's baseline batch corpus: 13 kinds x n=2,3,4 x 16 scenes."""
    plan = [
        (kind, n, generators.default_count(kind, n), False, True)
        for n in (2, 3, 4)
        for kind in ALL_KINDS
        for _ in range(16)
    ]
    return _items(plan, seed)


def _items(plan: list[tuple], seed: int) -> list[Item]:
    items = []
    for index, (kind, n, count, relation, search) in enumerate(plan):
        op = "relation" if relation else ("verify", "classify")[(index // 2) % 2]
        items.append(
            Item(
                name=f"{index:04d}_{kind.value}_n{n}.json",
                kind=kind,
                n=n,
                count=count,
                seed=_scene_seed(seed, index),
                disk=index % 2 == 1,
                relation=relation,
                op=op,
                search=search,
                expected=_expected(kind, n, count, relation),
            )
        )
    return items


def scene_bytes(item: Item) -> bytes:
    """generate -> config_to_scene_doc -> canonical_json for one item."""
    config = generators.generate(GenSpec(item.kind, item.n, seed=item.seed, count=item.count))
    doc = cli.config_to_scene_doc(
        config, disk=item.disk, meta={"kind": item.kind.value, "seed": item.seed}
    )
    if item.relation:
        doc["theorem"] = "relation"
    return (cli.canonical_json(doc) + "\n").encode("utf-8")


def write_corpus(items: list[Item], directory: Path, kind_ms: dict | None = None) -> str:
    """Write every scene of the corpus into directory; return its sha256 digest.

    Batch scenes go to directory itself and relation scenes to its
    ``relation`` subdirectory, which ``verify --scenes-dir`` does not read.
    When kind_ms is given, generation time per kind is added to it.
    """
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "relation").mkdir(exist_ok=True)
    digest = hashlib.sha256()
    for item in items:
        t0 = time.perf_counter()
        data = scene_bytes(item)
        if kind_ms is not None:
            key = item.kind.value
            kind_ms[key] = kind_ms.get(key, 0.0) + (time.perf_counter() - t0) * 1e3
        scene_path(directory, item).write_bytes(data)
        digest.update(item.name.encode("utf-8") + b"\0" + data)
    return digest.hexdigest()


def scene_path(directory: Path, item: Item) -> Path:
    return directory / item.name if item.in_batch else directory / "relation" / item.name
