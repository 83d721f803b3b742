"""Command line interface over JSON scene documents.

A scene is a JSON object with fields:

* "schema": always "lorentz-gram/1"
* "dimension": ambient hyperbolic dimension (Euclidean dimension for
  sphere scenes), an integer >= 2
* "theorem": one of "penner", "ptolemy1", "ptolemy2", "casey", "casey_e",
  "relation" (optional when the command's --theorem flag names it; the
  flag wins when both are present)
* "objects": homogeneous list of records; "ptolemy1" also takes "surface"
* "meta": optional free-form map, carried along but never interpreted
  beyond an integer "seed" echoed into reports

A record is {"type": ...} and the fields of its object under their own
names: a "point" holds "coords", a "horosphere" "rep", a "hyperplane"
"normal", a "hypersphere" (surface only) "centre" (its coordinates) and
"radius", and the Euclidean "sphere_e" "centre", "radius" and "eps".
Ball-model forms of the vector are accepted interchangeably: {"ball"},
{"centre_dir", "scale"}, {"pole", "orientation"} or {"direction"}, and
{"ball_centre"} with the hypersphere's "radius".

Reports are emitted as canonical JSON (sorted keys, minimal separators)
on stdout.  Every report carries "command", "input_digest" (sha256 of
the scene's canonical JSON re-encoding, so reformatting a scene keeps
its digest), "tol", and a nested "verdict" block {"degenerate",
"det", "sigma_min", "sigma_max"}; classify adds a "case" block {"name",
"witnesses", "residual"} where one applies, and relation scenes nest
their quantities under "relation".  Passing --emit-disk to verify or
classify re-renders every object and witness in the report in
ball-model coordinates.  Exit status, for every command: 0 when the
tested family is degenerate, 1 when it is not, 2 on invalid input or
when no verdict is possible, 120 when stdout cannot be written.  --tol
decides the verdict alone; witnesses are read off at a fixed threshold
of 1e-9.  A degenerate family with no witness structure there reports a
null case ("case_kind", or "case" and ptolemy2's "fit") and NO_STRUCTURE
in "reason", and exits 0.

Each theorem is one row of the THEOREMS table: the record types its
objects may carry, one per scene, its object count at dimension n, and a
runner that calls the theorem test and returns the verdict with the
theorem's report fields.  Scene parsing, the --theorem choices and every
command read that table; relation is verify on a relation scene.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn, Optional, get_type_hints

import numpy as np

from .errors import GeometryError, NoReliableKernel, NormalSearchFailed, SchemaViolation
from .genkind import PARAM_KEYS, GenKind
from .lorentz import DEFAULT_TOL, degeneracy
from .models import ball_normals, ball_points, ball_reps
from .objects import (
    CoHyperplane,
    CoSphereE,
    EquidistantBranch,
    EuclideanPlane,
    Horosphere,
    HPoint,
    Hypersphere,
)
from .theorems import (
    CaseyCase,
    _ptolemy2_fit,
    casey_test,
    casey_witness_check,
    corollary_d_test,
    four_term_relation,
    half_dist_matrix,
    lambda_sq_matrix,
    penner_test,
    ptolemy1_test,
    ptolemy2_test,
    relation_tangents,
)

if TYPE_CHECKING:
    from .generators import Configuration

SCHEMA = "lorentz-gram/1"


# ---------------------------------------------------------------------------
# canonical JSON


def _json_default(value):
    # only what the C encoder cannot write itself; np.float64 is a float
    # and is written by float.__repr__ without reaching this hook
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    raise GeometryError(f"cannot serialize {type(value).__name__}")


# documents are trees; with check_circular on, a cycle would surface as a
# ValueError that canonical_json reports as a non-finite number
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    allow_nan=False,
    check_circular=False,
    default=_json_default,
)


def canonical_json(doc: dict) -> str:
    """Sorted keys, minimal separators, one pass of the C encoder."""
    try:
        return _ENCODER.encode(doc)
    except GeometryError:  # a ValueError itself, from _json_default
        raise
    except ValueError as exc:  # allow_nan=False: a NaN or infinity
        raise GeometryError("report contains a non-finite number") from exc


def _error_doc(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# scene parsing


def _fields(recs: list, key: str, where: str) -> list:
    try:
        return [rec[key] for rec in recs]  # dicts, as _form checked
    except KeyError:
        raise SchemaViolation(f"{where}: missing field {key!r}") from None


def _floats(values: list, length: int, where: str) -> np.ndarray:
    """The (k, length) float array of k lists of JSON numbers."""
    if not all(isinstance(v, list) for v in values):
        raise SchemaViolation(f"{where}: expected a list of numbers")
    # one type test for all the numbers; the element walk is for the lists
    # it misses, such as np.float64 elements from a caller
    if not {type(x) for v in values for x in v} <= {int, float} and not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for v in values for x in v
    ):
        raise SchemaViolation(f"{where}: expected a list of numbers")
    arr = np.array(values, dtype=float)  # ValueError when the lengths differ
    if not np.isfinite(arr).all():
        raise SchemaViolation(f"{where}: numbers must be finite")
    if arr.shape[1] != length:
        raise SchemaViolation(f"{where}: expected length {length}, got {arr.shape[1]}")
    return arr


def _scalars(recs: list, key: str, where: str, unit: bool = False) -> list:
    """Field key of each record: a finite number as float, or with unit the
    integer +1 or -1."""
    xs = _fields(recs, key, where)
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in xs):
        raise SchemaViolation(f"{where}: {key} must be a number")
    if unit:
        if not {*xs} <= {1, -1}:
            raise SchemaViolation(f"{where}: {key} must be +1 or -1")
        return [int(x) for x in xs]
    if not all(abs(x) <= sys.float_info.max for x in xs):  # also ints too large for a float
        raise SchemaViolation(f"{where}: {key} must be finite")
    return [float(x) for x in xs]


# record type -> its class and the keys that select its ball-model forms,
# first match wins; None for a record that reports write and scenes refuse.
# A flat record holds its object's fields under their own names, a
# hypersphere's centre as its coordinates, and a ball form stands in for the
# object's vector.  Only objects of hyperbolic space have one; a sphere_e
# centre lies in R^n.
_RECORDS = {
    "point": (HPoint, ("ball",)),
    "horosphere": (Horosphere, ("centre_dir",)),
    "hyperplane": (CoHyperplane, ("pole", "direction")),
    "hypersphere": (Hypersphere, ("ball_centre",)),
    "sphere_e": (CoSphereE, ()),
    "equidistant": (EquidistantBranch, None),
    "plane_e": (EuclideanPlane, None),
}
# class -> its record type and its (field, type) pairs
_CLASSES = {cls: (kind, tuple(get_type_hints(cls).items())) for kind, (cls, _) in _RECORDS.items()}
# class -> its (position, (field, type)) pairs in the order _build reads them: a
# point field (a hypersphere's centre) after the numbers, so a radius is checked first
_READ = {cls: sorted(enumerate(f), key=lambda p: p[1][1] is HPoint)
         for cls, (_, f) in _CLASSES.items()}


def _form(rec, where: str) -> tuple[str, Optional[str]]:
    """(type, ball-model key or None) of one record."""
    if not isinstance(rec, dict):
        raise SchemaViolation(f"{where}: record must be an object")
    if "type" not in rec:
        raise SchemaViolation(f"{where}: missing field 'type'")
    kind = rec["type"]
    row = _RECORDS.get(kind) if isinstance(kind, str) else None
    if row is None or row[1] is None:
        raise SchemaViolation(f"{where}: unknown record type {kind!r}")
    for key in row[1]:
        if key in rec:
            return kind, key
    return kind, None


def _from_ball(key: str, recs: list, n: int, where: str) -> np.ndarray:
    """The hyperboloid vectors of records in the ball-model form key."""
    B = _floats(_fields(recs, key, where), n, where)
    if key == "centre_dir":
        scale = _scalars(recs, "scale", where)
        if min(scale) <= 0:
            raise SchemaViolation(f"{where}: scale must be positive")
        return ball_reps(B, scale)
    if key == "pole":
        return ball_normals(B, _scalars(recs, "orientation", where, unit=True))
    if key == "direction":
        return ball_normals(B)
    return ball_points(B)  # "ball", "ball_centre"


def _to_ball(key: str, v: np.ndarray) -> dict:
    """The ball-model form of the vector v of a record whose first ball key is key."""
    if key == "centre_dir":
        return {"centre_dir": v[:-1] / v[-1], "scale": float(v[-1])}
    if key == "pole":
        vt = float(v[-1])
        if abs(vt) > 1e-9:
            return {"pole": v[:-1] / vt, "orientation": 1 if vt > 0 else -1}
        return {"direction": v[:-1]}
    return {key: v[:-1] / (1.0 + v[-1])}  # "ball", "ball_centre"


def _build(kind: str, key: Optional[str], recs: list, n: int, where: str) -> list:
    """The objects of records of one form: each field's numbers gathered
    into one array or list, the vector converted to hyperboloid coordinates,
    and every object checked in one pass."""
    cls, keys = _RECORDS[kind]
    columns = [None] * len(_READ[cls])
    for i, (name, hint) in _READ[cls]:
        if hint in (float, int):
            columns[i] = _scalars(recs, name, where, unit=hint is int)
        elif key:
            columns[i] = _from_ball(key, recs, n, where)
        else:
            columns[i] = _floats(_fields(recs, name, where), n + bool(keys), where)
    return cls.rows(*columns)


def _record_to_object(rec, n: int, where: str):
    kind, key = _form(rec, where)
    try:
        return _build(kind, key, [rec], n, where)[0]
    except SchemaViolation:
        raise
    except (GeometryError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaViolation(f"{where}: {exc}") from exc


def _objects(records: list, n: int) -> list:
    """The objects of a scene, each record form built in one pass.

    A failed pass does not say which record is bad, so the records then run
    through the same code one at a time, and the first bad one raises with
    its own message, named objects[i].
    """
    try:
        forms: dict = {}
        for i, rec in enumerate(records):
            forms.setdefault(_form(rec, ""), []).append(i)
        objects = [None] * len(records)
        for (kind, key), rows in forms.items():
            built = _build(kind, key, [records[i] for i in rows], n, "")
            for i, obj in zip(rows, built):
                objects[i] = obj
        return objects
    except (GeometryError, ValueError, TypeError, OverflowError):
        return [_record_to_object(rec, n, f"objects[{i}]") for i, rec in enumerate(records)]


def object_to_record(obj, disk: bool = False) -> dict:
    """The scene record of an object; with disk, in its ball-model form."""
    if type(obj) not in _CLASSES:
        raise GeometryError(f"cannot emit {type(obj).__name__}")
    kind, fields = _CLASSES[type(obj)]
    rec = {"type": kind}
    for name, hint in fields:
        value = getattr(obj, name)
        rec[name] = value.coords if hint is HPoint else value
    keys = _RECORDS[kind][1]
    if disk and keys:  # the ball form stands in for the first field, the vector
        rec.update(_to_ball(keys[0], rec.pop(fields[0][0])))
    return rec


class Scene:
    def __init__(self, n: int, theorem: str, objects: list, surface, meta=None):
        self.n = n
        self.theorem = theorem
        self.objects = objects
        self.surface = surface
        self.meta = meta


def parse_scene(doc, theorem: Optional[str] = None) -> Scene:
    if not isinstance(doc, dict):
        raise SchemaViolation("scene must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaViolation(f"schema must be {SCHEMA!r}")
    n = doc.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise SchemaViolation("dimension must be an integer >= 2")
    # a --theorem flag overrides whatever the scene says about itself
    if theorem is None:
        theorem = doc.get("theorem")
    row = THEOREMS.get(theorem) if isinstance(theorem, str) else None
    if row is None:
        raise SchemaViolation(f"theorem must be one of {', '.join(THEOREMS)}")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise SchemaViolation("meta must be a JSON object")
    records = doc.get("objects")
    if not isinstance(records, list) or not records:
        raise SchemaViolation("objects must be a non-empty list")
    objects = _objects(records, n)
    types = {rec["type"] for rec in records}
    if not types <= set(row.records):
        raise SchemaViolation(f"{theorem} scenes hold {' or '.join(row.records)} records only")
    if len(types) > 1:
        raise SchemaViolation(f"{theorem} objects must all be of one type")
    if len(objects) != row.count(n):
        raise SchemaViolation(
            f"{theorem} at n={n} needs {row.count(n)} objects, got {len(objects)}"
        )
    surface = None
    if "surface" in doc and row.surface is not False:
        surface = _record_to_object(doc["surface"], n, "surface")
        if not isinstance(surface, (Horosphere, Hypersphere)):
            raise SchemaViolation(f"{theorem} surface must be a horosphere or hypersphere")
    elif "surface" in doc:
        raise SchemaViolation("only ptolemy1 and relation scenes take a surface record")
    elif row.surface:
        raise SchemaViolation(f"{theorem} scenes need a surface record")
    return Scene(n, theorem, objects, surface, meta)


def load_scene(path: str, theorem: Optional[str] = None) -> tuple[Scene, str]:
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # integers past the digit limit, nesting too deep
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    scene = parse_scene(doc, theorem)
    try:
        # hash the canonical form so reformatting a scene keeps its digest
        digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    except RecursionError as exc:  # nesting the encoder cannot re-encode
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    return scene, digest


# ---------------------------------------------------------------------------
# report assembly


def _case_doc(
    case: Optional[CaseyCase], residual: Optional[float], disk: bool
) -> Optional[dict]:
    if case is None:
        return None
    witnesses = {}
    if case.tangent_normal is not None:
        witnesses["tangent_normal"] = case.tangent_normal
    if case.ideal_point is not None:
        witnesses["ideal_point"] = case.ideal_point
    if case.orthogonal_normal is not None:
        witnesses["orthogonal_normal"] = case.orthogonal_normal
        witnesses["inclined_normal"] = case.inclined_normal
    doc = {"name": case.kind.value, "witnesses": witnesses, "residual": residual}
    if case.inclination is not None:
        doc["inclination"] = case.inclination
    if disk:
        doc["ball"] = {key: {"type": "hyperplane", **_to_ball("pole", vec)}
                       for key, vec in witnesses.items() if key != "ideal_point"}
        if case.ideal_point is not None:
            # a lightlike vector meets the ball boundary at a horosphere's ideal centre
            doc["ball"]["ideal_point"] = _to_ball("centre_dir", case.ideal_point)["centre_dir"]
    return doc


def _euclidean_doc(euc) -> Optional[dict]:
    if euc is None:
        return None
    doc = {"kind": euc.kind.value}
    if euc.tangent_surface is not None:
        doc["tangent_surface"] = object_to_record(euc.tangent_surface)
    if euc.kind.value == "common_intersection_point":
        doc["meeting_point"] = euc.meeting_point
        doc["at_infinity"] = euc.meeting_point_at_infinity
    if euc.orthogonal_surface is not None:
        doc["orthogonal_surface"] = object_to_record(euc.orthogonal_surface)
        doc["inclined_surface"] = object_to_record(euc.inclined_surface)
        doc["inclination"] = euc.inclination
    return doc


def _witness_fields(res, disk: bool) -> dict:
    return {
        "witness": None if res.witness is None else object_to_record(res.witness, disk=disk),
        "witness_residual": res.residual,
    }


def _run_penner(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    res = penner_test(scene.objects, tol)
    return res.verdict, {"same_centre": res.same_centre, **_witness_fields(res, disk)}


def _run_ptolemy1(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    res = ptolemy1_test(scene.objects, scene.surface, tol)
    return res.verdict, _witness_fields(res, disk)


# the "reason" of a degenerate report with a null case
NO_STRUCTURE = "degenerate at tol, but no witness structure at the fixed threshold 1e-9"


def _run_ptolemy2(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    verdict = ptolemy2_test(scene.objects, tol)
    if not classify:
        return verdict, {}
    if not verdict.is_degenerate:
        return verdict, {"fit": None, "case": None}
    try:
        fit = _ptolemy2_fit(scene.objects)
    except (NoReliableKernel, NormalSearchFailed):
        return verdict, {"fit": None, "case": None, "reason": NO_STRUCTURE}
    return verdict, {
        "fit": {
            "kind": fit.kind.value,
            "datum": fit.datum,
            "offset": fit.offset,
            "residual": fit.residual,
            "surface": object_to_record(fit.surface(), disk=disk),
        },
        "case": {
            "name": fit.kind.value,
            "witnesses": {"datum": fit.datum, "offset": fit.offset},
            "residual": fit.residual,
        },
    }


def _casey_fields(res, normals: Callable[[], np.ndarray], disk: bool, classify: bool) -> dict:
    """Report fields of a casey or casey_e result.

    normals() gives the (m, d) array of the family's unflipped hyperplane
    normals; classify checks the witnesses against it flipped by the
    reported signs, unless the search already did.
    """
    fields = {"signs": list(res.signs)}
    if res.case is None and res.verdict.is_degenerate:
        fields["reason"] = NO_STRUCTURE
    if not classify:
        fields["case_kind"] = None if res.case is None else res.case.kind.value
        return fields
    residual = None
    if res.case is not None:
        report = res.witness_report
        if report is None:
            flipped = np.array(res.signs, dtype=float)[:, None] * normals()
            report = casey_witness_check(res.case, flipped)
        residual = report.residual
        fields["witness_check"] = {
            "residual": report.residual,
            "passed": report.passed,
            "failures": list(report.failures),
        }
    fields["case"] = _case_doc(res.case, residual, disk)
    return fields


def _run_casey(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    res = casey_test(scene.objects, tol, search=search)
    fields = _casey_fields(res, lambda: CoHyperplane.family(scene.objects), disk, classify)
    return res.verdict, fields


def _run_casey_e(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    res = corollary_d_test(scene.objects, tol, search=search)
    # the witnesses certify the hyperplane lifts of the spheres
    fields = _casey_fields(res, lambda: res.lifts, disk, classify)
    if classify:
        fields["euclidean"] = _euclidean_doc(res.euclidean)
    return res.verdict, fields


# the "reason" of a sphere relation report with an imaginary tangent length
NO_TANGENT = "a sphere pair has no real tangent length under signs"


def _unsigned(values: np.ndarray, tol: float):
    return values, degeneracy(values * values, tol), {}


def _tangents(spheres: list, tol: float, search: bool):
    signs, verdict, squares = relation_tangents(spheres, tol, search)
    if squares is None:
        return None, verdict, {"signs": list(signs), "reason": NO_TANGENT}
    return np.sqrt(squares), verdict, {"signs": list(signs)}


# object type -> (the quantity the relation reads off four such objects,
# (objects, tol, search) -> (their values or None, verdict, report fields))
_RELATION_LENGTHS = {
    HPoint: ("chord_length", lambda x, tol, _: _unsigned(2.0 * np.sqrt(half_dist_matrix(x)), tol)),
    Horosphere: ("lambda_length", lambda x, tol, _: _unsigned(np.sqrt(lambda_sq_matrix(x)), tol)),
    CoSphereE: ("tangent_length", _tangents),
}


def _run_relation(scene: Scene, tol: float, search: bool, disk: bool, classify: bool):
    quantity, lengths = _RELATION_LENGTHS[type(scene.objects[0])]
    values, verdict, fields = lengths(scene.objects, tol, search)
    block = dict.fromkeys(("values", "products", "which", "residual"))
    if values is not None:
        rel = four_term_relation(values, tol)
        block = {"values": values, "products": list(rel.products),
                 "which": getattr(rel.which, "value", None), "residual": rel.residual}
    fields["relation"] = {"quantity": quantity, **block}
    return verdict, fields


class _Theorem(NamedTuple):
    records: tuple[str, ...]  # the "type"s its object records may have, one per scene
    count: Callable[[int], int]  # objects needed at dimension n
    # (scene, tol, search, disk, classify) -> (verdict, report fields)
    run: Callable[[Scene, float, bool, bool, bool], tuple]
    surface: Optional[bool] = False  # a point surface record: True needed, None allowed


# One row per theorem.  The runners call the theorem functions by their
# module-global names, so a tracer that patches those names (lgbench's
# does) sees every call.
THEOREMS = {
    "penner": _Theorem(("horosphere",), lambda n: n + 1, _run_penner),
    "ptolemy1": _Theorem(("point",), lambda n: n + 1, _run_ptolemy1, surface=True),
    "ptolemy2": _Theorem(("point",), lambda n: n + 2, _run_ptolemy2),
    "casey": _Theorem(("hyperplane",), lambda n: n + 1, _run_casey),
    "casey_e": _Theorem(("sphere_e",), lambda n: n + 2, _run_casey_e),
    "relation": _Theorem(("point", "horosphere", "sphere_e"), lambda n: 4, _run_relation, None),
}


def _run_theorem(
    command: str, scene: Scene, digest: str, tol: float, search: bool, disk: bool
) -> tuple[dict, int]:
    verdict, fields = THEOREMS[scene.theorem].run(scene, tol, search, disk, command == "classify")
    doc = {
        "schema": SCHEMA,
        "command": command,
        "theorem": scene.theorem,
        "dimension": scene.n,
        "input_digest": digest,
        "tol": tol,
        "verdict": {
            "degenerate": verdict.is_degenerate,
            "det": verdict.det_value,
            "sigma_min": verdict.sigma_min,
            "sigma_max": verdict.sigma_max,
        },
        "kernel": verdict.kernel,
        **fields,
    }
    seed = (scene.meta or {}).get("seed")
    if isinstance(seed, int) and not isinstance(seed, bool):
        doc["seed"] = seed
    return doc, 0 if verdict.is_degenerate else 1


def cmd_verify(
    scene: Scene, digest: str, tol: float, search: bool, disk: bool = False
) -> tuple[dict, int]:
    return _run_theorem("verify", scene, digest, tol, search, disk)


def cmd_classify(
    scene: Scene, digest: str, tol: float, search: bool, disk: bool = False
) -> tuple[dict, int]:
    return _run_theorem("classify", scene, digest, tol, search, disk)


def cmd_relation(scene: Scene, digest: str, tol: float) -> tuple[dict, int]:
    """The relation command on a relation scene, sign search on."""
    return _run_theorem("relation", scene, digest, tol, True, False)


# ---------------------------------------------------------------------------
# generate


def config_to_scene_doc(
    config: Configuration, disk: bool = False, meta: Optional[dict] = None
) -> dict:
    records = [object_to_record(o, disk=disk) for o in config.objects]
    record, count = records[0]["type"], len(records)
    surface = isinstance(config.surface, (Horosphere, Hypersphere))
    # the first row that takes the family's record type and count
    for theorem, row in THEOREMS.items():
        if record in row.records and count == row.count(config.n) and (surface or not row.surface):
            break
    else:
        raise GeometryError(f"no scene form for {config.kind.value} with {count} objects")
    doc = {
        "schema": SCHEMA,
        "dimension": config.n,
        "theorem": theorem,
        "objects": records,
    }
    if row.surface:
        doc["surface"] = object_to_record(config.surface, disk=disk)
    if disk:
        doc["model"] = "ball"
    if meta is not None:
        doc["meta"] = meta
    return doc


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or key not in PARAM_KEYS:
            raise SchemaViolation(
                f"--params takes key=value with key in {', '.join(PARAM_KEYS)}"
            )
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise SchemaViolation(f"--params {key} needs a number, got {value!r}") from exc
    return params


def cmd_generate(args) -> dict:
    # the generators load only for this command
    from .generators import GenSpec, generate

    params = _parse_params(args.params)
    for key in PARAM_KEYS:
        # a dedicated flag wins over the same key given through --params
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    spec = GenSpec(kind=args.kind, n=args.n, seed=args.seed, count=args.count, params=params)
    config = generate(spec)
    meta = {"kind": args.kind, "seed": args.seed}
    return config_to_scene_doc(config, disk=args.emit_disk, meta=meta)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzgram",
        description="Gram-determinant incidence tests for hyperbolic configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene_optional=False):
        p.add_argument("scene", nargs="?" if scene_optional else None, help="scene JSON file")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument(
            "--theorem",
            choices=[*THEOREMS, "casey-e"],
            default=None,
            help="override the scene's theorem field",
        )
        p.add_argument(
            "--search-signs",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="search coorientation flips (casey and casey_e)",
        )
        p.add_argument(
            "--emit-disk",
            action="store_true",
            help="render report objects and witnesses in ball-model coordinates",
        )

    pv = sub.add_parser("verify", help="run the scene's degeneracy test")
    add_common(pv, scene_optional=True)
    pv.add_argument("--scenes-dir", help="verify every *.json scene in a directory")

    pc = sub.add_parser("classify", help="verify plus witness extraction")
    add_common(pc)

    pr = sub.add_parser("relation", help="four-term product relation on 4 objects")
    pr.add_argument("scene", help="scene JSON file")
    pr.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pr.set_defaults(theorem="relation", search_signs=True, emit_disk=False)

    pg = sub.add_parser("generate", help="emit a scene document")
    pg.add_argument("--kind", required=True, choices=[k.value for k in GenKind])
    pg.add_argument("--n", required=True, type=int)
    pg.add_argument("--count", type=int, default=None)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--spread", type=float, default=None)
    pg.add_argument("--radius", type=float, default=None)
    pg.add_argument("--offset", type=float, default=None)
    pg.add_argument("--inclination", type=float, default=None)
    pg.add_argument(
        "--params",
        action="append",
        metavar="KEY=VALUE",
        help="generator parameter; repeatable, dedicated flags take precedence",
    )
    pg.add_argument("--emit-disk", action="store_true", help="emit ball-model records")
    return parser


def _scene_report(path: str, theorem: Optional[str], args) -> tuple[str, int]:
    """The command's canonical JSON report on one scene file and its exit
    code, or the scene's error report and 2, a non-finite number included."""
    try:
        scene, digest = load_scene(path, theorem)
        doc, code = _run_theorem(
            args.command, scene, digest, args.tol, args.search_signs, args.emit_disk
        )
        return canonical_json(doc), code
    except (GeometryError, OSError) as exc:
        return canonical_json(_error_doc(exc)), 2


def _run_batch(args, theorem: Optional[str]) -> tuple[str, int]:
    """The batch report's canonical JSON and the worst exit code of its scenes."""
    directory = Path(args.scenes_dir)
    if not directory.is_dir():
        raise SchemaViolation(f"not a directory: {directory}")
    texts, worst = {}, 0
    for path in sorted(directory.glob("*.json")):
        texts[path.name], code = _scene_report(str(path), theorem, args)
        worst = max(worst, code)
    # the canonical JSON of {"schema", "command", "reports"}, each report encoded once
    reports = ",".join(f"{canonical_json(name)}:{texts[name]}" for name in sorted(texts))
    return f'{{"command":"verify","reports":{{{reports}}},"schema":"{SCHEMA}"}}', worst


def _run_command(args) -> tuple[str, int]:
    """The canonical JSON report of one command line and its exit code."""
    if args.command == "generate":
        return canonical_json(cmd_generate(args)), 0
    # tol also decides which coorientations count as degenerate
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SchemaViolation(f"--tol must be a finite number > 0, got {args.tol}")
    # the flag accepts the hyphen spelling for the Euclidean variant
    theorem = args.theorem.replace("-", "_") if args.theorem else None
    if getattr(args, "scenes_dir", None) is not None:
        if args.scene is not None:
            raise SchemaViolation("pass a scene file or --scenes-dir, not both")
        return _run_batch(args, theorem)
    if args.scene is None:
        raise SchemaViolation("a scene file is required")
    return _scene_report(args.scene, theorem, args)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, code = _run_command(args)
    except (GeometryError, OSError) as exc:
        text, code = canonical_json(_error_doc(exc)), 2
    try:
        sys.stdout.write(text + "\n")
    except OSError:
        return 120  # as entry() does when the flush fails
    return code


def entry() -> NoReturn:
    """The ``lorentzgram`` console script and ``python -m lorentzgram.cli``.

    Runs main() on the process arguments, flushes stdout and stderr and
    ends the process with main's exit code through os._exit, without the
    interpreter's teardown, which costs a short command more than its
    work.  atexit hooks therefore do not run.  A flush that fails exits
    120, as the interpreter's own shutdown does; an exception that escapes
    main() propagates and ends the process the usual way.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            code = 120
    os._exit(code)


if __name__ == "__main__":
    entry()
