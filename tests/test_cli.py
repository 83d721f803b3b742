"""End-to-end CLI contract: exit codes, canonical output, scene validation,
and the generate -> verify -> classify pipeline."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorentzgram as lg
from lorentzgram import cli, theorems
from lorentzgram.cli import THEOREMS, _build_parser, main
from lorentzgram.errors import GeometryError, SchemaViolation
from lorentzgram.generators import GenKind, GenSpec, generate

from test_theorems import oversized_families


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return code, out


def run_doc(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_scene(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def generate_scene(capsys, tmp_path, *argv, name="scene.json"):
    code, out = run(capsys, "generate", *argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


class TestPipeline:
    def test_degenerate_penner_scene(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "horospheres_on_hyperplane_boundary",
            "--n", "3", "--seed", "5")
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 0
        assert doc["verdict"]["degenerate"] is True
        assert doc["theorem"] == "penner"
        assert doc["witness"]["type"] == "hyperplane"
        assert doc["witness_residual"] <= 1e-7
        assert doc["command"] == "verify"
        assert doc["seed"] == 5
        # classify reduces to verify here but must still name itself
        code, doc = run_doc(capsys, "classify", scene)
        assert code == 0
        assert doc["command"] == "classify"

    def test_generic_scene_exits_one(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "generic_horospheres", "--n", "3", "--seed", "5")
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 1
        assert doc["verdict"]["degenerate"] is False

    def test_classify_ptolemy2(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "points_on_hypersphere", "--n", "3", "--seed", "5")
        code, doc = run_doc(capsys, "classify", scene)
        assert code == 0
        assert doc["fit"]["kind"] == "hypersphere"
        assert doc["fit"]["surface"]["type"] == "hypersphere"
        assert doc["fit"]["residual"] <= 1e-8
        # the case block restates the fit in name/witnesses/residual form
        assert doc["case"]["name"] == "hypersphere"
        assert doc["case"]["witnesses"]["datum"] == doc["fit"]["datum"]

    def test_classify_casey_includes_witness_check(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_common_ideal_point",
            "--n", "3", "--seed", "5")
        code, doc = run_doc(capsys, "classify", scene)
        assert code == 0
        assert doc["case"]["name"] in (
            "tangent_hyperplane_at_infinity", "common_ideal_point",
            "orthogonal_equally_inclined")
        assert doc["case"]["witnesses"]
        assert doc["case"]["residual"] == doc["witness_check"]["residual"]
        assert doc["witness_check"]["passed"] is True

    def test_classify_casey_e(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "spheres_through_point", "--n", "2", "--seed", "5")
        code, doc = run_doc(capsys, "classify", scene)
        assert code == 0
        assert doc["euclidean"]["kind"] == "common_intersection_point"
        assert doc["euclidean"]["at_infinity"] is False

    def test_relation_command(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "horospheres_on_hyperplane_boundary",
            "--n", "3", "--seed", "7")
        doc = json.loads((tmp_path / "scene.json").read_text())
        doc["theorem"] = "relation"
        scene = write_scene(tmp_path, doc, "relation.json")
        code, rep = run_doc(capsys, "relation", scene)
        assert code == 0
        rel = rep["relation"]
        assert rel["quantity"] == "lambda_length"
        assert rel["which"] in ("alt12_34", "alt13_24", "alt14_23")
        assert rel["residual"] <= 1e-9 * sum(rel["products"])

    def test_relation_modes_on_frozen_scenes(self, capsys, tmp_path):
        import math
        import lorentzgram as lg

        # four horospheres spaced a quarter turn apart: the diagonal
        # lambda product equals the sum of the other two exactly
        reps = [[0.0, math.cos(t), math.sin(t), 1.0]
                for t in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 3, "theorem": "relation",
            "objects": [{"type": "horosphere", "rep": r} for r in reps],
        }, "circulant.json")
        code, rep = run_doc(capsys, "relation", scene)
        assert code == 0
        assert rep["relation"]["which"] == "alt13_24"
        assert rep["relation"]["products"] == pytest.approx([1.0, 2.0, 1.0])
        # the same four horospheres verify as a coplanar-centre family
        code, rep = run_doc(capsys, "verify", scene, "--theorem", "penner")
        assert code == 0
        assert abs(rep["verdict"]["det"]) <= 1e-12

        # a square drawn in a horosphere chart, as points: chord mode
        h = lg.Horosphere([0.0, 0.0, 1.0, 1.0])
        corners = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        pts = [lg.horosphere_point(h, z) for z in corners]
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 3, "theorem": "relation",
            "objects": [{"type": "point", "coords": list(p.coords)} for p in pts],
        }, "square.json")
        code, rep = run_doc(capsys, "relation", scene)
        assert code == 0
        assert rep["relation"]["quantity"] == "chord_length"
        assert rep["relation"]["which"] == "alt13_24"

        # four circles internally tangent to the unit circle: tangent mode
        radii = (0.2, 0.3, 0.1, 0.25)
        angles = (0.0, 80.0, 170.0, 260.0)
        objs = []
        for r, a in zip(radii, angles):
            t = math.radians(a)
            objs.append({"type": "sphere_e", "radius": r, "eps": 1,
                         "centre": [(1 - r) * math.cos(t), (1 - r) * math.sin(t)]})
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 2, "theorem": "relation",
            "objects": objs,
        }, "tangent.json")
        code, rep = run_doc(capsys, "relation", scene)
        assert code == 0
        assert rep["relation"]["quantity"] == "tangent_length"
        assert rep["relation"]["which"] == "alt13_24"

    def test_ptolemy1_scene_with_surface(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "points_on_horosphere", "--n", "3",
            "--seed", "9", "--count", "4")
        doc = json.loads((tmp_path / "scene.json").read_text())
        assert doc["theorem"] == "ptolemy1"
        assert doc["surface"]["type"] == "horosphere"
        code, rep = run_doc(capsys, "verify", scene)
        # n+1 generic points on a horosphere are not hyperplane-degenerate
        assert code == 1
        # read as a relation scene, labelled so or not, the surface is not read
        code, rep = run_doc(capsys, "relation", scene)
        assert (code, rep["theorem"], rep["relation"]["quantity"]) == (1, "relation", "chord_length")
        doc["theorem"] = "relation"
        assert run_doc(capsys, "relation", write_scene(tmp_path, doc, "relabelled.json")) == (
            code, {**rep, "input_digest": hashlib.sha256(cli.canonical_json(doc).encode()).hexdigest()})


class TestTheoremTable:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", [k.value for k in GenKind])
    def test_generated_scene_round_trip(self, capsys, tmp_path, kind, n):
        scene = generate_scene(capsys, tmp_path, "--kind", kind, "--n", str(n), "--seed", "3")
        scene_doc = json.loads(Path(scene).read_text())
        theorem = scene_doc["theorem"]
        types = {rec["type"] for rec in scene_doc["objects"]}
        assert len(types) == 1 and types <= set(THEOREMS[theorem].records)
        for command in ("verify", "classify"):
            code, doc = run_doc(capsys, command, scene)
            assert (doc["command"], doc["theorem"]) == (command, theorem)
            assert code == (1 if kind.startswith("generic_") else 0)
            if command == "classify" and code == 0 and theorem in ("casey", "casey_e"):
                assert doc["witness_check"]["passed"] is True

    def test_flag_accepts_table_keys_and_alias(self, capsys):
        assert list(THEOREMS) == ["penner", "ptolemy1", "ptolemy2", "casey", "casey_e", "relation"]
        parser = _build_parser()
        for command in ("verify", "classify"):
            for name in [*THEOREMS, "casey-e"]:
                args = parser.parse_args([command, "scene.json", "--theorem", name])
                assert args.theorem == name
            for name in ("casey e", "Penner", "Relation"):
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "scene.json", "--theorem", name])
        # the relation command reads every scene as a relation scene, search on
        args = parser.parse_args(["relation", "scene.json"])
        assert (args.theorem, args.search_signs, args.emit_disk) == ("relation", True, False)
        for flag in ("--theorem=penner", "--no-search-signs", "--emit-disk"):
            with pytest.raises(SystemExit):
                parser.parse_args(["relation", "scene.json", flag])

    def test_generated_four_object_scenes_never_exit_two_as_relation(self):
        # every generated family of four points, horospheres or spheres has a
        # relation verdict; hyperplanes are refused as input
        for kind in GenKind:
            for n in (2, 3, 4):
                try:
                    config = generate(GenSpec(kind.value, n, seed=1, count=4))
                    doc = json.loads(cli.canonical_json(cli.config_to_scene_doc(config)))
                except GeometryError:
                    continue  # no four-object family, or no scene of it, at this n
                if doc["objects"][0]["type"] == "hyperplane":
                    with pytest.raises(SchemaViolation):
                        cli.parse_scene(doc, "relation")
                    continue
                rep, code = cli.cmd_relation(cli.parse_scene(doc, "relation"), "digest", 1e-9)
                cli.canonical_json(rep)  # finite
                assert code == (0 if rep["verdict"]["degenerate"] else 1), (kind, n)

    @pytest.mark.parametrize("kind", ["spheres_tangent_to_circle", "spheres_through_point"])
    def test_generated_sphere_relation_scenes(self, kind):
        # four spheres at n = 2, seeds 0-39, relabelled relation scenes: each
        # is degenerate under some flip, and a flip with an imaginary tangent
        # length gives a null "which" with a reason, never an error
        for seed in range(40):
            config = generate(GenSpec(kind, 2, seed=seed, count=4))
            doc = json.loads(cli.canonical_json(cli.config_to_scene_doc(config)))
            doc["theorem"] = "relation"
            scene = cli.parse_scene(doc)
            rep, code = cli.cmd_relation(scene, "digest", 1e-9)
            cli.canonical_json(rep)  # finite
            assert (code, rep["verdict"]["degenerate"]) == (0, True), seed
            e = np.array([s.eps * sign for s, sign in zip(scene.objects, rep["signs"])])
            squares = np.outer(e, e) * lg.tau_matrix([s.with_eps(x) for s, x in zip(scene.objects, e)])
            rel = rep["relation"]
            if rel["which"] is None:
                assert kind == "spheres_tangent_to_circle", seed
                assert rep["reason"] == cli.NO_TANGENT and squares.min() < 0
                assert rel == {"quantity": "tangent_length", "values": None, "products": None,
                               "which": None, "residual": None}
            else:
                assert "reason" not in rep
                assert np.array_equal(rel["values"], np.sqrt(squares))
                assert rel["residual"] <= 1e-9 * sum(rel["products"])

    def test_relation_search_flag_as_for_casey_e(self, capsys, tmp_path):
        # the given flip of this family has an imaginary tangent length
        scene = generate_scene(capsys, tmp_path, "--kind", "spheres_through_point",
                               "--n", "2", "--seed", "1")
        _, casey = run_doc(capsys, "verify", scene, "--no-search-signs")
        code, rep = run_doc(capsys, "verify", scene, "--theorem", "relation", "--no-search-signs")
        assert (code, rep["signs"], rep["reason"]) == (0, [1, 1, 1, 1], cli.NO_TANGENT)
        assert (rep["verdict"], rep["kernel"]) == (casey["verdict"], casey["kernel"])
        code, rep = run_doc(capsys, "verify", scene, "--theorem", "relation")
        assert code == 0 and rep["signs"] != [1, 1, 1, 1]
        assert rep["relation"]["which"] is not None


class TestDeterminism:
    def test_generate_is_byte_deterministic(self, capsys):
        _, out1 = run(capsys, "generate", "--kind", "generic_points", "--n", "3",
                      "--seed", "11")
        _, out2 = run(capsys, "generate", "--kind", "generic_points", "--n", "3",
                      "--seed", "11")
        assert out1 == out2

    def test_verify_is_byte_deterministic(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_tangent_at_infinity",
            "--n", "3", "--seed", "11")
        _, out1 = run(capsys, "verify", scene)
        _, out2 = run(capsys, "verify", scene)
        assert out1 == out2

    def test_output_is_canonical_json(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "points_on_horosphere", "--n", "2", "--seed", "3")
        _, out = run(capsys, "verify", scene)
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out

    def test_report_hash_matches_input(self, capsys, tmp_path):
        from lorentzgram.cli import canonical_json

        scene = generate_scene(
            capsys, tmp_path, "--kind", "generic_points", "--n", "2", "--seed", "3")
        with open(scene) as fh:
            doc_in = json.load(fh)
        digest = hashlib.sha256(canonical_json(doc_in).encode()).hexdigest()
        _, doc = run_doc(capsys, "verify", scene)
        assert doc["input_digest"] == digest
        # reformatting the scene must not change its digest
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(doc_in, indent=2))
        _, doc2 = run_doc(capsys, "verify", str(pretty))
        assert doc2["input_digest"] == digest


def reference_json(doc) -> str:
    """The recursive walk that canonical_json replaced, kept as its
    reference.  An array goes through tolist() whole, so a 0-d array is its
    scalar; the walk's per-element loop raised TypeError on one."""

    def walk(value):
        if value is None or isinstance(value, (str, bool)):
            return value
        if isinstance(value, dict):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        if isinstance(value, np.ndarray):
            return walk(value.tolist())
        if isinstance(value, (np.floating, float)):
            out = float(value)
            if not math.isfinite(out):
                raise GeometryError("report contains a non-finite number")
            return out
        if isinstance(value, (np.integer, int)):
            return int(value)
        raise GeometryError(f"cannot serialize {type(value).__name__}")

    return json.dumps(walk(doc), sort_keys=True, separators=(",", ":"))


def keys_are_str(value) -> bool:
    if isinstance(value, dict):
        return all(isinstance(k, str) and keys_are_str(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(keys_are_str(v) for v in value)
    return True


def report_docs():
    """Scene and report documents of every generated kind, as the CLI builds
    them: ball and hyperboloid records, verify and classify with the search
    on and off and with --emit-disk, and relation on every four-object kind."""
    for kind in GenKind:
        for n in (2, 3):
            config = generate(GenSpec(kind.value, n, seed=n))
            for ball in (False, True):
                doc = cli.config_to_scene_doc(config, disk=ball, meta={"seed": n})
                yield doc
                scene = cli.parse_scene(json.loads(cli.canonical_json(doc)))
                for command in (cli.cmd_verify, cli.cmd_classify):
                    for search in (True, False):
                        for disk in (False, True):
                            yield command(scene, "digest", 1e-9, search, disk)[0]
        try:
            config = generate(GenSpec(kind.value, 2, seed=1, count=4))
            doc = json.loads(cli.canonical_json(cli.config_to_scene_doc(config)))
        except GeometryError:
            continue  # the kind has no four-object scene at n = 2
        doc["theorem"] = "relation"
        yield cli.cmd_relation(cli.parse_scene(doc), "digest", 1e-9)[0]


class TestCanonicalJson:
    def test_matches_reference_on_every_report_kind(self):
        count = 0
        for doc in report_docs():
            assert keys_are_str(doc)
            assert cli.canonical_json(doc) == reference_json(doc)
            count += 1
        assert count > 400

    def test_matches_reference_on_numpy_values(self):
        doc = {
            "f32": np.float32(0.1),
            "f64": np.float64(1) / 3,
            "i64": np.int64(-7),
            "u8": np.uint8(200),
            "zero_d": np.array(2.5),
            "zero_d_int": np.array(3),
            "two_d": np.arange(6, dtype=float).reshape(2, 3) / 7,
            "ints": np.array([1, 2], dtype=np.int32),
            "tuple": (1, 2.5, np.float32(3.25), (None, True, "s")),
            "nested": [{"b": np.float64(-0.0), "a": [np.int64(1)]}],
        }
        assert keys_are_str(doc)
        assert cli.canonical_json(doc) == reference_json(doc)
        assert json.loads(cli.canonical_json(doc))["zero_d"] == 2.5

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"), np.float64("nan"),
        np.float32("inf"), np.array([1.0, float("nan")]), [[float("nan")]],
    ])
    def test_non_finite_is_a_geometry_error(self, bad):
        with pytest.raises(GeometryError) as err:
            cli.canonical_json({"a": 1, "x": bad})
        assert str(err.value) == "report contains a non-finite number"

    @pytest.mark.parametrize("bad", [object(), 1j, {1, 2}, np.bool_(True), b"x"])
    def test_unknown_type_is_named(self, bad):
        with pytest.raises(GeometryError) as err:
            cli.canonical_json({"x": [bad]})
        assert str(err.value) == f"cannot serialize {type(bad).__name__}"

    def test_nan_in_scene_meta_exits_two(self, capsys, tmp_path):
        # json.loads accepts NaN, and the digest is taken over the canonical
        # form, so a NaN anywhere in the scene ends in exit 2
        scene = generate_scene(
            capsys, tmp_path, "--kind", "generic_points", "--n", "2", "--seed", "3")
        doc = json.loads(Path(scene).read_text())
        doc["meta"]["note"] = float("nan")
        path = write_scene(tmp_path, doc, name="nan.json")
        assert "NaN" in Path(path).read_text()
        code, out = run(capsys, "verify", path)
        assert code == 2
        assert out == '{"error":"GeometryError","message":"report contains a non-finite number"}\n'


# the places of a bad record: first or last of a plain normal family, or
# second of a family that mixes the normal, pole and direction forms
POSITIONS = (0, 2, "mixed")


def casey_scene(bad: dict, at=0) -> dict:
    """A casey scene at n = 2 whose record at position `at` is `bad`."""
    normals = [{"type": "hyperplane", "normal": v}
               for v in ([0.0, 1.0, 0.0], [-1.0, 0.0, 0.0])]
    if at == "mixed":
        # four records where casey at n = 2 takes three: a record error comes
        # before the count check, and a family of valid records fails that
        records = [normals[1], bad,
                   {"type": "hyperplane", "pole": [2.0, 0.0], "orientation": -1},
                   {"type": "hyperplane", "direction": [0.6, 0.8]}]
    else:
        records = normals[:at] + [bad] + normals[at:]
    return {"schema": "lorentz-gram/1", "dimension": 2, "theorem": "casey", "objects": records}


def bad_index(at) -> int:
    return 1 if at == "mixed" else at


REJECTED = [
    ([True, 0.0, 0.0], "expected a list of numbers"),
    ([1.0, False, 0.0], "expected a list of numbers"),
    (["1", 0.0, 0.0], "expected a list of numbers"),
    ([None, 0.0, 0.0], "expected a list of numbers"),
    ([[1.0], 0.0, 0.0], "expected a list of numbers"),
    ((1.0, 0.0, 0.0), "expected a list of numbers"),
    (1.0, "expected a list of numbers"),
    ([float("nan"), 0.0, 0.0], "numbers must be finite"),
    ([1.0, float("inf"), 0.0], "numbers must be finite"),
    ([1.0, 0.0], "expected length 3, got 2"),
    ([1.0, 0.0, 0.0, 0.0], "expected length 3, got 4"),
    ([], "expected length 3, got 0"),
    ([2.0, 0.0, 0.0], "normal must be unit spacelike"),
]

CONSTRUCTOR_MESSAGES = [
    ({"type": "point", "coords": [0.5, 0.0, 1.0]}, "point is not on the unit hyperboloid"),
    ({"type": "horosphere", "rep": [1.0, 0.0, 2.0]}, "representative must be lightlike"),
    ({"type": "hyperplane", "direction": [2.0, 0.0]}, "normal must be unit spacelike"),
    # <v, v> is 0 here, but |v|_inf^2 overflows, so the vector is not representable
    ({"type": "hyperplane", "normal": [1e200, 0.0, 1e200]}, "normal must be unit spacelike"),
    ({"type": "point", "coords": [1e200, 0.0, 1e200]}, "point is not on the unit hyperboloid"),
]


class TestSceneNumbers:
    @pytest.mark.parametrize("normal", [
        [1, 0, 0],
        [1.0, 0.0, 0.0],
        [0, 1.0, 0],
        [np.float64(1.0), np.float64(0.0), 0.0],
    ])
    def test_accepted(self, normal):
        scene = cli.parse_scene(casey_scene({"type": "hyperplane", "normal": normal}))
        got = scene.objects[0].normal
        assert got.dtype == float
        assert got.tolist() == [float(x) for x in normal]

    @staticmethod
    def rejects(record: dict, message: str, at) -> None:
        with pytest.raises(SchemaViolation) as err:
            cli.parse_scene(casey_scene(record, at))
        assert str(err.value) == f"objects[{bad_index(at)}]: {message}"

    @pytest.mark.parametrize("normal, message", REJECTED)
    def test_rejected(self, normal, message):
        self.rejects({"type": "hyperplane", "normal": normal}, message, 0)

    @pytest.mark.parametrize("at", POSITIONS[1:])
    @pytest.mark.parametrize("normal, message", REJECTED)
    def test_rejected_later(self, normal, message, at):
        self.rejects({"type": "hyperplane", "normal": normal}, message, at)

    @pytest.mark.parametrize("record, message", CONSTRUCTOR_MESSAGES)
    def test_constructor_messages(self, record, message):
        self.rejects(record, message, 0)

    @pytest.mark.parametrize("at", POSITIONS[1:])
    @pytest.mark.parametrize("record, message", CONSTRUCTOR_MESSAGES)
    def test_constructor_messages_later(self, record, message, at):
        self.rejects(record, message, at)

    def test_first_bad_record_is_named(self):
        # both bad records sit in forms that are built apart; the error
        # names the earlier one, as one record at a time would
        scene = casey_scene({"type": "hyperplane", "pole": [0.5, 0.0], "orientation": 1}, "mixed")
        scene["objects"][3] = {"type": "hyperplane", "normal": [2.0, 0.0, 0.0]}
        with pytest.raises(SchemaViolation) as err:
            cli.parse_scene(scene)
        assert str(err.value) == "objects[1]: bad pole form"
        scene["objects"][0] = {"type": "hyperplane", "normal": [2.0, 0.0, 0.0]}
        with pytest.raises(SchemaViolation) as err:
            cli.parse_scene(scene)
        assert str(err.value) == "objects[0]: normal must be unit spacelike"


def parsed_reference(rec: dict):
    """The object the public constructors build from one scene record."""
    if rec["type"] == "point":
        if "ball" in rec:
            return lg.ball_to_hyperboloid(rec["ball"])
        return lg.HPoint(rec["coords"])
    if rec["type"] == "horosphere":
        if "centre_dir" in rec:
            return lg.Horosphere(rec["scale"] * np.concatenate([rec["centre_dir"], [1.0]]))
        return lg.Horosphere(rec["rep"])
    if rec["type"] == "hyperplane":
        if "pole" in rec:
            pole = np.asarray(rec["pole"], dtype=float)
            vt = rec["orientation"] / math.sqrt(float(pole @ pole) - 1.0)
            return lg.CoHyperplane(np.concatenate([vt * pole, [vt]]))
        if "direction" in rec:
            return lg.CoHyperplane(np.concatenate([rec["direction"], [0.0]]))
        return lg.CoHyperplane(rec["normal"])
    if rec["type"] == "hypersphere":
        if "ball_centre" in rec:
            return lg.Hypersphere(lg.ball_to_hyperboloid(rec["ball_centre"]), rec["radius"])
        return lg.Hypersphere(lg.HPoint(rec["centre"]), rec["radius"])
    return lg.CoSphereE(rec["centre"], rec["radius"], rec["eps"])


def object_bytes(obj) -> tuple:
    """Every field of an object, arrays as their bytes."""
    out = []
    for value in vars(obj).values():
        if isinstance(value, lg.HPoint):
            value = value.coords
        out.append(value.tobytes() if isinstance(value, np.ndarray) else (type(value), value))
    return tuple(out)


class TestFamilyParity:
    @pytest.mark.parametrize("disk", [False, True])
    @pytest.mark.parametrize("kind", [k.value for k in GenKind])
    def test_family_pass_matches_constructors(self, kind, disk):
        # a family built in one array pass holds, bit for bit, the objects
        # the one-row constructors build from its records
        checked = 0
        for n in range(2, 7):
            for seed in (0, 1):
                config = generate(GenSpec(kind, n, seed=seed))
                doc = json.loads(cli.canonical_json(cli.config_to_scene_doc(config, disk=disk)))
                scene = cli.parse_scene(doc)
                records = doc["objects"] + ([doc["surface"]] if "surface" in doc else [])
                objects = scene.objects + ([scene.surface] if scene.surface else [])
                for rec, obj in zip(records, objects, strict=True):
                    ref = parsed_reference(rec)
                    assert type(obj) is type(ref)
                    assert object_bytes(obj) == object_bytes(ref)
                    checked += 1
        assert checked >= 30

    def test_family_objects_are_read_only(self):
        config = generate(GenSpec("generic_points", 3, seed=1))
        doc = json.loads(cli.canonical_json(cli.config_to_scene_doc(config)))
        for p in cli.parse_scene(doc).objects:
            with pytest.raises(ValueError):
                p.coords[0] = 7.0


class TestPtolemy2Fit:
    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.1])
    def test_runner_fit_equals_classify(self, tol):
        # the runner fits from its own verdict; the fit is ptolemy2_classify's
        fitted = 0
        kinds = ("points_on_horosphere", "points_on_hypersphere", "points_on_hyperplane",
                 "points_on_equidistant", "generic_points")
        for kind in kinds:
            for n in range(2, 10):
                for seed in (0, 1):
                    config = generate(GenSpec(kind, n, seed=seed))
                    scene = cli.Scene(n, "ptolemy2", list(config.objects), None)
                    try:
                        want = lg.ptolemy2_classify(config.objects, tol)
                    except lg.NotDegenerate:
                        _, fields = THEOREMS["ptolemy2"].run(scene, tol, True, False, True)
                        assert fields["fit"] is None
                        continue
                    except GeometryError as exc:
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            THEOREMS["ptolemy2"].run(scene, tol, True, False, True)
                        continue
                    _, fields = THEOREMS["ptolemy2"].run(scene, tol, True, False, True)
                    fit = fields["fit"]
                    assert fit["kind"] == want.kind.value
                    assert fit["datum"].tobytes() == want.datum.tobytes()
                    assert np.float64(fit["offset"]).tobytes() == np.float64(want.offset).tobytes()
                    assert np.float64(fit["residual"]).tobytes() == np.float64(want.residual).tobytes()
                    fitted += 1
        assert fitted >= 64


class TestDiskModel:
    def test_ball_records_round_trip(self, capsys, tmp_path):
        flat = generate_scene(
            capsys, tmp_path, "--kind", "points_on_equidistant", "--n", "3",
            "--seed", "13", name="flat.json")
        disk = generate_scene(
            capsys, tmp_path, "--kind", "points_on_equidistant", "--n", "3",
            "--seed", "13", "--emit-disk", name="disk.json")
        assert json.loads(Path(disk).read_text())["model"] == "ball"
        code_f, doc_f = run_doc(capsys, "verify", flat)
        code_d, doc_d = run_doc(capsys, "verify", disk)
        vf, vd = doc_f["verdict"], doc_d["verdict"]
        assert (code_f, vf["degenerate"]) == (code_d, vd["degenerate"])
        assert vd["sigma_min"] == pytest.approx(vf["sigma_min"], rel=1e-6, abs=1e-9)

    def test_disk_casey_scene(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_tangent_at_infinity",
            "--n", "2", "--seed", "13", "--emit-disk")
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 0

    def test_emit_disk_report_witnesses_round_trip(self, capsys, tmp_path):
        import numpy as np
        from lorentzgram.cli import parse_scene

        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_tangent_at_infinity",
            "--n", "3", "--seed", "23")
        code, doc = run_doc(capsys, "classify", scene, "--emit-disk")
        assert code == 0
        raw = np.array(doc["case"]["witnesses"]["tangent_normal"])
        ball = doc["case"]["ball"]["tangent_normal"]
        # feed the ball record back through the scene parser as a one-off
        probe = parse_scene({
            "schema": "lorentz-gram/1", "dimension": 3, "theorem": "casey",
            "objects": [ball, ball, ball, ball],
        })
        assert np.allclose(probe.objects[0].normal, raw, atol=1e-9)
        # penner witnesses are object records and swap representation too
        scene = generate_scene(
            capsys, tmp_path, "--kind", "horospheres_on_hyperplane_boundary",
            "--n", "2", "--seed", "23", name="penner.json")
        _, flat = run_doc(capsys, "verify", scene)
        _, disk = run_doc(capsys, "verify", scene, "--emit-disk")
        assert "normal" in flat["witness"]
        assert "pole" in disk["witness"] or "direction" in disk["witness"]


class TestTheoremFlag:
    def test_flag_supplies_missing_theorem(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_common_ideal_point",
            "--n", "2", "--seed", "25")
        doc = json.loads(Path(scene).read_text())
        del doc["theorem"]
        stripped = write_scene(tmp_path, doc, "stripped.json")
        code, rep = run_doc(capsys, "verify", stripped)
        assert code == 2  # no theorem anywhere
        code, rep = run_doc(capsys, "verify", stripped, "--theorem", "casey")
        assert code == 0
        assert rep["theorem"] == "casey"

    def test_flag_overrides_scene_field(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "points_on_hypersphere", "--n", "2",
            "--seed", "25")
        doc = json.loads(Path(scene).read_text())
        doc["theorem"] = "casey"  # wrong on purpose: these are point records
        mislabeled = write_scene(tmp_path, doc, "mislabeled.json")
        code, rep = run_doc(capsys, "verify", mislabeled)
        assert code == 2
        code, rep = run_doc(capsys, "classify", mislabeled, "--theorem", "ptolemy2")
        assert code == 0
        assert rep["theorem"] == "ptolemy2"

    def test_hyphen_spelling_for_euclidean_variant(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "spheres_tangent_to_circle", "--n", "2",
            "--seed", "25")
        doc = json.loads(Path(scene).read_text())
        del doc["theorem"]
        stripped = write_scene(tmp_path, doc, "stripped.json")
        code, rep = run_doc(capsys, "classify", stripped, "--theorem", "casey-e")
        assert code == 0
        assert rep["theorem"] == "casey_e"


class TestPtolemy1Membership:
    @pytest.mark.parametrize("tol", ["1e-9", "1e-6", "1e-4", "1e-3"])
    def test_off_surface_point_exits_two_at_every_tol(self, capsys, tmp_path, tol):
        # point 0 scaled off its horosphere by a relative 1e-5, kept on the
        # hyperboloid: membership is checked at 1e-7 whatever --tol is
        scene = generate_scene(
            capsys, tmp_path, "--kind", "points_on_horosphere", "--n", "3",
            "--seed", "1", "--count", "4")
        doc = json.loads(Path(scene).read_text())
        coords = doc["objects"][0]["coords"]
        x = [c * (1.0 + 1e-5) for c in coords[:-1]]
        doc["objects"][0]["coords"] = x + [math.sqrt(1.0 + sum(c * c for c in x))]
        code, rep = run_doc(capsys, "verify", "--tol", tol, write_scene(tmp_path, doc, "off.json"))
        assert (code, rep["error"]) == (2, "HypothesisViolated")


class TestSearchFlag:
    def test_no_search_keeps_given_signs(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_tangent_at_infinity",
            "--n", "3", "--seed", "15")
        doc = json.loads(Path(scene).read_text())
        # flip one normal's coorientation; the fixed-sign test must miss
        doc["objects"][1]["normal"] = [-x for x in doc["objects"][1]["normal"]]
        flipped = write_scene(tmp_path, doc, "flipped.json")
        code, rep = run_doc(capsys, "verify", flipped, "--no-search-signs")
        assert code == 1
        assert rep["signs"] == [1, 1, 1, 1]
        code, rep = run_doc(capsys, "verify", flipped)
        assert code == 0
        assert rep["signs"] == [1, -1, 1, 1]


    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_family_size_caps_the_search_only(self, capsys, tmp_path, command):
        # 17 hyperplanes of R^{16,1} and 18 spheres of R^16 are valid input:
        # without the search they get a verdict, with it the search is refused
        hs, ss = oversized_families()
        docs = [{"schema": "lorentz-gram/1", "dimension": lg.MAX_FAMILY, "theorem": "casey",
                 "objects": [{"type": "hyperplane", "normal": h.normal.tolist()} for h in hs]},
                {"schema": "lorentz-gram/1", "dimension": lg.MAX_FAMILY, "theorem": "casey_e",
                 "objects": [{"type": "sphere_e", "centre": s.centre.tolist(), "radius": s.radius,
                              "eps": s.eps} for s in ss]}]
        for doc in docs:
            scene = write_scene(tmp_path, doc)
            code, rep = run_doc(capsys, command, scene, "--no-search-signs")
            assert code in (0, 1), rep
            assert rep["signs"] == [1] * len(doc["objects"])
            assert run_doc(capsys, command, scene) == (2, {
                "error": "InvalidInput", "message": "family too large for sign search (max 16)"})


class TestOrthogonalEquallyInclinedSpheres:
    """The third alternative of the planar Casey theorem: spheres whose
    lifts are a generated orthogonal/equally-inclined hyperplane family."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_classify_reads_the_third_alternative(self, capsys, tmp_path, n):
        for seed in range(6):
            planes = generate(GenSpec("hyperplanes_orth_equal", n + 1, seed=seed)).objects
            spheres = [lg.normal_to_sphere_or_plane(h.normal) for h in planes]
            assert all(isinstance(s, lg.CoSphereE) for s in spheres), seed
            records = [{"type": "sphere_e", "centre": s.centre.tolist(), "radius": s.radius,
                        "eps": s.eps} for s in spheres]
            scene = write_scene(tmp_path, {"schema": "lorentz-gram/1", "dimension": n,
                                           "theorem": "casey_e", "objects": records})
            for flags in ((), ("--emit-disk",)):
                code, rep = run_doc(capsys, "classify", scene, *flags)
                assert code == 0, (seed, flags)
                assert rep["witness_check"]["passed"] is True, (seed, flags)
                euc = rep["euclidean"]
                assert euc["kind"] == "orthogonal_equally_inclined", (seed, flags)
                assert euc["orthogonal_surface"] and euc["inclined_surface"], (seed, flags)
                assert 0 <= euc["inclination"] < 1, (seed, flags)


class TestEuclideanReading:
    """verify drops a casey_e report's euclidean block, so it never builds
    it; classify builds it once and reports it unchanged."""

    @pytest.mark.parametrize("kind", ["spheres_tangent_to_circle", "spheres_through_point"])
    def test_only_classify_builds_it(self, capsys, tmp_path, monkeypatch, kind):
        scene = generate_scene(capsys, tmp_path, "--kind", kind, "--n", "3", "--seed", "1")
        _, want = run_doc(capsys, "classify", scene)
        calls = []
        build = theorems._euclidean_case
        monkeypatch.setattr(theorems, "_euclidean_case", lambda case: calls.append(case) or build(case))
        for flags in ([], ["--emit-disk"], ["--no-search-signs"]):
            code, doc = run_doc(capsys, "verify", scene, *flags)
            assert code == 0 and doc["case_kind"] is not None
        assert calls == []
        code, got = run_doc(capsys, "classify", scene)
        assert code == 0 and len(calls) == 1
        assert got["euclidean"] == want["euclidean"] is not None


def assert_null_case_has_reason(code, rep, command):
    """A degenerate report exits 0; its case is null exactly when it gives
    the reason."""
    assert code in (0, 1)
    assert code == (0 if rep["verdict"]["degenerate"] else 1)
    case = rep["case_kind"] if command == "verify" else rep["case"]
    if rep["verdict"]["degenerate"] and case is None:
        assert rep["reason"] == cli.NO_STRUCTURE
    else:
        assert "reason" not in rep


class TestLooseTolerance:
    # tol decides the verdict; a family degenerate at a loose tol with no
    # witness structure at the fixed threshold reports a null case and a
    # reason, and never exits 2
    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_degenerate_without_structure_exits_zero(self, capsys, tmp_path, command):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "hyperplanes_tangent_at_infinity",
            "--n", "4", "--seed", "6")
        doc = json.loads(Path(scene).read_text())
        doc["objects"][1]["normal"] = [-x for x in doc["objects"][1]["normal"]]
        flipped = write_scene(tmp_path, doc, "flipped.json")
        code, rep = run_doc(capsys, command, flipped, "--tol", "0.1", "--no-search-signs")
        assert code == 0
        assert rep["verdict"]["degenerate"] is True
        assert rep["case_kind" if command == "verify" else "case"] is None
        assert rep["reason"] == cli.NO_STRUCTURE

    @pytest.mark.parametrize("tol", ["1e-3", "0.1"])
    @pytest.mark.parametrize("kind", [
        "hyperplanes_tangent_at_infinity", "hyperplanes_orth_equal", "spheres_tangent_to_circle",
    ])
    def test_every_flip_pattern_exits_zero_or_one(self, capsys, tmp_path, kind, tol):
        path = tmp_path / "scene.json"
        for n in (2, 3):
            for seed in range(4):
                config = generate(GenSpec(kind, n, seed=seed))
                for mask in range(16):
                    if mask >> len(config.objects):
                        continue
                    objs = [
                        (o.flipped() if isinstance(o, lg.CoHyperplane) else o.with_eps(-o.eps))
                        if mask >> i & 1 else o
                        for i, o in enumerate(config.objects)
                    ]
                    flipped = dataclasses.replace(config, objects=tuple(objs))
                    for disk in (False, True):
                        path.write_text(cli.canonical_json(cli.config_to_scene_doc(flipped, disk)))
                        for command in ("verify", "classify"):
                            code, rep = run_doc(
                                capsys, command, str(path), "--tol", tol, "--no-search-signs")
                            assert_null_case_has_reason(code, rep, command)


def refused_scene(case: str):
    """The scene document of one SCHEMA_REFUSALS case."""
    points = [{"type": "point", "coords": [0.0, 0.0, 1.0]},
              {"type": "point", "ball": [0.5, 0.0]},
              {"type": "point", "ball": [0.0, 0.5]}]
    horospheres = [{"type": "horosphere", "rep": [1.0, 0.0, 1.0]},
                   {"type": "horosphere", "rep": [0.0, 1.0, 1.0]}]
    valid = casey_scene({"type": "hyperplane", "normal": [0.6, 0.8, 0.0]})
    records = {
        "record": 7,
        "type": {"normal": [1.0, 0.0, 0.0]},
        "type_3": {"type": 3, "normal": [1.0, 0.0, 0.0]},
        "equidistant": {"type": "equidistant", "normal": [1.0, 0.0, 0.0], "offset": 0.5},
        "plane_e": {"type": "plane_e", "normal": [1.0, 0.0], "offset": 0.5},
        "normal": {"type": "hyperplane"},
        "scale": {"type": "horosphere", "centre_dir": [0.6, 0.8]},
        "orientation": {"type": "hyperplane", "pole": [2.0, 0.0]},
        "radius": {"type": "sphere_e", "centre": [0.0, 1.0], "eps": 1},
        "eps": {"type": "sphere_e", "centre": [0.0, 1.0], "radius": 0.5},
        "scale_0": {"type": "horosphere", "centre_dir": [0.6, 0.8], "scale": 0},
    }
    if case in records:
        return casey_scene(records[case])
    ptolemy1 = {"schema": "lorentz-gram/1", "dimension": 2, "theorem": "ptolemy1",
                "objects": points}
    return {
        "scene": ["penner"],
        "empty": {**valid, "objects": []},
        "meta": {**valid, "meta": [1]},
        "two_types": {**valid, "theorem": "relation", "objects": points[:2] + horospheres},
        "casey_surface": {**valid, "surface": horospheres[0]},
        "no_surface": ptolemy1,
        "point_surface": {**ptolemy1, "surface": points[0]},
    }[case]


# scene-schema refusals, each with its exact message
SCHEMA_REFUSALS = [
    ("scene", "scene must be a JSON object"),
    ("empty", "objects must be a non-empty list"),
    ("record", "objects[0]: record must be an object"),
    ("type", "objects[0]: missing field 'type'"),
    ("type_3", "objects[0]: unknown record type 3"),
    ("equidistant", "objects[0]: unknown record type 'equidistant'"),
    ("plane_e", "objects[0]: unknown record type 'plane_e'"),
    ("normal", "objects[0]: missing field 'normal'"),
    ("scale", "objects[0]: missing field 'scale'"),
    ("orientation", "objects[0]: missing field 'orientation'"),
    ("radius", "objects[0]: missing field 'radius'"),
    ("eps", "objects[0]: missing field 'eps'"),
    ("scale_0", "objects[0]: scale must be positive"),
    ("meta", "meta must be a JSON object"),
    ("two_types", "relation objects must all be of one type"),
    ("casey_surface", "only ptolemy1 and relation scenes take a surface record"),
    ("no_surface", "ptolemy1 scenes need a surface record"),
    ("point_surface", "ptolemy1 surface must be a horosphere or hypersphere"),
]


class TestErrors:
    @pytest.mark.parametrize("case, message", SCHEMA_REFUSALS)
    def test_schema_refusal_messages(self, capsys, tmp_path, case, message):
        code, doc = run_doc(capsys, "verify", write_scene(tmp_path, refused_scene(case)))
        assert code == 2
        assert doc == {"error": "SchemaViolation", "message": message}

    def test_missing_file(self, capsys):
        code, doc = run_doc(capsys, "verify", "/nonexistent/scene.json")
        assert code == 2
        assert "error" in doc

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, doc = run_doc(capsys, "verify", str(path))
        assert code == 2
        assert doc["error"] == "SchemaViolation"

    @pytest.mark.parametrize("name", ["deep.json", "digits.json"])
    def test_undecodable_scene_exits_2(self, capsys, tmp_path, name):
        code, doc = run_doc(capsys, "verify", undecodable_scenes(tmp_path)[name])
        assert code == 2
        assert doc["error"] == "SchemaViolation"
        assert doc["message"].startswith("not valid JSON: ")

    def test_digest_too_deep_to_encode_is_a_schema_violation(self, capsys, tmp_path, monkeypatch):
        scene = generate_scene(capsys, tmp_path, "--kind", "generic_points", "--n", "2",
                               "--seed", "1")

        def too_deep(doc):
            raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")
        monkeypatch.setattr(cli, "canonical_json", too_deep)
        with pytest.raises(SchemaViolation, match="^not valid JSON: maximum recursion"):
            cli.load_scene(scene)

    def test_wrong_schema_tag(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {"schema": "other/9", "dimension": 2, "theorem": "penner",
                                       "objects": []})
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2

    @staticmethod
    def scalar_field_scene(tmp_path, record, field, text, at) -> str:
        """A casey_e scene of four spheres whose record at `at` has `field`
        spelt as the JSON `text`; at "mixed", objects[1] of a hyperplane
        family of normal, pole and direction records."""
        spheres = [{"type": "sphere_e", "centre": [3.0 * i, 0.0], "radius": 1.0, "eps": 1}
                   for i in range(4)]
        bad = {
            "sphere_e": dict(spheres[bad_index(at)]),
            "horosphere": {"type": "horosphere", "centre_dir": [0.6, 0.8], "scale": 1.0},
            "hyperplane": {"type": "hyperplane", "pole": [2.0, 0.0], "orientation": 1},
        }[record]
        bad[field] = "@"
        if at == "mixed":
            doc = casey_scene(bad, at)
        else:
            doc = {"schema": "lorentz-gram/1", "dimension": 2, "theorem": "casey_e",
                   "objects": spheres[:at] + [bad] + spheres[at + 1:]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc).replace('"@"', text))
        return str(path)

    def scalar_field(self, capsys, tmp_path, record, field, text, at):
        # scalars must be finite non-bool numbers, eps and orientation +-1
        # integers; the JSON text goes in verbatim so that 1e400 stays 1e400
        code, doc = run_doc(capsys, "verify", self.scalar_field_scene(tmp_path, record, field, text, at))
        assert code == (1 if text == "2" and at != "mixed" else 2)
        if code == 1:
            assert doc["verdict"]["degenerate"] is False
        elif text == "2":
            assert doc["message"] == "casey scenes hold hyperplane records only"
        else:
            assert doc["error"] == "SchemaViolation"
            assert doc["message"].startswith(f"objects[{bad_index(at)}]: {field} ")

    SCALAR_FIELDS = [
        ("sphere_e", "eps", "1.7"),
        ("sphere_e", "eps", "true"),
        ("sphere_e", "radius", '"2"'),
        ("sphere_e", "radius", "true"),
        ("sphere_e", "radius", "1e400"),
        pytest.param("sphere_e", "radius", "1" + "0" * 400, id="sphere_e-radius-1e400_int"),
        ("horosphere", "scale", '"1"'),
        ("hyperplane", "orientation", "1.5"),
        ("sphere_e", "radius", "2"),
    ]

    @pytest.mark.parametrize("record, field, text", SCALAR_FIELDS)
    def test_scalar_fields(self, capsys, tmp_path, record, field, text):
        self.scalar_field(capsys, tmp_path, record, field, text, 0)

    @pytest.mark.parametrize("at", POSITIONS[1:])
    @pytest.mark.parametrize("record, field, text", SCALAR_FIELDS)
    def test_scalar_fields_later(self, capsys, tmp_path, record, field, text, at):
        self.scalar_field(capsys, tmp_path, record, field, text, at)

    def test_wrong_object_count(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 2, "theorem": "penner",
            "objects": [{"type": "horosphere", "rep": [1.0, 0.0, 1.0]}] * 2,
        })
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2

    def test_mixed_object_types(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 2, "theorem": "penner",
            "objects": [
                {"type": "horosphere", "rep": [1.0, 0.0, 1.0]},
                {"type": "horosphere", "rep": [0.0, 1.0, 1.0]},
                {"type": "point", "coords": [0.0, 0.0, 1.0]},
            ],
        })
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2

    @pytest.mark.parametrize("theorem", [["penner"], {"casey": 1}, 3, None])
    def test_theorem_must_name_a_row(self, capsys, tmp_path, theorem):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 2, "theorem": theorem,
            "objects": [{"type": "horosphere", "rep": [1.0, 0.0, 1.0]}] * 3,
        })
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2
        assert doc["message"].startswith("theorem must be one of penner, ")

    def test_surface_only_for_ptolemy1(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 2, "theorem": "penner",
            "surface": {"type": "horosphere", "rep": [1.0, 0.0, 1.0]},
            "objects": [
                {"type": "horosphere", "rep": [1.0, 0.0, 1.0]},
                {"type": "horosphere", "rep": [0.0, 1.0, 1.0]},
                {"type": "horosphere", "rep": [-1.0, 0.0, 1.0]},
            ],
        })
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2

    def test_relation_needs_four(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "dimension": 3, "theorem": "relation",
            "objects": [{"type": "horosphere", "rep": [1.0, 0.0, 0.0, 1.0]}] * 3,
        })
        code, doc = run_doc(capsys, "relation", scene)
        assert code == 2

    def test_missing_dimension_field(self, capsys, tmp_path):
        scene = write_scene(tmp_path, {
            "schema": "lorentz-gram/1", "theorem": "penner",
            "objects": [{"type": "horosphere", "rep": [1.0, 0.0, 1.0]}] * 3,
        })
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 2
        assert doc["error"] == "SchemaViolation"
        assert "dimension" in doc["message"]

    def test_infeasible_generate_params(self, capsys):
        code, doc = run_doc(capsys, "generate", "--kind", "hyperplanes_orth_equal",
                            "--n", "3", "--inclination", "1.5")
        assert code == 2
        assert doc["error"] == "InfeasibleParams"

    def test_params_key_value_form(self, capsys):
        # same request through --params, including the failure mode
        code, doc = run_doc(capsys, "generate", "--kind", "hyperplanes_orth_equal",
                            "--n", "3", "--params", "inclination=1.5")
        assert code == 2
        assert doc["error"] == "InfeasibleParams"
        code, good = run_doc(capsys, "generate", "--kind", "hyperplanes_orth_equal",
                             "--n", "3", "--seed", "4", "--params", "inclination=0.5")
        assert code == 0
        code, same = run_doc(capsys, "generate", "--kind", "hyperplanes_orth_equal",
                             "--n", "3", "--seed", "4", "--inclination", "0.5")
        assert same == good

    def test_overflowing_radius_exits_two(self, capsys):
        code, doc = run_doc(capsys, "generate", "--kind", "points_on_hypersphere",
                            "--n", "3", "--radius", "800")
        assert code == 2
        assert doc["error"] == "InfeasibleParams"
        assert "overflow" in doc["message"]

    ZERO_REFUSALS = {
        "radius": ("points_on_hypersphere", "hypersphere radius must be positive"),
        "offset": ("points_on_equidistant", "equidistant offset must be nonzero"),
    }

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.0"])
    @pytest.mark.parametrize("key", ZERO_REFUSALS)
    def test_explicit_zero_params_exit_two(self, capsys, key, value):
        # only an absent key draws at random; a given zero is refused
        kind, message = self.ZERO_REFUSALS[key]
        for argv in ([f"--{key}={value}"], ["--params", f"{key}={value}"]):
            code, doc = run_doc(capsys, "generate", "--kind", kind, "--n", "3", *argv)
            assert code == 2
            assert doc == {"error": "InfeasibleParams", "message": message}

    @pytest.mark.parametrize("kind,n,count", [
        ("horospheres_on_hyperplane_boundary", 3, 3),
        ("generic_points", 3, 6),
        ("generic_horospheres", 3, 5),
        ("generic_hyperplanes", 12, 16),
    ])
    def test_count_outside_the_rank_exits_two(self, capsys, kind, n, count):
        # refused up front: no draw of these counts could ever be admitted
        code, doc = run_doc(capsys, "generate", "--kind", kind, "--n", str(n),
                            "--count", str(count))
        assert code == 2
        assert doc["error"] == "InfeasibleParams"
        assert doc["message"].startswith(kind)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["spread", "radius", "offset", "inclination"])
    def test_non_finite_params_exit_two(self, capsys, key, value):
        for argv in ([f"--{key}={value}"], ["--params", f"{key}={value}"]):
            code, doc = run_doc(capsys, "generate", "--kind", "points_on_horosphere",
                                "--n", "3", *argv)
            assert code == 2
            assert doc["error"] == "InfeasibleParams"
            assert doc["message"].startswith(f"{key} must be finite")

    def test_params_rejects_malformed_pairs(self, capsys):
        code, doc = run_doc(capsys, "generate", "--kind", "generic_points",
                            "--n", "2", "--params", "spread")
        assert code == 2
        assert doc["error"] == "SchemaViolation"
        code, doc = run_doc(capsys, "generate", "--kind", "generic_points",
                            "--n", "2", "--params", "spread=wide")
        assert code == 2
        assert doc["error"] == "SchemaViolation"

    def test_verify_and_classify_run_relation_scenes(self, capsys, tmp_path):
        # a relation scene is a row of the table: verify and classify give
        # the relation command's report under their own command name
        for kind in ("points_on_hypersphere", "spheres_through_point"):
            scene = generate_scene(capsys, tmp_path, "--kind", kind, "--n", "2", "--seed", "1")
            doc = json.loads(Path(scene).read_text())
            doc["theorem"] = "relation"
            scene = write_scene(tmp_path, doc)
            code, want = run_doc(capsys, "relation", scene)
            assert code == 0 and want["relation"]["which"] is not None
            for command in ("verify", "classify"):
                assert run_doc(capsys, command, scene) == (code, {**want, "command": command})

    def test_tolerance_flag_plumbs_through(self, capsys, tmp_path):
        scene = generate_scene(
            capsys, tmp_path, "--kind", "generic_horospheres", "--n", "2", "--seed", "17")
        code, doc = run_doc(capsys, "verify", scene)
        assert code == 1
        code, doc = run_doc(capsys, "verify", scene, "--tol", "1000")
        assert doc["tol"] == 1000.0
        assert code == 0  # an absurdly loose tolerance calls everything degenerate

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["verify", "classify", "relation", "batch"])
    def test_bad_tolerance_is_a_schema_error(self, capsys, tmp_path, command, tol):
        # rejected before the scene is read: the file does not exist
        scene = str(tmp_path / "missing.json")
        argv = {"batch": ["verify", "--scenes-dir", str(tmp_path)]}.get(command, [command, scene])
        code, doc = run_doc(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert doc["error"] == "SchemaViolation"
        assert doc["message"].startswith("--tol ")


class TestBatch:
    def test_directory_aggregate(self, capsys, tmp_path):
        good = generate_scene(
            capsys, tmp_path, "--kind", "horospheres_on_hyperplane_boundary",
            "--n", "2", "--seed", "19", name="a_good.json")
        generic = generate_scene(
            capsys, tmp_path, "--kind", "generic_horospheres", "--n", "2",
            "--seed", "19", name="b_generic.json")
        (tmp_path / "c_broken.json").write_text("nope")
        code, doc = run_doc(capsys, "verify", "--scenes-dir", str(tmp_path))
        assert code == 2  # worst of 0, 1, 2
        reports = doc["reports"]
        assert set(reports) == {"a_good.json", "b_generic.json", "c_broken.json"}
        assert reports["a_good.json"]["verdict"]["degenerate"] is True
        assert reports["b_generic.json"]["verdict"]["degenerate"] is False
        assert reports["c_broken.json"]["error"] == "SchemaViolation"

    def test_scene_and_dir_conflict(self, capsys, tmp_path):
        scene = generate_scene(capsys, tmp_path, "--kind", "generic_points",
                               "--n", "2", "--seed", "21")
        code, doc = run_doc(capsys, "verify", scene, "--scenes-dir", str(tmp_path))
        assert code == 2

    def test_non_finite_report_fails_its_scene_alone(self, capsys, tmp_path):
        write_scene(tmp_path, huge_points_scene(), name="a_huge.json")
        generic = generate_scene(capsys, tmp_path, "--kind", "generic_points", "--n", "3",
                                 "--seed", "1", name="b_generic.json")
        code, doc = run_doc(capsys, "verify", "--scenes-dir", str(tmp_path))
        assert code == 2
        assert doc["reports"]["a_huge.json"] == NON_FINITE
        _, single = run_doc(capsys, "verify", generic)
        assert doc["reports"]["b_generic.json"] == single
        assert single["verdict"]["degenerate"] is False

    @staticmethod
    def undecodable_beside_valid(capsys, tmp_path, name) -> tuple[Path, str]:
        """A batch directory holding one undecodable scene and one valid
        degenerate scene, and the valid scene's single verify report."""
        batch = tmp_path / "batch"
        batch.mkdir()
        scene = generate_scene(capsys, batch, "--kind", "spheres_through_point", "--n", "3",
                               "--seed", "1", name="valid.json")
        _, single = run(capsys, "verify", scene)
        undecodable_scenes(tmp_path)
        (tmp_path / name).rename(batch / name)
        return batch, single

    @pytest.mark.parametrize("name", ["deep.json", "digits.json"])
    def test_undecodable_scene_fails_alone(self, capsys, tmp_path, name):
        batch, single = self.undecodable_beside_valid(capsys, tmp_path, name)
        code, doc = run_doc(capsys, "verify", "--scenes-dir", str(batch))
        assert code == 2
        assert doc["reports"][name]["error"] == "SchemaViolation"
        assert doc["reports"]["valid.json"] == json.loads(single)

    @pytest.mark.parametrize("name", ["deep.json", "digits.json"])
    def test_undecodable_scene_fails_alone_in_a_process(self, capsys, tmp_path, name):
        batch, single = self.undecodable_beside_valid(capsys, tmp_path, name)
        out = python("-m", "lorentzgram.cli", "verify", "--scenes-dir", str(batch),
                     capture_output=True, text=True)
        assert out.returncode == 2, out.stderr
        assert out.stderr == ""
        doc = json.loads(out.stdout)
        assert doc["reports"][name]["error"] == "SchemaViolation"
        assert doc["reports"]["valid.json"] == json.loads(single)


def undecodable_scenes(directory) -> dict:
    """Two casey scene files the JSON decoder refuses by raising other
    than JSONDecodeError: objects nested 100000 deep (RecursionError) and
    a 5000-digit dimension, past the interpreter's integer digit limit
    (ValueError).  Returns {file name: path}."""
    head = '{"schema": "lorentz-gram/1", "theorem": "casey", '
    texts = {
        "deep.json": head + '"dimension": 2, "objects": ' + "[" * 100000 + "]" * 100000 + "}",
        "digits.json": head + '"dimension": 1' + "0" * 5000 + ', "objects": []}',
    }
    for name, text in texts.items():
        (directory / name).write_text(text)
    return {name: str(directory / name) for name in texts}


def huge_points_scene() -> dict:
    """Ten points of H^8 with coordinates near 1e20: a valid ptolemy2 scene
    whose matrix is finite but whose determinant overflows."""
    objects = []
    for i in range(10):
        x = [1e20 * math.sin(1.0 + i * (j + 2)) for j in range(8)]
        objects.append({"type": "point", "coords": x + [math.sqrt(1.0 + sum(v * v for v in x))]})
    return {"schema": "lorentz-gram/1", "dimension": 8, "theorem": "ptolemy2",
            "objects": objects}


NON_FINITE = {"error": "GeometryError", "message": "report contains a non-finite number"}


def overflow_scene(kind: str) -> dict:
    """Four sphere_e records at n = 2 whose numbers overflow in the program:
    "tiny" radii make the lifts' squares overflow, "far" centres the tau
    matrix."""
    if kind == "tiny":
        spheres = [([float(i), 0.0], 1e-300) for i in range(4)]
    else:
        spheres = [([1e200 * i, 0.0], 1.0) for i in range(4)]
    return {"schema": "lorentz-gram/1", "dimension": 2, "theorem": "casey_e",
            "objects": [{"type": "sphere_e", "centre": c, "radius": r, "eps": 1}
                        for c, r in spheres]}


class TestOverflow:
    # finite input whose numbers overflow exits 2 with an error report, never
    # with a traceback and the exit code 1 that means "not degenerate"
    @pytest.mark.parametrize("search", ["--search-signs", "--no-search-signs"])
    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("kind, message", [
        ("tiny", "normal must be unit spacelike"),
        ("far", "matrix entries must be finite"),
    ])
    def test_exits_two(self, capsys, tmp_path, kind, message, command, search):
        path = write_scene(tmp_path, overflow_scene(kind))
        code, doc = run_doc(capsys, command, path, search)
        assert code == 2
        assert doc == {"error": "InvalidInput", "message": message}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_det_is_an_error_report(self, capsys, tmp_path):
        # the determinant's product overflows; a RuntimeWarning there would,
        # under -W error, end the command in a traceback with exit 1
        code, doc = run_doc(capsys, "verify", write_scene(tmp_path, huge_points_scene()))
        assert code == 2
        assert doc == NON_FINITE

    @pytest.mark.parametrize("kind", ["tiny", "far"])
    def test_batch_reports_both(self, capsys, tmp_path, kind):
        write_scene(tmp_path, overflow_scene(kind), name="a_overflow.json")
        generate_scene(capsys, tmp_path, "--kind", "spheres_through_point", "--n", "2",
                       "--seed", "1", name="b_valid.json")
        code, doc = run_doc(capsys, "verify", "--scenes-dir", str(tmp_path))
        assert code == 2
        reports = doc["reports"]
        assert reports["a_overflow.json"]["error"] == "InvalidInput"
        assert reports["b_valid.json"]["verdict"]["degenerate"] is True


def boosted_scene(capsys, tmp_path, kind: str, seed: int, rapidity: float) -> str:
    """A generated casey family at n = 8 whose normals are boosted along the
    last axis, to coordinates near 1e130 at rapidity 300."""
    doc = json.loads(Path(generate_scene(capsys, tmp_path, "--kind", kind, "--n", "8",
                                         "--seed", str(seed))).read_text())
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    for rec in doc["objects"]:
        x, t = rec["normal"][-2:]
        rec["normal"][-2:] = [c * x + s * t, s * x + c * t]
    return write_scene(tmp_path, doc, name="boosted.json")


BOOSTED_KINDS = ["hyperplanes_tangent_at_infinity", "generic_hyperplanes", "hyperplanes_orth_equal"]


class TestBoostedSignSearch:
    # the sign certificate's chord bound raised OverflowError from (G - P)**2
    # at rapidity 300 and 340, a traceback with the exit code 1 that means
    # "not degenerate", and its Newton bound divided by zero at 100
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rapidity", [100, 300, 340])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", BOOSTED_KINDS)
    def test_one_report(self, capsys, tmp_path, kind, seed, rapidity):
        path = boosted_scene(capsys, tmp_path, kind, seed, rapidity)
        for command in ("verify", "classify"):
            code, doc = run_doc(capsys, command, path)
            # 2 only for the determinant that overflows (ROADMAP item 2)
            assert code in (0, 1) or (code, doc) == (2, NON_FINITE), (command, doc)

    def test_module_has_no_traceback(self, capsys, tmp_path):
        path = boosted_scene(capsys, tmp_path, "generic_hyperplanes", 0, 300)
        out = python("-W", "error::RuntimeWarning", "-m", "lorentzgram.cli", "verify", path,
                     capture_output=True, text=True)
        assert out.returncode in (0, 1, 2) and out.stderr == ""
        assert out.stdout.count("\n") == 1 and json.loads(out.stdout)


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "lorentzgram.cli", "generate", "--kind",
             "generic_points", "--n", "2", "--seed", "1"],
            capture_output=True, text=True)
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["schema"] == "lorentz-gram/1"
        path = tmp_path / "scene.json"
        path.write_text(out.stdout)
        check = subprocess.run(
            [sys.executable, "-m", "lorentzgram.cli", "verify", str(path)],
            capture_output=True, text=True)
        assert check.returncode == 1
        assert json.loads(check.stdout)["verdict"]["degenerate"] is False

    def test_unknown_kind_exits_two(self, capsys):
        assert main(["generate", "--kind", "no_such_kind", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'no_such_kind'" in err
        assert all(kind.value in err for kind in GenKind)


SRC = str(Path(lg.__file__).resolve().parents[1])


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package under test, its stdout
    block-buffered as in a plain run, so that a full sink fails the flush
    at exit and not a write inside main()."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


# every public name of the package, by the submodule that defines it
EXPORTS = {
    "errors": "DegenerateDatum DimensionMismatch GeometryError HypothesisViolated "
              "InfeasibleParams InvalidInput NoCommonTangent NoReliableKernel "
              "NormalSearchFailed NotDegenerate NotSymmetric OutsideBall SchemaViolation",
    "genkind": "GenKind",
    "lorentz": "DEFAULT_TOL DegeneracyVerdict SignClass classify degeneracy "
               "first_nonzero_positive gram inner metric_diag norm_sq null_basis",
    "models": "ball_distance ball_to_hyperboloid boundary_to_lightlike "
              "halfspace_to_hyperboloid horosphere_chart horosphere_ideal_centre "
              "horosphere_point hyperboloid_to_ball hyperboloid_to_halfspace "
              "lightlike_to_boundary normal_to_sphere_or_plane sphere_lift sphere_lifts",
    "objects": "HOROSPHERE_LEVEL CoHyperplane CoSphereE EquidistantBranch EuclideanPlane "
               "Horosphere HPoint Hypersphere HyperplaneRelation RelationKind Surface "
               "contains distance half_dist_sinh_sq inversive_distance lambda_length "
               "same_centre sigma sigma_decode tangent_length tau",
    "theorems": "MAX_FAMILY Alternative CaseyCase CaseyCaseKind CaseyResult CoroDResult "
                "EuclideanCaseKind EuclideanCaseyCase FourTermRelation PennerResult "
                "Ptolemy1Result SurfaceKind UmbilicalFit WitnessReport casey_classify "
                "casey_test casey_witness_check corollary_d_test fit_umbilical "
                "four_term_relation half_dist_matrix lambda_sq_matrix penner_test "
                "ptolemy1_test ptolemy2_classify ptolemy2_test sigma_matrix tau_matrix "
                "umbilical_datum",
    "generators": "Configuration GenSpec default_count generate perturb",
    "rng": "SplitMix64",
}

# prints, as JSON: what a bare import loads, __all__, the names dir() lists,
# the names a star import binds, and the names that are not the object their
# submodule defines, whether read as attributes or bound by the star import
EXPORT_PROBE = """
import json, sys
from importlib import import_module
import lorentzgram as lg
loaded = sorted(m for m in sys.modules if m.startswith("lorentzgram.") or m == "numpy")
listed = sorted(set(dir(lg)) & set(lg.__all__))
star = {}
exec("from lorentzgram import *", star)
star.pop("__builtins__")
exports = json.loads(sys.argv[1])
stray = [name for module, names in exports.items() for name in names.split()
         if not getattr(lg, name) is star[name] is getattr(import_module("lorentzgram." + module), name)]
print(json.dumps([loaded, lg.__all__, listed, sorted(star), stray]))
"""


class TestProcess:
    """What a command-line process imports and how it ends."""

    def test_verify_loads_no_generator_code(self, capsys, tmp_path):
        scene = generate_scene(capsys, tmp_path, "--kind", "generic_points", "--n", "3",
                               "--seed", "1")
        probe = ("import json, sys; from lorentzgram.cli import main; main(['verify', sys.argv[1]]); "
                 "json.dump([m for m in sys.modules if m.startswith('lorentzgram.')], sys.stderr)")
        out = python("-c", probe, scene, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stderr)
        assert "lorentzgram.cli" in loaded
        assert "lorentzgram.generators" not in loaded and "lorentzgram.rng" not in loaded

    def test_package_loads_generators_on_first_use(self):
        probe = ("import sys, lorentzgram as lg; before = 'lorentzgram.generators' in sys.modules; "
                 "assert 'generate' in dir(lg) and 'SplitMix64' in dir(lg); "
                 "from lorentzgram.generators import generate; "
                 "print(before, lg.generate is generate, lg.GenKind is lg.generators.GenKind)")
        out = python("-c", probe, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True", "True"]

    def test_package_exports_each_name_from_its_submodule(self):
        out = python("-c", EXPORT_PROBE, json.dumps(EXPORTS), capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        loaded, exported, listed, star, stray = json.loads(out.stdout)
        assert loaded == []  # no submodule, and not numpy, before a name is read
        names =sorted(name for names in EXPORTS.values() for name in names.split())
        assert len(names) == len(set(names)) == 94
        assert sorted(exported) == names and len(exported) == 94
        assert listed == star == names
        assert stray == []

    @pytest.fixture
    def scenes(self, capsys, tmp_path):
        """argv of an exit-0, an exit-1 and an exit-2 verify, of a batch over
        the three scenes, and of an exit-0 batch whose report is larger than
        a pipe's buffer (64 KiB)."""
        directory = tmp_path / "batch"
        directory.mkdir()
        degenerate = generate_scene(capsys, directory, "--kind", "spheres_through_point",
                                    "--n", "3", "--seed", "1", name="a_degenerate.json")
        generic = generate_scene(capsys, directory, "--kind", "generic_horospheres",
                                 "--n", "3", "--seed", "1", name="b_generic.json")
        huge = write_scene(directory, huge_points_scene(), name="c_huge.json")
        big = tmp_path / "big"
        big.mkdir()
        text = Path(degenerate).read_text()
        for i in range(160):
            (big / f"{i:03d}.json").write_text(text)
        return {
            0: ["verify", degenerate],
            1: ["verify", generic],
            2: ["verify", huge],
            "batch": ["verify", "--scenes-dir", str(directory)],
            "big_batch": ["verify", "--scenes-dir", str(big)],
        }

    @pytest.mark.parametrize("case", [0, 1, 2, "batch", "big_batch"])
    @pytest.mark.parametrize("sink", ["file", "pipe"])
    def test_module_matches_in_process(self, capsys, tmp_path, scenes, case, sink):
        argv = scenes[case]
        want_code, want = main(argv), capsys.readouterr().out.encode()
        assert want_code == {"batch": 2, "big_batch": 0}.get(case, case)
        if case == "big_batch":
            assert len(want) > 1 << 16
        command = ["-m", "lorentzgram.cli", *argv]
        if sink == "pipe":
            out = python(*command, stdout=subprocess.PIPE)
            code, got = out.returncode, out.stdout
        else:
            path = tmp_path / "report.json"
            with open(path, "wb") as sink_file:
                code = python(*command, stdout=sink_file).returncode
            got = path.read_bytes()
        assert (code, got) == (want_code, want)

    @pytest.mark.parametrize("case", [0, 1, 2, "batch", "big_batch"])
    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    def test_unwritable_stdout_exits_120(self, scenes, case, flags):
        # a short report, block-buffered, fails at the final flush; unbuffered
        # (-u, as PYTHONUNBUFFERED=1), or larger than the buffer, the write
        # fails inside main(), where no error report can follow it
        with open("/dev/full", "wb") as full:
            out = python(*flags, "-m", "lorentzgram.cli", *scenes[case], stdout=full,
                         stderr=subprocess.PIPE)
        assert (out.returncode, out.stderr) == (120, b"")

    @pytest.mark.parametrize("argv", [
        ["--kind", "points_on_hypersphere", "--radius", "800"],
        ["--kind", "points_on_horosphere", "--spread", "inf"],
        ["--kind", "points_on_hypersphere", "--radius=710"],
        ["--kind", "points_on_hypersphere", "--radius=700"],
        ["--kind", "points_on_horosphere", "--spread=1e200"],
        ["--kind", "generic_points", "--spread=1e200"],
        ["--kind", "points_on_equidistant", "--offset=1e308"],
    ])
    def test_infeasible_generate_exits_two_without_warnings(self, argv):
        out = python("-W", "error::RuntimeWarning", "-m", "lorentzgram.cli", "generate",
                     "--n", "3", *argv, capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (2, "")
        assert json.loads(out.stdout)["error"] == "InfeasibleParams"

    @pytest.mark.parametrize("seed", [1, 3])
    def test_sign_search_ends_on_shifted_spheres(self, capsys, tmp_path, seed):
        # a widened bound of the sign certificate used to round back onto
        # itself on these families, and verify never ended
        scene = generate_scene(capsys, tmp_path, "--kind", "spheres_through_point",
                               "--n", "7", "--seed", str(seed))
        doc = json.loads(Path(scene).read_text())
        for rec in doc["objects"]:
            rec["centre"] = [c + 1e6 for c in rec["centre"]]
        out = python("-m", "lorentzgram.cli", "verify", write_scene(tmp_path, doc),
                     capture_output=True, timeout=60)
        assert out.returncode in (0, 1), out.stderr

    def test_exit_skips_teardown_unless_main_raises(self, scenes):
        # a normal exit leaves atexit hooks unrun; an exception escaping main
        # ends the process through the interpreter's shutdown, hooks and all
        setup = ("import atexit, sys, lorentzgram.cli as cli; "
                 "atexit.register(print, 'atexit ran', file=sys.stderr); ")
        out = python("-c", setup + "cli.entry()", *scenes[1], capture_output=True, text=True)
        assert out.returncode == 1
        assert json.loads(out.stdout)["verdict"]["degenerate"] is False
        assert "atexit ran" not in out.stderr
        raising = setup + "cli.main = lambda argv=None: 1 // 0; cli.entry()"
        out = python("-c", raising, capture_output=True, text=True)
        assert out.returncode == 1
        assert "ZeroDivisionError" in out.stderr and "atexit ran" in out.stderr
