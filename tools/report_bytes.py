"""Digests of every report and scene the program writes, for comparing two trees.

Run from the root of a checkout:

    PYTHONPATH=src python tools/report_bytes.py

It prints one line per group: a sha256 over the group's outputs and their
count.  Two trees that print the same lines wrote the same bytes, exit codes
included.  The groups are:

* the corpus bytes of the three lgbench workloads at seeds 1, 2 and 2026 and
  of the 624-scene baseline corpus at seed 1;
* every report of those corpora through ``cli.main``, under verify and
  classify, each plain, with --emit-disk and with --no-search-signs, and the
  relation scenes under relation;
* ``generate`` of every kind at n = 2..8, seeds 0-2, with and without
  --emit-disk.

Everything runs in this process, in a temporary directory; it takes under
a minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from lgbench import corpus  # noqa: E402
from lorentzgram import cli  # noqa: E402
from lorentzgram.genkind import GenKind  # noqa: E402

MODES = {"plain": [], "disk": ["--emit-disk"], "nosearch": ["--no-search-signs"]}


def _call(argv: list[str]) -> bytes:
    """The exit code and stdout of cli.main on argv."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}".encode("utf-8")


def _line(name: str, outputs: list[bytes]) -> str:
    digest = hashlib.sha256()
    for data in outputs:
        digest.update(len(data).to_bytes(8, "little") + data)
    return f"{name} {digest.hexdigest()} {len(outputs)}"


def corpus_lines(name: str, items: list, root: Path) -> list[str]:
    directory = root / name
    lines = [f"{name} corpus {corpus.write_corpus(items, directory)} {len(items)}"]
    scenes = [corpus.scene_path(directory, item) for item in items if not item.relation]
    for command in ("verify", "classify"):
        for mode, flags in MODES.items():
            outputs = [_call([command, str(path), *flags]) for path in scenes]
            lines.append(_line(f"{name} {command} {mode}", outputs))
    relation = [corpus.scene_path(directory, item) for item in items if item.relation]
    if relation:
        lines.append(_line(f"{name} relation", [_call(["relation", str(p)]) for p in relation]))
    return lines


def generate_lines() -> list[str]:
    lines = []
    for kind in GenKind:
        for flags in ([], ["--emit-disk"]):
            argvs = [
                ["generate", "--kind", kind.value, "--n", str(n), "--seed", str(seed), *flags]
                for n in range(2, 9)
                for seed in range(3)
            ]
            label = "disk" if flags else "plain"
            lines.append(_line(f"generate {kind.value} {label}", [_call(a) for a in argvs]))
    return lines


def main() -> None:
    corpora = [
        (f"{workload}@{seed}", corpus.workload_items(workload, seed))
        for workload in corpus.WORKLOADS
        for seed in (1, 2, 2026)
    ]
    corpora.append(("roadmap624@1", corpus.roadmap624_items(1)))
    with tempfile.TemporaryDirectory() as tmp:
        for name, items in corpora:
            for line in corpus_lines(name, items, Path(tmp)):
                print(line, flush=True)
    for line in generate_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
