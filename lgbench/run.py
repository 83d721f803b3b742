"""Benchmark for lorentzgram: one closed-loop client, one operation at a time.

Run from the repository root:

    python3 lgbench/run.py --workload small-mixed --seed 1 --seconds 40 --trace 0

The corpus is generated from --seed inside the checkout and removed again.
With --trace 0 the run measures the end-to-end metrics for --seconds
seconds; with --trace 1 it reports the per-layer metrics instead.  The last
line of stdout is one JSON object; diagnostics go to stderr.  Exit code 0
means the run finished, whatever the correctness gate found; any other code
means it could not run (no ``src/lorentzgram`` to import, a bad argument).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

MIN_ROUNDS = 3
WARM_SLICES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_scenes_per_s": "scenes/s",
    "scene_ms.p50": "ms",
    "scene_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def measure(ws, gate, seconds: float) -> tuple[dict, dict]:
    """Interleave every phase in short rounds until the time is up.

    The host slows down in spells, so each round runs one repeat of every
    phase, with the warm pass cut into slices between the others, and every
    metric is taken over samples from all rounds: a slow spell then lands
    on all phases alike and moves no metric alone.
    """
    import corpus
    import harness

    items = ws.items
    k = WARM_SLICES
    slices = [items[(i * len(items)) // k:((i + 1) * len(items)) // k] for i in range(k)]
    setup_s, batch_s, rss_mb, process_ms, calib = [], [], [], [], []
    op_ms = {item.name: [] for item in items}

    def warm(part) -> None:
        for op in part:
            t0 = time.perf_counter()
            data, _, _ = harness.run_op(ws.directory, op)
            op_ms[op.name].append((time.perf_counter() - t0) * 1e3)
            gate.check(
                data == ws.reference[op.name],
                f"round {rounds}: {op.name} report bytes changed between repeats",
            )

    start = time.perf_counter()
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        # stop when another round would end nearer the limit's far side than this one
        if rounds >= MIN_ROUNDS and elapsed + elapsed / (2 * rounds) >= seconds:
            break
        rounds += 1
        calib.append(harness.calib_ms())

        target = ws.work / f"setup-{rounds}"
        t0 = time.perf_counter()
        digest = corpus.write_corpus(items, target)
        setup_s.append(time.perf_counter() - t0)
        shutil.rmtree(target)
        gate.check(digest == ws.digest, f"round {rounds}: corpus digest changed")
        warm(slices[0])

        wall, code, out, rss = ws.child(harness.batch_argv(ws.directory, ws.search))
        batch_s.append(wall)
        rss_mb.append(rss)
        ws.check_batch(gate, code, out)
        warm(slices[1])

        # a fresh single-scene process, on another scene each round, must give
        # the in-process bytes; its wall time goes to stderr only (see README)
        item = items[(rounds * 7919) % len(items)]
        wall, code, out, _ = ws.child(harness.op_argv(ws.directory, item))
        process_ms.append(wall * 1e3)
        gate.check(
            code == item.expected and out == ws.reference[item.name],
            f"round {rounds}: fresh {item.op} {item.name} exit {code}, "
            "or its bytes differ from the in-process report",
        )
        warm(slices[2])

    # every operation runs once per round, so the pooled samples weigh them alike
    scene_ms = [ms for samples in op_ms.values() for ms in samples]
    values = {
        "setup_s": statistics.median(setup_s),
        # all scenes the batch processes verified over their total wall time: the
        # host flips between fast and slow spells, and a mean follows the mix
        # smoothly where a median of a few samples jumps between the two
        "batch_scenes_per_s": len(ws.batch_items) * len(batch_s) / sum(batch_s),
        "scene_ms.p50": statistics.median(scene_ms),
        "scene_ms.p90": harness.percentile(scene_ms, 90),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    info = {
        "rounds": rounds,
        "elapsed_s": time.perf_counter() - start,
        "samples": {
            "setup": len(setup_s),
            "batch": len(batch_s),
            "scene": len(scene_ms),
            "process": len(process_ms),
        },
        # per-round figures, so that a slow spell of the host shows here
        "host.calib_ms": calib,
        "setup_s": setup_s,
        "batch_s": batch_s,
        "process_ms": process_ms,
    }
    metrics = {k: {"value": harness.finite(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lorentzgram" / "__init__.py").is_file():
        print(f"no lorentzgram package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # these import lorentzgram, so they load only once src is on the path
    import corpus
    import harness

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".lgbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        env = harness.environment(root, src)
        gate = harness.Gate()
        ws = harness.Workspace(args.workload, args.seed, root, src, work)
        ws.build_reference(gate)
        if args.trace:
            import layers

            metrics, info = layers.traced_run(ws, gate, args.seconds)
        else:
            metrics, info = measure(ws, gate, args.seconds)
        env["loadavg_end"] = list(os.getloadavg())
        print(json.dumps({"environment": env, "run": info}), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
