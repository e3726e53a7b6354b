"""SafetyPin session benchmark: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload recover_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times untraced sessions and reports the end-to-end metrics
(``sessions.END_TO_END``).  ``--trace 1`` runs one untraced segment, then
traced segments whose wrappers record spans at each layer's entry
points, and reports the per-layer metrics (``layers.PER_LAYER``); the
spans are written to ``perfbench/out/``.  ``--workload all`` runs every
workload in turn.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output was wrong (a recovered plaintext that
differs from its backup, or metered op counts that tracing changed) and 2 when
the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (lines, result dict)."""
    from sessions import (
        END_TO_END, SEGMENTS, end_to_end, op_counts_probe, operation_percentiles, run_segment,
    )
    from layers import PER_LAYER, LayerProbe, per_layer, span_table
    from spans import write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    segments, probes = [], []
    for index in range(SEGMENTS):
        probe = LayerProbe().install() if trace and index > 0 else None
        try:
            segments.append(run_segment(workload, seed, index, seconds / SEGMENTS, probe))
        finally:
            if probe is not None:
                probe.uninstall()
        probes.append(probe)

    records = [r for seg in segments for r in seg.records]
    lines = [f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}) =="]
    for index, seg in enumerate(segments):
        lines.append(
            f"  segment {index}{' traced' if probes[index] else ''}: setup {seg.setup_s:.3f} s,"
            f" {len(seg.records)} sessions in {seg.elapsed_s:.2f} s"
            + (", stopped at the key-rotation point" if seg.stopped_at_rotation else "")
        )
    for record in records:
        if not record.ok:
            lines.append(f"  session {record.index} failed: {record.error}")
    correct = not any(r.wrong_output for r in records)

    e2e = end_to_end(segments, _peak_rss_mb())
    for metric, value in {**e2e, **operation_percentiles(segments)}.items():
        unit = END_TO_END.get(metric, ("ms",))[0]
        lines.append(f"  {metric:24s} {value:14.4f} {unit}")

    if not trace:
        metrics = {m: {"value": v, "unit": END_TO_END[m][0]} for m, v in e2e.items()}
    else:
        untraced, traced = segments[0], segments[1:]
        untraced_rate = end_to_end([untraced], 0.0)["sessions_per_s"]
        traced_rate = end_to_end(traced, 0.0)["sessions_per_s"]
        layer = per_layer(traced, untraced_rate, traced_rate, workload.recover)
        metrics = {m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in layer.items()}
        plain_ops = op_counts_probe(workload, seed)
        probe = LayerProbe().install()
        try:
            traced_ops = op_counts_probe(workload, seed, probe)
        finally:
            probe.uninstall()
        if traced_ops != plain_ops:
            correct = False
            lines.append("  tracing changed the metered op counts of a pinned-entropy session")
        else:
            lines.append(f"  op counts of a pinned-entropy session identical traced and untraced"
                         f" ({len(plain_ops)} op kinds)")
        lines.append("  per-layer metrics (traced segments):")
        for metric, value in layer.items():
            lines.append(f"    {metric:36s} {value:14.4f} {PER_LAYER[metric][0]}")
        lines.append("  model vs measurement, per session:")
        lines.append(
            "    metered ops: " + ", ".join(
                f"{op} {layer[f'ops.{op}_per_session']:.1f}"
                for op in ("ec_mult", "ecdsa_verify", "aes_block", "sha256_block")
            )
        )
        hsm_ms = sum(
            span.duration for seg in traced for span in seg.spans
            if span.name.startswith("hsm.device.")
        ) * 1000.0 / max(1, sum(len(seg.records) for seg in traced))
        lines.append(f"    modeled SoloKey device time {layer['ops.modeled_device_s_per_session']:10.3f} s")
        lines.append(f"    measured HSM wall time      {hsm_ms / 1000.0:10.3f} s"
                     " (decrypt_share + epoch accept/audit, summed over devices)")
        lines.append(f"    measured securedel.delete   {layer['securedel.delete_ms']:10.3f} ms per call")
        lines.append("  spans (traced segments):")
        lines.extend(span_table(traced))
        os.makedirs(OUT, exist_ok=True)
        for index, (seg, probe) in enumerate(zip(segments, probes)):
            if probe is None:
                continue
            path = os.path.join(OUT, f"trace-{name}-seed{seed}-seg{index}.jsonl")
            write_spans(path, seg.setup_spans + seg.spans, {
                "workload": name, "seed": seed, "segment": index,
                "session_epochs": probe.session_epochs,
            })
            lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's source ({SRC}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, allow_nan=False))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
