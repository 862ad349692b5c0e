#!/usr/bin/env python
"""Micro-benchmark: the staged execution core's host wall-clock.

Runs the same Fig. 6 workload as ``bench_parallel.py`` (small Table I
datasets, 16 Summit nodes, CPU baseline + GPU k-mer + GPU supermer
variants) through the staged stage-graph engine, verifies sequential,
thread-pool, and fused whole-cluster execution all stay bit-identical,
and records wall-clock times into ``BENCH_stages.json``.

When a ``BENCH_parallel.json`` recorded before the staged refactor is
present, each cell's sequential time is compared against it so the
refactor's host-side overhead is visible: the staged core should match
the monolithic engine within measurement noise (model seconds are
bit-identical by the golden suite; this benchmark is about host time
only).

The fused column runs the same cells through the whole-cluster fused
path (``EngineOptions(fused=True)`` with one shared scratch arena; see
docs/PERFORMANCE.md); ``fused_speedup`` is per-cell staged-sequential /
fused host time.

The spill columns run the same cells through the out-of-core paths —
staged (``EngineOptions(spill_dir=...)``: exchange partitions spooled
to disk, external merge) and blocked fused×spill (``fused=True`` +
``spill_dir``: fused send buffers spooled rank-segmented, streamed back
into the segmented table one rank block at a time) — assert both stay
bit-identical, and record their overhead ratios into
``BENCH_spill.json`` so the guard can bound the cost of spilling.

Usage::

    PYTHONPATH=src python benchmarks/bench_stages.py [--out BENCH_stages.json]
        [--baseline BENCH_parallel.json] [--workers N] [--nodes 16]
        [--datasets ecoli30x,...] [--repeats 2]
        [--trace-overhead BENCH_trace_overhead.json]

``--trace-overhead`` adds a span-traced sequential column (paired, timed
back-to-back with the untraced one) and reports the overhead ratio
against the ≤3% budget from docs/TELEMETRY.md.

``--substrates thread:2,process:2 --parallel-out BENCH_parallel.json``
times the same cells under explicit execution-substrate settings
(docs/EXECUTION.md) — identity asserted per cell — and writes one row
per cell x substrate with the host ``cpu_count``, so thread-vs-process
overhead is recorded next to the machine that measured it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.bench.runner import dataset_with_multiplier  # noqa: E402
from repro.core.config import PipelineConfig  # noqa: E402
from repro.core.engine import EngineOptions, run_pipeline  # noqa: E402
from repro.core.memory import ScratchArena  # noqa: E402
from repro.core.parallel import resolve_workers  # noqa: E402
from repro.dna.datasets import SMALL_DATASETS  # noqa: E402
from repro.mpi.topology import summit_cpu, summit_gpu  # noqa: E402

#: The Fig. 6 variant grid: (backend, mode, minimizer_len).
VARIANTS = [("cpu", "kmer", 7), ("gpu", "kmer", 7), ("gpu", "supermer", 7)]

#: Per-total tolerance band for "matches the pre-refactor baseline".
#: Single-cell host times on a shared box jitter far more than this
#: (BENCH_parallel.json itself shows 0.6-1.1x cell-to-cell), so the
#: comparison is made on the grid total.
NOISE_BAND = (0.67, 1.5)


def _assert_identical(a, b, label: str) -> None:
    ok = (
        a.spectrum.equals(b.spectrum)
        and a.timing == b.timing
        and np.array_equal(a.per_rank_parse, b.per_rank_parse)
        and np.array_equal(a.per_rank_count, b.per_rank_count)
        and np.array_equal(a.counts_matrix, b.counts_matrix)
        and a.exchanged_items == b.exchanged_items
        and a.exchanged_bytes == b.exchanged_bytes
        and a.insert_stats == b.insert_stats
    )
    if not ok:
        raise AssertionError(f"pooled staged engine diverged from sequential on {label}")


def _run_grid(datasets, nodes, workers, repeats, arena, spill_dir=None, trace=False, substrates=()):
    """Best-of-``repeats`` wall time per (dataset, variant, execution-path) cell.

    The execution paths are timed back-to-back inside every repeat
    (paired measurement): comparing separate full-grid passes lets slow
    drift in machine state (clock throttling, allocator growth) land
    entirely on whichever path happens to run last.  When ``spill_dir``
    is given, a fourth out-of-core path spools exchange partitions there
    and is timed alongside the in-memory ones.  ``substrates`` adds one
    path per explicit execution-substrate setting (``"thread:2"``,
    ``"process:2"``, ...) keyed ``substrate:<setting>`` so substrate
    overhead is measured under the same pairing.
    """
    cells = {}
    for name in datasets:
        reads, mult = dataset_with_multiplier(name)
        for backend, mode, m in VARIANTS:
            cluster = summit_gpu(nodes) if backend == "gpu" else summit_cpu(nodes)
            config = PipelineConfig(k=17, mode=mode, minimizer_len=m)
            paths = {
                "sequential": EngineOptions(work_multiplier=mult, parallel=1),
                "parallel": EngineOptions(work_multiplier=mult, parallel=workers),
                "fused": EngineOptions(work_multiplier=mult, parallel=1, fused=True, arena=arena),
            }
            for setting in substrates:
                paths[f"substrate:{setting}"] = EngineOptions(
                    work_multiplier=mult, parallel=setting
                )
            if spill_dir is not None:
                paths["spill"] = EngineOptions(
                    work_multiplier=mult, parallel=1, spill_dir=spill_dir
                )
                paths["fused-spill"] = EngineOptions(
                    work_multiplier=mult, parallel=1, fused=True, arena=arena, spill_dir=spill_dir
                )
            if trace:
                paths["traced"] = EngineOptions(work_multiplier=mult, parallel=1, trace=True)
            best = dict.fromkeys(paths, float("inf"))
            results = {}
            for _ in range(repeats):
                for path, options in paths.items():
                    if path == "traced":
                        options.trace.clear()  # pay recording, not accumulation
                    t0 = perf_counter()
                    results[path] = run_pipeline(
                        reads, cluster, config, backend=backend, options=options
                    )
                    best[path] = min(best[path], perf_counter() - t0)
            cells[f"{name}/{backend}-{mode}-m{m}"] = (best, results)
    return cells


def load_baseline_cells(path: str) -> dict[str, float]:
    """Per-cell sequential seconds of a baseline record.

    An empty path, or one that names no file, means no baseline: ``{}``.
    """
    if not path or not Path(path).is_file():
        return {}
    baseline = json.loads(Path(path).read_text())
    return {row["cell"]: row["sequential_s"] for row in baseline.get("cells", [])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--out", default="BENCH_stages.json", help="output JSON path")
    ap.add_argument(
        "--spill-out",
        default="BENCH_spill.json",
        help="out-of-core benchmark JSON path (empty string disables the spill column)",
    )
    ap.add_argument(
        "--baseline",
        default="BENCH_parallel.json",
        help="pre-refactor benchmark JSON to compare against (skipped if empty or absent)",
    )
    ap.add_argument("--workers", type=int, default=0, help="parallel worker count (0 = auto)")
    ap.add_argument("--nodes", type=int, default=16, help="simulated Summit node count")
    ap.add_argument("--datasets", default=",".join(SMALL_DATASETS), help="comma-separated Table I names")
    ap.add_argument("--repeats", type=int, default=2, help="take the best of N runs per cell")
    ap.add_argument(
        "--trace-overhead",
        default="",
        metavar="JSON",
        help="also time a span-traced sequential column (EngineOptions(trace=True)) "
        "paired against the untraced one and write the overhead report here; "
        "off by default so the committed BENCH files are not touched",
    )
    ap.add_argument(
        "--substrates",
        default="",
        metavar="SETTINGS",
        help="comma-separated execution-substrate settings (e.g. thread:2,process:2) "
        "to time as extra paired columns; empty disables the substrate grid",
    )
    ap.add_argument(
        "--parallel-out",
        default="",
        metavar="JSON",
        help="write the substrate comparison (one row per cell x substrate, with "
        "cpu_count) here; off by default so the committed BENCH_parallel.json "
        "is not clobbered",
    )
    args = ap.parse_args(argv)

    datasets = [d for d in args.datasets.split(",") if d]
    workers = args.workers if args.workers > 0 else resolve_workers("auto")
    world = summit_gpu(args.nodes).n_ranks
    substrates = [s for s in args.substrates.split(",") if s]

    print(f"staged-core fig6 workload: {datasets} on {args.nodes} nodes ({world} GPU ranks)")
    with tempfile.TemporaryDirectory(prefix="bench-spool-") as spool:
        cells = _run_grid(
            datasets,
            args.nodes,
            workers,
            args.repeats,
            ScratchArena(),
            spill_dir=spool if args.spill_out else None,
            trace=bool(args.trace_overhead),
            substrates=substrates,
        )

    baseline_cells = load_baseline_cells(args.baseline)

    rows = []
    for key, (best, results) in cells.items():
        seq_s, par_s, fused_s = best["sequential"], best["parallel"], best["fused"]
        _assert_identical(results["sequential"], results["parallel"], key)
        _assert_identical(results["sequential"], results["fused"], f"{key} (fused)")
        row = {
            "cell": key,
            "sequential_s": round(seq_s, 4),
            "parallel_s": round(par_s, 4),
            "fused_s": round(fused_s, 4),
            "fused_speedup": round(seq_s / fused_s, 3),
        }
        trace_note = ""
        if "traced" in results:
            _assert_identical(results["sequential"], results["traced"], f"{key} (traced)")
            row["traced_s"] = round(best["traced"], 4)
            row["trace_overhead"] = round(best["traced"] / seq_s, 3)
            trace_note = f"  traced {best['traced']:7.3f}s ({row['trace_overhead']:.3f}x)"
        spill_note = ""
        if "spill" in results:
            _assert_identical(results["sequential"], results["spill"], f"{key} (spill)")
            row["spill_s"] = round(best["spill"], 4)
            row["spill_overhead"] = round(best["spill"] / seq_s, 3)
            spill_note = f"  spill {best['spill']:7.3f}s ({row['spill_overhead']:.2f}x)"
        if "fused-spill" in results:
            _assert_identical(results["sequential"], results["fused-spill"], f"{key} (fused-spill)")
            row["fused_spill_s"] = round(best["fused-spill"], 4)
            # Overhead vs the in-memory fused path: same supersteps, the
            # delta is the disk round-trip through the spool.
            row["fused_spill_overhead"] = round(best["fused-spill"] / fused_s, 3)
            spill_note += (
                f"  fspill {best['fused-spill']:7.3f}s ({row['fused_spill_overhead']:.2f}x)"
            )
        substrate_note = ""
        for setting in substrates:
            path = f"substrate:{setting}"
            _assert_identical(results["sequential"], results[path], f"{key} ({setting})")
            row.setdefault("substrates", {})[setting] = {
                "wall_s": round(best[path], 4),
                "speedup": round(seq_s / best[path], 3),
                "cpu_count": os.cpu_count(),
            }
            substrate_note += f"  {setting} {best[path]:7.3f}s ({seq_s / best[path]:.2f}x)"
        note = ""
        if key in baseline_cells:
            row["baseline_sequential_s"] = baseline_cells[key]
            row["vs_baseline"] = round(seq_s / baseline_cells[key], 3)
            note = f"  vs pre-refactor {row['vs_baseline']:5.2f}x"
        rows.append(row)
        print(
            f"  {key:45s} seq {seq_s:7.3f}s  par {par_s:7.3f}s  "
            f"fused {fused_s:7.3f}s ({row['fused_speedup']:.2f}x)"
            f"{trace_note}{spill_note}{substrate_note}{note}"
        )

    total_seq = sum(r["sequential_s"] for r in rows)
    total_par = sum(r["parallel_s"] for r in rows)
    total_fused = sum(r["fused_s"] for r in rows)
    payload = {
        "workload": "fig6",
        "engine": "staged",
        "datasets": datasets,
        "n_nodes": args.nodes,
        "world_size_gpu": world,
        "variants": [f"{b}-{m}-m{mm}" for b, m, mm in VARIANTS],
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "results_identical": True,
        "sequential_total_s": round(total_seq, 4),
        "parallel_total_s": round(total_par, 4),
        "fused_total_s": round(total_fused, 4),
        "fused_speedup": round(total_seq / total_fused, 3),
        "cells": rows,
    }
    if baseline_cells:
        base_total = sum(
            r["baseline_sequential_s"] for r in rows if "baseline_sequential_s" in r
        )
        matched_total = sum(r["sequential_s"] for r in rows if "baseline_sequential_s" in r)
        ratio = matched_total / base_total if base_total else float("inf")
        payload["baseline"] = {
            "path": args.baseline,
            "sequential_total_s": round(base_total, 4),
            "ratio": round(ratio, 3),
            "noise_band": list(NOISE_BAND),
            "within_noise": NOISE_BAND[0] <= ratio <= NOISE_BAND[1],
        }
        print(
            f"vs pre-refactor baseline: {ratio:.3f}x total "
            f"({'within' if payload['baseline']['within_noise'] else 'OUTSIDE'} "
            f"noise band {NOISE_BAND[0]}-{NOISE_BAND[1]})"
        )

    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2))
    print(
        f"total: seq {total_seq:.3f}s  par {total_par:.3f}s  "
        f"fused {total_fused:.3f}s ({payload['fused_speedup']:.2f}x) -> {out}"
    )

    if args.spill_out and any("spill_s" in r for r in rows):
        total_spill = sum(r["spill_s"] for r in rows if "spill_s" in r)
        total_fused_spill = sum(r["fused_spill_s"] for r in rows if "fused_spill_s" in r)
        spill_payload = {
            "workload": "fig6",
            "engine": "staged+spill",
            "datasets": datasets,
            "n_nodes": args.nodes,
            "repeats": args.repeats,
            "results_identical": True,
            "sequential_total_s": round(total_seq, 4),
            "spill_total_s": round(total_spill, 4),
            "spill_overhead": round(total_spill / total_seq, 3),
            "fused_total_s": round(total_fused, 4),
            "fused_spill_total_s": round(total_fused_spill, 4),
            "fused_spill_overhead": round(total_fused_spill / total_fused, 3),
            "cells": [
                {
                    "cell": r["cell"],
                    "sequential_s": r["sequential_s"],
                    "spill_s": r["spill_s"],
                    "spill_overhead": r["spill_overhead"],
                    "fused_s": r["fused_s"],
                    "fused_spill_s": r["fused_spill_s"],
                    "fused_spill_overhead": r["fused_spill_overhead"],
                }
                for r in rows
                if "spill_s" in r
            ],
        }
        spill_out = Path(args.spill_out)
        spill_out.write_text(json.dumps(spill_payload, indent=2))
        print(
            f"spill: {total_spill:.3f}s total "
            f"({spill_payload['spill_overhead']:.2f}x of sequential); "
            f"fused-spill: {total_fused_spill:.3f}s total "
            f"({spill_payload['fused_spill_overhead']:.2f}x of fused) -> {spill_out}"
        )

    if args.parallel_out and substrates:
        sub_rows = [
            {
                "cell": r["cell"],
                "substrate": setting,
                "cpu_count": cell_stats["cpu_count"],
                "sequential_s": r["sequential_s"],
                "parallel_s": cell_stats["wall_s"],
                "speedup": cell_stats["speedup"],
            }
            for r in rows
            for setting, cell_stats in r.get("substrates", {}).items()
        ]
        sub_totals = {
            setting: round(
                sum(row["parallel_s"] for row in sub_rows if row["substrate"] == setting), 4
            )
            for setting in substrates
        }
        parallel_payload = {
            "workload": "fig6",
            "engine": "staged+substrates",
            "datasets": datasets,
            "n_nodes": args.nodes,
            "world_size_gpu": world,
            "substrates": substrates,
            "cpu_count": os.cpu_count(),
            "repeats": args.repeats,
            "results_identical": True,
            "sequential_total_s": round(total_seq, 4),
            "substrate_totals_s": sub_totals,
            "speedups": {
                setting: round(total_seq / sub_totals[setting], 3) if sub_totals[setting] else None
                for setting in substrates
            },
            "cells": sub_rows,
        }
        parallel_out = Path(args.parallel_out)
        parallel_out.write_text(json.dumps(parallel_payload, indent=2))
        for setting in substrates:
            print(
                f"substrate {setting}: {sub_totals[setting]:.3f}s total "
                f"({parallel_payload['speedups'][setting]:.2f}x of sequential, "
                f"cpu_count={os.cpu_count()}) -> {parallel_out}"
            )

    if args.trace_overhead and any("traced_s" in r for r in rows):
        total_traced = sum(r["traced_s"] for r in rows if "traced_s" in r)
        trace_payload = {
            "workload": "fig6",
            "engine": "staged+spans",
            "datasets": datasets,
            "n_nodes": args.nodes,
            "repeats": args.repeats,
            "results_identical": True,
            "sequential_total_s": round(total_seq, 4),
            "traced_total_s": round(total_traced, 4),
            "trace_overhead": round(total_traced / total_seq, 3),
            "budget": 1.03,
            "within_budget": total_traced / total_seq <= 1.03,
            "cells": [
                {
                    "cell": r["cell"],
                    "sequential_s": r["sequential_s"],
                    "traced_s": r["traced_s"],
                    "trace_overhead": r["trace_overhead"],
                }
                for r in rows
                if "traced_s" in r
            ],
        }
        trace_out = Path(args.trace_overhead)
        trace_out.write_text(json.dumps(trace_payload, indent=2))
        print(
            f"tracing: {total_traced:.3f}s total "
            f"({trace_payload['trace_overhead']:.3f}x of sequential, budget 1.03x: "
            f"{'OK' if trace_payload['within_budget'] else 'OVER'}) -> {trace_out}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
