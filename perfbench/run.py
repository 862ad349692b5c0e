"""The repository benchmark: whole ``repro count`` processes, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's input from the seed (cached under ``.perfbench/``,
outside every timing), runs the workload process (``runner.py``) once to
warm the page cache and fix the reference modeled seconds, then runs it
again and again for ``--seconds``.  Every run is checked against the
benchmark's own spectrum of the input (see ``inputs.py``).

``--trace 0`` reports the end-to-end metrics of untraced runs: medians of
``wall_s`` (exec to exit), ``setup_s`` (exec to the runner's ready
marker), ``cpu_s`` and ``peak_rss_mb`` (``os.wait4`` of the process tree)
and ``kmers_per_s`` (input k-mers per wall second).  ``--trace 1`` spends
part of the time on untraced runs and the rest on traced ones, and reports
the per-layer metrics of the traced run with the median traced wall.

The last line of standard output is the JSON result; the lines before it
are ``#``-prefixed details, also written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
RUNNER = HERE / "runner.py"
DB_NAME = "out.rkdb"
EXEC_TIMEOUT_S = 30.0
REAP_TIMEOUT_S = 5.0
START_LIMIT_S = 120.0  # no exec starts later, so a hung program still ends the run within 180 s
MIN_SAMPLES = 3
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, for the overhead baseline

BASE_INPUT = inputs.InputSpec("long", genome_length=200_000, coverage=20, error_rate=0.01)
NOISY_INPUT = inputs.InputSpec("noisy", genome_length=200_000, coverage=20, error_rate=0.05)
COUNT = ["count", "--input", "{fastq}", "--nodes", "4", "--out-db", DB_NAME]


@dataclass(frozen=True)
class Workload:
    name: str
    input: inputs.InputSpec
    argv: list[str]
    env: dict[str, str] = field(default_factory=dict)
    spool: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kmer-spill",
            NOISY_INPUT,
            COUNT + ["--mode", "kmer", "--fused", "--spill", "spool"],
            spool=True,
        ),
        Workload(
            "supermer-proc2",
            BASE_INPUT,
            COUNT + ["--mode", "supermer"],
            env={"REPRO_PARALLEL": "process:2"},
        ),
    )
}
E2E_UNITS = {"wall_s": "s", "kmers_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}
MODEL_KEYS = ("parse_s", "exchange_s", "count_s", "total_kmers", "distinct_kmers", "exchanged_items")


@dataclass
class Exec:
    """One workload process: its measurements and what its checks found."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[str]
    model: dict[str, str]
    trace: dict[str, float] | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, env: dict[str, str] | None = None) -> None:
        self.workload = workload
        self.input = inputs.prepare(workload.input, seed, STATE / "inputs")
        self.work = STATE / "work" / f"{workload.name}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PERFBENCH_"))}
        self.env.update(workload.env)
        self.env.update(env or {})
        self.argv = [a.format(fastq=self.input.fastq) for a in workload.argv]
        model_name = f"{workload.name}-{workload.input.key(seed)}-{_source_digest()}.json"
        self.model_file = STATE / "model" / model_name
        self.runs: list[Exec] = []
        self.start_limit = time.monotonic() + START_LIMIT_S

    def execute(self, traced: bool = False) -> Exec:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        if self.workload.spool:
            (self.work / "spool").mkdir()
        trace_dir = self.work / "trace"
        cmd = [sys.executable, str(RUNNER)]
        if traced:
            trace_dir.mkdir()
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += self.argv
        with open(self.work / "stdout.txt", "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdout=out, stderr=err, start_new_session=True
            )
            timer = threading.Timer(EXEC_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)

        stdout = (self.work / "stdout.txt").read_text(errors="replace")
        failures: list[str] = []
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            failures.append(f"exit {proc.returncode}: {' '.join(tail)}")
        ready = [ln for ln in stdout.splitlines() if ln.startswith("PERFBENCH-READY ")]
        setup = float(ready[0].split()[1]) - t0 if ready else t1 - t0
        if not ready:
            failures.append("no ready marker")
        model = _model_seconds(stdout)
        failures += self._check_outputs()
        failures += self._check_model(model, record=not failures)
        trace = None
        if traced and proc.returncode == 0:
            main, workers = spans.load(trace_dir)
            trace = spans.attribute(main, workers, t0, t1)
        run = Exec(
            wall_s=t1 - t0,
            setup_s=setup,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            failures=failures,
            model=model,
            trace=trace,
        )
        self.runs.append(run)
        return run

    def _check_outputs(self) -> list[str]:
        failures = []
        path = self.work / DB_NAME
        if not path.exists():
            failures.append(f"{DB_NAME} not written")
        else:
            try:
                k, values, counts = inputs.read_db(path)
                if k != inputs.K or not (
                    np.array_equal(values, self.input.keys) and np.array_equal(counts, self.input.counts)
                ):
                    failures.append(f"{DB_NAME} differs from the reference spectrum")
            except ValueError as exc:
                failures.append(str(exc))
        spool = self.work / "spool"
        if spool.exists() and any(spool.iterdir()):
            failures.append(f"spool left behind: {sorted(p.name for p in spool.iterdir())}")
        expected = {"stdout.txt", "stderr.txt", "spool", "trace", DB_NAME}
        extra = sorted(p.name for p in self.work.iterdir() if p.name not in expected)
        if extra:
            failures.append(f"left behind: {extra}")
        return failures

    def _check_model(self, model: dict[str, str], record: bool) -> list[str]:
        """Compare with the first passing run's model output, or become it."""
        if not model:
            return ["no modeled seconds printed"]
        if not self.model_file.exists():
            if not record:
                return []
            self.model_file.parent.mkdir(parents=True, exist_ok=True)
            self.model_file.write_text(json.dumps(model, sort_keys=True))
            return []
        first = json.loads(self.model_file.read_text())
        if first != model:
            return [f"modeled output {model} differs from the first run's {first}"]
        return []

    def close(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)


def _reap_group(pgid: int) -> None:
    """Wait until every process the run left in its session has ended.

    A run on the ``process`` substrate leaves multiprocessing's resource
    tracker behind for about a second after exit.  Anything still there
    after ``REAP_TIMEOUT_S`` is killed; an unreaped zombie is given up on.
    """
    deadline = time.monotonic() + REAP_TIMEOUT_S
    killed = False
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if killed else 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            killed = True
            deadline += REAP_TIMEOUT_S
            continue
        time.sleep(0.01)


def _model_seconds(stdout: str) -> dict[str, str]:
    """Modeled seconds and exact counts, as ``repro count`` prints them."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        words = line.split()
        if len(words) == 2 and words[0] in MODEL_KEYS:
            out[words[0]] = words[1]
    return out


def _source_digest() -> str:
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _cache_sizes() -> dict[str, int | None]:
    sizes: dict[str, int | None] = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            text = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=5).stdout
            sizes[level] = int(text.strip()) or None
        except (OSError, ValueError, subprocess.SubprocessError):
            sizes[level] = None
    return sizes


def _mb(nbytes: int | None) -> float | None:
    return nbytes / 1e6 if nbytes else None


def _summary(values: list[float]) -> dict[str, object]:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out: dict[str, object] = {"median": statistics.median(ordered), "n": n, "samples": values}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def timed_runs(bench: Bench, seconds: float, traced: bool = False) -> list[Exec]:
    runs: list[Exec] = []
    deadline = time.monotonic() + seconds
    while not runs or (
        (len(runs) < MIN_SAMPLES or time.monotonic() < deadline) and time.monotonic() < bench.start_limit
    ):
        runs.append(bench.execute(traced=traced))
    return runs


def end_to_end(runs: list[Exec], kmers: int) -> dict[str, float]:
    ok = [r for r in runs if not r.failures] or runs
    return {
        "wall_s": statistics.median(r.wall_s for r in ok),
        "kmers_per_s": statistics.median(kmers / r.wall_s for r in ok),
        "setup_s": statistics.median(r.setup_s for r in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "cpu_s": statistics.median(r.cpu_s for r in ok),
    }


def per_layer(traced: list[Exec], untraced: list[Exec]) -> dict[str, float]:
    """The traced run with the median traced wall, and its overhead."""
    done = sorted((r.trace for r in traced if r.trace is not None), key=lambda t: t["trace.wall_s"])
    if not done:
        return dict.fromkeys(dict(spans.METRICS), 0.0)
    chosen = dict(done[(len(done) - 1) // 2])
    chosen["trace.overhead"] = chosen["trace.wall_s"] / statistics.median(r.wall_s for r in untraced)
    return chosen


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[dict[str, float], list[Exec]]:
    """The reported metrics and the untraced timed runs behind them."""
    bench.execute()  # warm-up: fixes the reference model seconds, not timed
    if not traced:
        untraced = timed_runs(bench, seconds)
        return end_to_end(untraced, bench.input.kmers), untraced
    untraced = timed_runs(bench, seconds * UNTRACED_SHARE)
    traces = timed_runs(bench, seconds * (1 - UNTRACED_SHARE), traced=True)
    return per_layer(traces, untraced), untraced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        metrics, untraced = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
    runs = bench.runs
    failed = sum(1 for r in runs if r.failures)
    units = E2E_UNITS if not args.trace else dict(spans.METRICS)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cache_bytes": _cache_sizes(),
        "input": {
            "bases": bench.input.bases,
            "reads": bench.input.n_reads,
            "kmers": bench.input.kmers,
            "distinct_kmers": bench.input.distinct,
        },
        "timed": {
            name: _summary([getattr(r, name) for r in untraced])
            for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
        },
        "model": runs[0].model if runs else {},
        "failures": [f for r in runs for f in r.failures],
    }
    if args.trace:
        details["layers"] = metrics
        details["working_set"] = {
            "gpu_table_mb": metrics["gpu.table_mb"],
            "l2_mb": _mb(details["cache_bytes"]["LEVEL2_CACHE_SIZE"]),
            "l3_mb": _mb(details["cache_bytes"]["LEVEL3_CACHE_SIZE"]),
            "spool_bytes": metrics["spill.bytes_written"],
        }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(details, indent=1))
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
