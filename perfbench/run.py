"""Benchmark of the timbrecolor CLI; run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is one `timbrecolor.cli.main` call in a fresh worker
process, so the library's caches start cold as they do for a CLI user.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it also makes one traced repetition and reports the
per-layer metrics.  The last stdout line is the JSON result; progress
goes to stderr.  Without ROOT/src/timbrecolor the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from worker import RESULT_PREFIX, THREAD_ENV
from workloads import WORKLOADS, Case

WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_PROBES = 9  # timed imports per run, after one untimed warm-up
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take


@dataclass
class Rep:
    wall_s: float | None = None
    peak_rss_mb: float | None = None
    error: str | None = None
    layers: dict = field(default_factory=dict)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_rep(root: Path, case: Case, mode: str, timeout: float, verified: set[str]) -> Rep:
    """One CLI call in a fresh worker, then its output checks.

    Outputs byte-identical to ones that already passed the checks in
    this run are not checked again.  Any failure lands in Rep.error.
    """
    for path in case.outputs:
        path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, str(root), *case.argv],
            cwd=case.outputs[0].parent, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Rep(error=f"worker timed out after {timeout:.0f} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        return Rep(error=f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    raw = json.loads(lines[-1][len(RESULT_PREFIX):])
    rep = Rep(wall_s=raw["wall_s"], peak_rss_mb=raw["peak_rss_mb"], error=raw["error"],
              layers=raw.get("layers", {}))
    for message in raw.get("counter_errors", []):
        print(f"perfbench: counter error: {message}", file=sys.stderr)
    if rep.error is None:
        try:
            digest = _digest(case.outputs)
            if digest not in verified:
                case.check()
                verified.add(digest)
        except Exception as exc:  # a failed check is a failed rep, not a crash
            rep.error = f"output check: {type(exc).__name__}: {exc}"
    for path in case.outputs:
        path.unlink(missing_ok=True)
    return rep


def probe_setup(root: Path, count: int) -> list[float]:
    """Seconds from starting a fresh worker to timbrecolor.cli imported."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "probe", str(root)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            _out, err = proc.communicate(timeout=60)
        if not ready or proc.returncode != 0:
            raise RuntimeError(f"import probe failed ({proc.returncode}): {err.strip()[-2000:]}")
        times.append(elapsed)
    return times


def measure(root: Path, case: Case, seconds: float, deadline: float,
            verified: set[str]) -> list[Rep]:
    """Untraced repetitions until `seconds` have passed (at least one)."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        left = deadline - time.perf_counter()
        if left <= 1.0:
            break
        rep = run_rep(root, case, "run", left, verified)
        reps.append(rep)
        print(f"perfbench: rep {len(reps)} wall_s={rep.wall_s} error={rep.error}",
              file=sys.stderr)
        if rep.wall_s is None:  # crashed or timed out: repeating would not help
            break
    return reps


def timed(reps: list[Rep]) -> list[Rep]:
    out = [r for r in reps if r.wall_s is not None]
    if not out:
        raise RuntimeError(f"no repetition produced a time: {reps[0].error}")
    return out


def end_to_end(reps: list[Rep], setup: list[float], media_seconds: float) -> dict[str, float]:
    timed_reps = timed(reps)
    return {
        "wall_s": statistics.median(r.wall_s for r in timed_reps),
        "setup_s": statistics.median(setup),
        "audio_x_realtime": statistics.median(media_seconds / r.wall_s for r in timed_reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed_reps),
    }


def result_line(reps: list[Rep], metrics: dict[str, float], units: dict[str, str]) -> str:
    failed = sum(r.error is not None for r in reps)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def machine_notes() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} worker_threads={THREAD_ENV}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd().resolve()
    if not (root / "src" / "timbrecolor" / "__init__.py").is_file():
        print(f"perfbench: no timbrecolor sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the output checks that parse
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"perfbench: {args.workload} seed={args.seed} {machine_notes()}", file=sys.stderr)

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        case = WORKLOADS[args.workload](work, args.seed)
        verified: set[str] = set()
        if args.trace:
            reps = measure(root, case, args.seconds, deadline, verified)
            untraced = statistics.median(r.wall_s for r in timed(reps))
            traced = run_rep(root, case, "trace", deadline - time.perf_counter(), verified)
            reps.append(traced)
            if traced.wall_s is None:
                raise RuntimeError(f"traced repetition failed: {traced.error}")
            metrics = dict(traced.layers)
            metrics["trace.overhead_s"] = traced.wall_s - untraced
            metrics["fail_frac"] = sum(r.error is not None for r in reps) / len(reps)
        else:
            probe_setup(root, 1)  # compiles bytecode; not timed
            setup = probe_setup(root, SETUP_PROBES)
            reps = measure(root, case, args.seconds, deadline, verified)
            metrics = end_to_end(reps, setup, case.media_seconds)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for rep in reps:
        if rep.error:
            print(f"perfbench: failed rep: {rep.error}", file=sys.stderr)
    missing = set(units) ^ set(metrics)
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    print(result_line(reps, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
