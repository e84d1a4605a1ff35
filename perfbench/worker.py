"""One benchmark repetition, run in a fresh Python process.

    python3 worker.py probe ROOT            import timbrecolor.cli, say "ready"
    python3 worker.py run ROOT ARGS...      ... then time cli.main(ARGS)
    python3 worker.py trace ROOT ARGS...    ... the same with every public
                                            function wrapped in a span

The library is imported from ROOT/src and nowhere else.  After "ready"
the last stdout line is RESULT_PREFIX followed by a JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

# One BLAS/OpenMP thread: with two on a 2-vCPU machine, wav2color spends
# twice its wall time in CPU and its wall time spreads widely.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULT_PREFIX = "PERFBENCH_RESULT "


def main() -> int:
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    mode, root = sys.argv[1], os.path.abspath(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import timbrecolor.cli

    if not os.path.abspath(timbrecolor.cli.__file__).startswith(src + os.sep):
        print(f"timbrecolor imported from {timbrecolor.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    if mode == "probe":
        return 0

    tracer = None
    root_span = contextlib.nullcontext()
    if mode == "trace":
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        root_span = tracer.span("cli.main")
    error = None
    start = time.perf_counter()
    try:
        with root_span:
            code = timbrecolor.cli.main(sys.argv[3:])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    if error is None and code != 0:
        error = f"cli.main returned {code!r}"
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["counter_errors"] = tracer.counter_errors[:5]
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
