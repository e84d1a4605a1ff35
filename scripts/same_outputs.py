#!/usr/bin/env python3
"""Check that every output of the program is byte-identical to another revision's.

Usage:
    python scripts/same_outputs.py REV

REV (a commit, branch or tag) is exported with `git archive` into a
temporary directory; the other side is this working tree, uncommitted
changes included.  In each tree one worker process runs every case of
`cases()` through `timbrecolor.cli.main` (the sweep script through its own
`main`), each case in a fresh directory.  One more case prints the sha256 of
the arrays `cli._fm_path_rows` returns on the `sweep-fine` grid, whose last
bits no output file shows.  The cases are compared by the
sha256 of every file they leave, by stdout and stderr, and by exit code.
Each case that differs is printed, with the first differing line of a text
file.  Exit status: 0 when no case differs, 1 otherwise.

The case list is built from the settings tests/test_cli.py compares
(SWEEPS, EDGE_SETTINGS, EDGE_CASES) and from the benchmark's workloads in
perfbench/workloads.py, so it needs the test dependencies installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP_SCRIPT = Path("scripts") / "fm_color_sweep.py"
BENCH_SEEDS = (1, 2)  # sweep-fine runs at both, the other workloads at the first


@contextlib.contextmanager
def _inside(directory: Path):
    """contextlib.chdir, which Python 3.10 lacks."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def _case(name: str, argv: list[str], files=None, inputs=None, kind: str = "cli") -> dict:
    """One run: argv for cli.main (kind "cli"), for the sweep script ("script") or
    for _row_digests ("rows"), the text files to write into its directory first,
    and the input files to copy there."""
    return {"name": name, "argv": argv, "files": files or {}, "inputs": inputs or {}, "kind": kind}


def _edge_case(command: str, flag: str, value: str, via: str, settings: dict, tone: Path) -> dict:
    """A TestEdgeValues case: the small settings, one flag at an edge value."""
    fixed = {
        "fm-path": ["--out-wav", "p.wav", "--out-img", "p.ppm", "--out-csv", "p.csv"],
        "wav2color": ["--in", "tone.wav", "--out-img", "p.ppm", "--out-csv", "p.csv"],
        "envelope-transfer": ["--color", "808080", "--out-gesture", "g.txt", "--out-img", "s.ppm"],
    }[command]
    small = {name: v for name, v in settings[command].items() if name != flag}
    argv = [command, *fixed, *(f"--{name}={v}" for name, v in small.items())]
    files = {}
    if via == "flag":
        argv.append(f"--{flag}={value}")
    else:
        files["edge.cfg"] = f"{flag}={value}\n"
        argv += ["--config", "edge.cfg"]
    inputs = {"tone.wav": str(tone)} if command == "wav2color" else {}
    return _case(f"{command} --{flag}={value} via {via}", argv, files, inputs)


def cases(inputs: Path) -> list[dict]:
    """Every case, in a fixed order; their input files are written under inputs."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads
    from test_cli import EDGE_CASES, EDGE_SETTINGS, SWEEPS

    found = []
    for fc, fm, start, end, step, base, flip in SWEEPS:
        argv = ["fm-path", f"--fc={fc!r}", f"--fm={fm!r}", f"--i-start={start!r}",
                f"--i-end={end!r}", f"--i-step={step!r}", f"--base={base!r}"]
        argv += ["--flip-orientation"] if flip else []
        found.append(_case(" ".join(argv), argv))

    tone = inputs / "edge" / "tone.wav"  # TestEdgeValues' tone: 0.05 s of 440 Hz
    tone.parent.mkdir(parents=True)
    t = np.arange(2205) / 44100
    tone.write_bytes(workloads.encode_pcm16(0.5 * np.sin(2.0 * np.pi * 440.0 * t), 44100))
    found += [_edge_case(*case, EDGE_SETTINGS, tone) for case in EDGE_CASES]

    # one tone per analysis route: (what it shows, fundamental, rate, samples, flags)
    routes = [
        ("the per-harmonic route", 261.63, 44100, 2 * 44100, ["--max-harmonic=16"]),
        ("a near-commensurate window", 440.0000001, 44100, 44100, []),
        ("an exact window that does not fold", 1375.0, 8000, 100, ["--max-harmonic=2"]),
        ("a folded cycle with a tail", 220.0, 44100, 2 * 44100 + 333, []),
    ]
    for what, f0, rate, count, flags in routes:
        wav = inputs / "routes" / f"{f0!r}-{rate}-{count}.wav"
        wav.parent.mkdir(exist_ok=True)
        t = np.arange(count) / rate
        wave = 0.1 + 0.5 * np.sin(2.0 * np.pi * f0 * t + 1.0) + 0.2 * np.sin(4.0 * np.pi * f0 * t + 2.5)
        wav.write_bytes(workloads.encode_pcm16(wave, rate))
        argv = ["wav2color", "--in", "tone.wav", f"--fundamental={f0!r}", *flags]
        name = f"wav2color {f0!r} Hz, {count} samples at {rate} Hz: {what}"
        found.append(_case(name, argv, inputs={"tone.wav": str(wav)}))

    runs = [("sweep-fine", seed) for seed in BENCH_SEEDS]
    runs += [("analyze-long", BENCH_SEEDS[0]), ("envelope-dense", BENCH_SEEDS[0])]
    for workload, seed in runs:
        work = inputs / f"{workload}-{seed}"  # inputs the workload writes, such as its WAV
        work.mkdir()
        with _inside(work):
            case = workloads.WORKLOADS[workload](Path("."), seed)
        files = {path.name: str(path) for path in work.iterdir()}
        found.append(_case(f"{workload} seed {seed}", case.argv, inputs=files))
        if workload == "sweep-fine" and seed == BENCH_SEEDS[0]:
            found.append(_case(f"fm-path row arrays of {workload} seed {seed}", case.argv, kind="rows"))

    found.append(_case("fm-path defaults", ["fm-path"]))
    argv = ["fm-path", "--fc=100.0", "--fm=137.3", "--i-end=1000", "--i-step=50", "--seg-dur=0.001"]
    found.append(_case("fm-path to index 1000: rows of up to 2149 lines", argv))
    argv = ["fm-path", "--rate", "8000", "--seg-dur", "0.000125", "--i-end", "0.2", "--i-step", "1e-05"]
    found.append(_case("fm-path over 20001 grid values: 1251 bands, the last one color and 15 black squares", argv))
    argv = ["fm-path", "--i-start=1e-300", "--i-end=1", "--i-step=0.25", "--seg-dur=0.001"]
    found.append(_case("fm-path from index 1e-300: a Bessel column below 2**-600", argv))
    argv = ["fm-path", "--i-end", "2000", "--i-step", "1", "--seg-dur", "0.001"]
    found.append(_case("fm-path to index 2000: refused before the first color row", argv))
    argv = ["envelope-transfer", "--color", "000001", "--sustain-level", "0.001", "--samples-per-segment", "5000"]
    found.append(_case("envelope-transfer below 1e-4: gesture values in e-notation", argv))
    for argv in (["--help"], *([command, "--help"] for command in EDGE_SETTINGS)):
        found.append(_case(" ".join(argv), argv))
    argv = ["fm-path", "--rate", "2147483648", "--seg-dur", "1e-9", "--i-end", "2000"]
    found.append(_case("rate past the WAV limit, index past 1000", argv))
    argv = ["fm-path", "--i-end", "1", "--i-step", "0.25", "--seg-dur", "0.01", "--config", "run.cfg"]
    for value in ("false", "true", "maybe"):
        config = {"run.cfg": f"flip-orientation={value}\n"}
        found.append(_case(f"config flip-orientation={value}", argv, config))
    found.append(_case(str(SWEEP_SCRIPT), [], kind="script"))
    return found


def _row_digests(argv: list[str]) -> int:
    """Print the dtype, shape and sha256 of each array cli._fm_path_rows returns
    on an fm-path argv's sweep.  The CSV prints XYZ to 6 decimals and the log
    prints weight_sum to 9, so a change in their last bits shows only here."""
    from timbrecolor import cli
    from timbrecolor.color import OctaveMap, standard_observer

    flags = dict(zip(argv[1::2], argv[2::2]))
    fc, fm, start, end, step = (float(flags[f"--{key}"]) for key in ("fc", "fm", "i-start", "i-end", "i-step"))
    rows = cli._fm_path_rows(fc, fm, cli.build_index_grid(start, end, step), OctaveMap(), standard_observer())
    for name, array in zip(("xyz", "rgb", "orders", "weights"), rows):
        print(f"{name} {array.dtype} {array.shape} sha256 {hashlib.sha256(array.tobytes()).hexdigest()}")
    return 0


def _run_case(case: dict, tree: Path) -> dict:
    """stdout, stderr and exit code of one case, run in the current directory."""
    from timbrecolor.cli import main

    for name, text in case["files"].items():
        Path(name).write_text(text, encoding="ascii")
    for name, source in case["inputs"].items():
        Path(name).write_bytes(Path(source).read_bytes())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if case["kind"] == "script":
                sys.argv = [str(tree / SWEEP_SCRIPT), *case["argv"]]
                runpy.run_path(sys.argv[0], run_name="__main__")
                code = 0
            elif case["kind"] == "rows":
                code = _row_digests(case["argv"])
            else:
                code = main(case["argv"])
        except SystemExit as exc:  # argparse, --help, and the script's exit
            code = exc.code
        except Exception as exc:  # a fault the CLI does not catch
            code = f"raised {type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _worker(tree: Path, root: Path) -> int:
    """Run root/cases.json against tree's package, case k in root/k; write root/results.json."""
    import timbrecolor

    if not Path(timbrecolor.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported {timbrecolor.__file__}, not the package of {tree}")
    warnings.simplefilter("always")  # each case shows its own warnings, not the first case's
    warnings.showwarning = lambda message, category, *_rest, **_kw: print(
        f"{category.__name__}: {message}", file=sys.stderr
    )  # no file paths or line numbers, which differ from tree to tree
    results = []
    for k, case in enumerate(json.loads((root / "cases.json").read_text())):
        (root / str(k)).mkdir()
        with _inside(root / str(k)):
            results.append(_run_case(case, tree))
    (root / "results.json").write_text(json.dumps(results))
    return 0


def _start_worker(tree: Path, root: Path, found: list[dict]) -> subprocess.Popen:
    """The worker process for one tree, its output in root.log."""
    root.mkdir()
    (root / "cases.json").write_text(json.dumps(found))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")  # COLUMNS: --help wraps alike
    with open(f"{root}.log", "wb") as log:  # the child keeps its own copy of the handle
        return subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree), str(root)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=root,
        )


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def _first_line_diff(old: bytes, new: bytes) -> str:
    """Where two texts first differ, or the two digests if either is binary."""
    try:
        old_lines, new_lines = old.decode("utf-8").splitlines(), new.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return f"sha256 {hashlib.sha256(old).hexdigest()[:16]} != {hashlib.sha256(new).hexdigest()[:16]}"
    for number, (a, b) in enumerate(zip(old_lines + [None], new_lines + [None]), start=1):
        if a != b:
            return f"line {number}: {a!r} != {b!r}"
    return "the same lines, other line ends"


def _differences(old: dict, new: dict, old_dir: Path, new_dir: Path) -> list[str]:
    """What differs in one case, one line per item."""
    found = []
    if old["code"] != new["code"]:
        found.append(f"exit {old['code']!r} != {new['code']!r}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            found.append(f"{stream}: " + _first_line_diff(old[stream].encode(), new[stream].encode()))
    old_files, new_files = _digests(old_dir), _digests(new_dir)
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            found.append(f"{name}: written by one side only")
        elif old_files[name] != new_files[name]:
            texts = ((old_dir / name).read_bytes(), (new_dir / name).read_bytes())
            found.append(f"{name}: " + _first_line_diff(*texts))
    return found


def compare(old_tree: Path, new_tree: Path, found: list[dict], scratch: Path) -> list[str]:
    """Run the cases in both trees at once; a report line per differing case and item."""
    trees = {"old": old_tree, "new": new_tree}
    workers = {side: _start_worker(tree, scratch / side, found) for side, tree in trees.items()}
    codes = {side: worker.wait() for side, worker in workers.items()}  # both end before either is read
    results = {}
    for side, code in codes.items():
        if code != 0:
            log = (scratch / f"{side}.log").read_text(errors="replace")
            raise RuntimeError(f"the worker in {trees[side]} failed:\n{log}")
        results[side] = json.loads((scratch / side / "results.json").read_text())
    report = []
    for k, case in enumerate(found):
        old_dir, new_dir = scratch / "old" / str(k), scratch / "new" / str(k)
        items = _differences(results["old"][k], results["new"][k], old_dir, new_dir)
        if items:
            report.append(f"DIFFERS  {case['name']}")
            report += [f"    {item}" for item in items]
    return report


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as scratch:
        scratch = Path(scratch)
        tree = scratch / "rev"
        tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
        )  # an export, not a git worktree: an interrupted run leaves nothing in the repository
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        (scratch / "inputs").mkdir()
        found = cases(scratch / "inputs")
        report = compare(tree, ROOT, found, scratch)
    print("\n".join(report + [
        f"{len(found)} cases, {sum(line.startswith('DIFFERS') for line in report)} differ: "
        f"{rev} against the working tree, in {time.perf_counter() - began:.1f} s"
    ]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
