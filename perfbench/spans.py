"""Span tracing for the benchmark's traced run, kept outside the library.

`Tracer.install` wraps every public function of ``timbrecolor`` (the
callables in ``timbrecolor.__all__`` that are not classes) at every
``timbrecolor.*`` module attribute that binds it, so a call through
``cli.bessel_row`` and one through ``spectrum.bessel_row`` both record a
span.  Each span is ``(name, start, end, parent)``; ``name`` is
``<layer>.<function>`` with the layer taken from the defining module.
Work counts are taken at the same boundaries from arguments and results.

Classes in ``__all__`` are left alone: replacing a class breaks
``isinstance`` and dataclass machinery inside the library.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

PACKAGE = "timbrecolor"


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _bessel_row(t: "Tracer", args, kwargs, result) -> None:
    t.rows.add(float(_arg(args, kwargs, 0, "modulation_index")))
    t.counts["bessel.coeffs"] += len(result.values)


def _fm_sidebands(t: "Tracer", args, kwargs, result) -> None:
    t.counts["spectrum.raw_lines"] += len(result)


def _fold_spectrum(t: "Tracer", args, kwargs, result) -> None:
    t.counts["spectrum.folded_lines"] += len(result.lines)


def _spectrum_xyz_raw(t: "Tracer", args, kwargs, result) -> None:
    t.counts["color.lines_colored"] += len(_arg(args, kwargs, 0, "spectrum").lines)


def _xyz_to_srgb(t: "Tracer", args, kwargs, result) -> None:
    t.counts["color.colors"] += 1


def _render_fm_path(t: "Tracer", args, kwargs, result) -> None:
    t.counts["synth.render_samples"] += len(result.samples)


def _analyze_harmonics(t: "Tracer", args, kwargs, result) -> None:
    t.counts["synth.analyze_samples"] += len(_arg(args, kwargs, 0, "wave").samples)
    t.counts["synth.harmonics"] += int(_arg(args, kwargs, 2, "max_harmonic"))


def _write_wav(t: "Tracer", args, kwargs, result) -> None:
    # fixed 44-byte header plus two bytes per sample
    t.counts["wavefile.bytes"] += 44 + 2 * len(_arg(args, kwargs, 0, "wave").samples)


def _map_gesture(t: "Tracer", args, kwargs, result) -> None:
    g = _arg(args, kwargs, 1, "gesture")
    t.counts["gesture.points_mapped"] += len(g.vertex_points) + sum(
        p.sample_count for p in g.arrow_paths
    )


def _serialize_gesture(t: "Tracer", args, kwargs, result) -> None:
    t.counts["gesture.text_bytes"] += len(result)  # ASCII text


def _write_ppm(t: "Tracer", args, kwargs, result) -> None:
    pixels = _arg(args, kwargs, 1, "pixels")
    height, width = pixels.shape[:2]
    t.counts["ppm.bytes"] += len(f"P6\n{width} {height}\n255\n") + pixels.nbytes


# span name -> work counter taken after the call returns
COUNTERS: dict[str, Callable[..., None]] = {
    "bessel.bessel_row": _bessel_row,
    "spectrum.fm_sidebands": _fm_sidebands,
    "spectrum.fold_spectrum": _fold_spectrum,
    "color.spectrum_xyz_raw": _spectrum_xyz_raw,
    "color.xyz_to_srgb": _xyz_to_srgb,
    "synth.render_fm_path": _render_fm_path,
    "synth.analyze_harmonics": _analyze_harmonics,
    "wavefile.write_wav": _write_wav,
    "gesture.map_gesture": _map_gesture,
    "gesture.serialize_gesture": _serialize_gesture,
    "ppm.write_ppm": _write_ppm,
}


def public_functions(package: Any) -> dict[int, Any]:
    """id -> object for each non-class callable named in package.__all__."""
    out = {}
    for name in package.__all__:
        obj = getattr(package, name)
        if callable(obj) and not isinstance(obj, type):
            out[id(obj)] = obj
    return out


def span_name(fn: Any) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__name__}"


class Tracer:
    """Records nested spans and work counts in memory for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.rows: set[float] = set()
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = self.clock()
        try:
            yield
        finally:
            self.spans[idx][2] = self.clock()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except Exception as exc:  # a count must never break the run
                    self.counter_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self) -> int:
        """Wrap every module binding of every public function; return the count."""
        package = sys.modules[PACKAGE]
        originals = public_functions(package)
        wrappers: dict[int, Callable] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(value, span_name(value))
                setattr(module, attr, wrappers[id(value)])
                self._restore.append((module, attr, value))
        return len(self._restore)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children never overlap and
    their durations add.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and work counts from one traced invocation.

    The root span (``cli.main``) gives ``cli.self_s``: traced wall time
    minus the time inside wrapped calls.  The disjoint self times below
    plus ``trace.other_s`` (time in any function they do not name, such
    as ``ppm.read_ppm``) add up to ``trace.wall_s``.
    """
    fn_self: Counter = Counter()
    layer_self: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_rest), own in zip(tracer.spans, self_times(tracer.spans)):
        layer = name.split(".", 1)[0]
        fn_self[name] += own
        layer_self[layer] += own
        calls[layer] += 1
    wall = sum(end - start for _n, start, end, parent in tracer.spans if parent < 0)
    analyze = fn_self["synth.analyze_harmonics"]
    times = {
        "bessel.self_s": layer_self["bessel"],
        "spectrum.self_s": layer_self["spectrum"],
        "color.self_s": layer_self["color"],
        "cli.self_s": layer_self["cli"],
        "synth.render_s": layer_self["synth"] - analyze,
        "synth.analyze_s": analyze,
        "wavefile.write_s": fn_self["wavefile.write_wav"],
        "wavefile.read_s": fn_self["wavefile.read_wav"],
        "gesture.self_s": layer_self["gesture"],
        "ppm.write_s": fn_self["ppm.write_ppm"],
    }
    rows = len(tracer.rows)
    other = {
        "bessel.calls": calls["bessel"],
        "bessel.rows": rows,
        "bessel.calls_per_row": calls["bessel"] / rows if rows else 0.0,
        "gesture.serialize_s": fn_self["gesture.serialize_gesture"],
        "trace.wall_s": wall,
        "trace.other_s": wall - sum(times.values()),
        "trace.spans": len(tracer.spans),
        "trace.counter_errors": len(tracer.counter_errors),
    }
    other.update(
        (key, tracer.counts[key])
        for key in (
            "bessel.coeffs",
            "spectrum.raw_lines",
            "spectrum.folded_lines",
            "color.lines_colored",
            "color.colors",
            "synth.render_samples",
            "synth.analyze_samples",
            "synth.harmonics",
            "wavefile.bytes",
            "gesture.points_mapped",
            "gesture.text_bytes",
            "ppm.bytes",
        )
    )
    return {**times, **other}
