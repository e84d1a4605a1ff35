"""Digraph gestures: paths, bands, functorial mapping, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adsr_level, gesture_text
from timbrecolor import gesture
from timbrecolor.cli import main
from timbrecolor.gesture import (
    _TEXT_ROWS,
    ENDPOINT_TOLERANCE,
    MAX_PATH_POINTS,
    Band,
    Digraph,
    EndpointError,
    Gesture,
    GestureFormatError,
    SampledPath,
    _map_rows,
    adsr_gesture,
    concatenate,
    constant_path,
    linear_band,
    make_gesture,
    map_gesture,
    map_path,
    parse_gesture,
    reverse,
    serialize_gesture,
)


def path_between(start, end, samples=8, bump=0.0):
    """Straight path from start to end with an optional interior bump."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    pts = np.linspace(start, end, samples)
    if bump:
        s = np.linspace(0.0, np.pi, samples)
        pts = pts + bump * np.sin(s)[:, None]
    return SampledPath(points=pts)


def random_gesture(rng, dimension=2):
    vertex_count = int(rng.integers(2, 6))
    vertices = rng.uniform(-5.0, 5.0, size=(vertex_count, dimension))
    arrow_count = int(rng.integers(1, 5))
    arrows = tuple(
        (int(rng.integers(vertex_count)), int(rng.integers(vertex_count)))
        for _ in range(arrow_count)
    )
    paths = [
        path_between(
            vertices[src], vertices[dst], samples=int(rng.integers(2, 10)),
            bump=float(rng.uniform(-1.0, 1.0)),
        )
        for src, dst in arrows
    ]
    return make_gesture(Digraph(vertex_count, arrows), vertices, paths)


class TestDigraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            Digraph(vertex_count=0, arrows=())
        with pytest.raises(ValueError):
            Digraph(vertex_count=2, arrows=((0, 2),))
        with pytest.raises(ValueError):
            Digraph(vertex_count=2, arrows=((-1, 0),))

    def test_loops_and_multi_arrows_allowed(self):
        d = Digraph(vertex_count=2, arrows=((0, 0), (0, 1), (0, 1)))
        assert len(d.arrows) == 3

    def test_integral_floats_are_stored_as_ints(self):
        d = Digraph(2.0, [(0.0, 1.0)])
        assert d == Digraph(2, ((0, 1),))
        assert type(d.vertex_count) is int
        assert all(type(v) is int for arrow in d.arrows for v in arrow)

    def test_integral_float_ids_survive_the_whole_layer(self):
        d = Digraph(2.0, [(0.0, 1.0)])
        g = make_gesture(d, [[0.0], [1.0]], [path_between([0.0], [1.0], samples=3)])
        mapped = map_gesture(lambda q: 2.0 * q, g)
        back = parse_gesture(serialize_gesture(mapped))
        assert back.digraph == Digraph(2, ((0, 1),))
        assert np.array_equal(back.arrow_paths[0].points, [[0.0], [1.0], [2.0]])

    def test_fractional_ids_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            Digraph(2.5, ())
        with pytest.raises(ValueError, match="source 0.5"):
            Digraph(2, ((0.5, 1),))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_ids_rejected_with_their_own_message(self, bad):
        with pytest.raises(ValueError, match=f"positive integer, got {bad!r}"):
            Digraph(bad, ())
        with pytest.raises(ValueError, match=f"arrow 0: source {bad!r} outside 0..1"):
            Digraph(2, ((bad, 0),))
        with pytest.raises(ValueError, match=f"arrow 1: target {bad!r} outside 0..1"):
            Digraph(2, ((0, 1), (0, bad)))


class TestSampledPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledPath(points=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            SampledPath(points=np.zeros(4))
        with pytest.raises(ValueError):
            SampledPath(points=np.array([[0.0], [np.inf]]))
        with pytest.raises(ValueError, match=r"^path points need at least 1 coordinate$"):
            SampledPath(points=np.zeros((3, 0)))

    def test_accessors(self):
        p = SampledPath(points=np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
        assert p.sample_count == 3
        assert p.dimension == 2
        assert np.array_equal(p.start, [0.0, 1.0])
        assert np.array_equal(p.end, [4.0, 5.0])


class TestPathOperations:
    def test_constant_path(self):
        p = constant_path([1.0, 2.0], sample_count=5)
        assert p.sample_count == 5
        assert np.all(p.points == [1.0, 2.0])
        with pytest.raises(ValueError):
            constant_path([1.0], sample_count=1)

    def test_reverse_is_an_involution(self):
        rng = np.random.default_rng(3)
        p = SampledPath(points=rng.uniform(-1.0, 1.0, size=(9, 3)))
        assert np.array_equal(reverse(reverse(p)).points, p.points)

    def test_reverse_swaps_endpoints(self):
        p = path_between([0.0, 0.0], [1.0, 2.0])
        r = reverse(p)
        assert np.array_equal(r.start, p.end)
        assert np.array_equal(r.end, p.start)

    def test_concatenate_counts_the_junction_once(self):
        a = path_between([0.0], [1.0], samples=4)
        b = path_between([1.0], [3.0], samples=5)
        joined = concatenate(a, b)
        assert joined.sample_count == 4 + 5 - 1
        assert np.array_equal(joined.start, a.start)
        assert np.array_equal(joined.end, b.end)

    def test_concatenate_is_strictly_associative(self):
        a = path_between([0.0, 0.0], [1.0, 1.0], samples=3)
        b = path_between([1.0, 1.0], [2.0, 0.0], samples=6)
        c = path_between([2.0, 0.0], [0.0, 0.0], samples=4)
        left = concatenate(concatenate(a, b), c)
        right = concatenate(a, concatenate(b, c))
        assert np.array_equal(left.points, right.points)

    def test_concatenate_rejects_gaps(self):
        a = path_between([0.0], [1.0])
        b = path_between([1.1], [2.0])
        with pytest.raises(EndpointError, match="do not meet"):
            concatenate(a, b)

    def test_concatenate_accepts_tolerance_gap(self):
        a = path_between([0.0], [1.0])
        b = path_between([1.0 + ENDPOINT_TOLERANCE / 2], [2.0])
        assert concatenate(a, b).sample_count == a.sample_count + b.sample_count - 1

    def test_concatenate_rejects_dimension_mismatch(self):
        a = path_between([0.0], [1.0])
        b = path_between([1.0, 0.0], [2.0, 0.0])
        with pytest.raises(ValueError, match="R\\^1 and R\\^2"):
            concatenate(a, b)


class TestLinearBand:
    def test_boundary_rows_are_the_inputs(self):
        a = path_between([0.0, 0.0], [1.0, 0.0], bump=0.5)
        b = path_between([0.0, 0.0], [1.0, 0.0], bump=-0.5)
        band = linear_band(a, b, 5)
        assert band.rows[0] is a
        assert band.rows[-1] is b

    def test_rows_interpolate_linearly(self):
        a = path_between([0.0, 0.0], [1.0, 0.0], bump=1.0)
        b = path_between([0.0, 0.0], [1.0, 0.0], bump=-1.0)
        band = linear_band(a, b, 5)
        mid = band.rows[2]
        assert np.allclose(mid.points, (a.points + b.points) / 2.0, atol=1e-15)

    def test_all_rows_share_endpoints(self):
        a = path_between([0.0, 1.0], [2.0, 3.0], bump=0.7)
        b = path_between([0.0, 1.0], [2.0, 3.0], bump=-0.2)
        band = linear_band(a, b, 7)
        for row in band.rows:
            assert np.allclose(row.start, a.start, atol=ENDPOINT_TOLERANCE)
            assert np.allclose(row.end, a.end, atol=ENDPOINT_TOLERANCE)

    def test_loop_band_with_constant_boundary(self):
        loop = SampledPath(
            points=np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        )
        still = constant_path([1.0, 1.0], sample_count=4)
        band = linear_band(loop, still, 3)
        assert len(band.rows) == 3
        assert np.allclose(band.rows[1].points[0], [1.0, 1.0])

    def test_rejects_mismatched_shapes(self):
        a = path_between([0.0], [1.0], samples=4)
        b = path_between([0.0], [1.0], samples=5)
        with pytest.raises(ValueError, match="share shape"):
            linear_band(a, b, 3)

    def test_rejects_different_endpoints(self):
        a = path_between([0.0], [1.0])
        b = path_between([0.0], [2.0])
        with pytest.raises(EndpointError):
            linear_band(a, b, 3)

    def test_band_constructor_checks_rows(self):
        a = path_between([0.0], [1.0])
        b = path_between([0.0], [2.0])
        with pytest.raises(EndpointError):
            Band(rows=(a, b))
        with pytest.raises(ValueError, match=r"^band needs at least 2 rows, got 1$"):
            Band(rows=(a,))

    @pytest.mark.parametrize("samples, dimension", [(5, 1), (4, 2)])
    def test_band_refuses_a_row_of_another_shape(self, samples, dimension):
        a = path_between([0.0], [1.0], samples=4)
        other = path_between([0.0] * dimension, [1.0] * dimension, samples=samples)
        with pytest.raises(ValueError) as info:
            Band(rows=(a, a, other))
        assert str(info.value) == f"band row 2 has shape ({samples}, {dimension}), expected (4, 1)"

    @pytest.mark.parametrize("row_count", [1, 0, -1])
    def test_linear_band_refuses_fewer_than_two_rows(self, row_count):
        a = path_between([0.0], [1.0])
        with pytest.raises(ValueError) as info:
            linear_band(a, a, row_count)
        assert str(info.value) == f"band needs at least 2 rows, got {row_count}"


class TestMakeGesture:
    def test_assembles_valid_gesture(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        vertices = np.array([[0.0, 0.0], [1.0, 1.0]])
        g = make_gesture(d, vertices, [path_between([0.0, 0.0], [1.0, 1.0])])
        assert isinstance(g, Gesture)
        assert g.dimension == 2

    def test_single_vertex_loop(self):
        d = Digraph(vertex_count=1, arrows=((0, 0),))
        loop = SampledPath(points=np.array([[2.0], [5.0], [2.0]]))
        g = make_gesture(d, np.array([[2.0]]), [loop])
        assert g.arrow_paths[0].sample_count == 3

    def test_endpoint_violation_names_the_arrow(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        vertices = np.array([[0.0, 0.0], [1.0, 1.0]])
        bad = path_between([0.5, 0.0], [1.0, 1.0])
        with pytest.raises(EndpointError, match="arrow 0"):
            make_gesture(d, vertices, [bad])

    def test_wrong_path_count(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        with pytest.raises(ValueError, match="1 arrow paths"):
            make_gesture(d, np.zeros((2, 1)), [])

    def test_wrong_vertex_shape(self):
        d = Digraph(vertex_count=2, arrows=())
        with pytest.raises(ValueError):
            make_gesture(d, np.zeros((3, 1)), [])

    def test_dimension_mismatch(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        vertices = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="dimension"):
            make_gesture(d, vertices, [path_between([0.0, 0.0], [1.0, 0.0])])

    def test_constructor_checks_the_endpoint_law(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        vertices = np.array([[0.0, 0.0], [1.0, 1.0]])
        bad = path_between([0.5, 0.0], [1.0, 1.0])
        with pytest.raises(EndpointError, match="arrow 0"):
            Gesture(d, vertices, (bad,))

    def test_constructor_stores_float64_points_and_a_path_tuple(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        g = Gesture(d, [[0], [1]], [path_between([0.0], [1.0])])
        assert g.vertex_points.dtype == np.float64
        assert isinstance(g.arrow_paths, tuple)


class TestMapping:
    def test_map_path_identity(self):
        p = path_between([0.0, 1.0], [2.0, 3.0], bump=0.4)
        assert np.array_equal(map_path(lambda q: q, p).points, p.points)

    def test_map_path_reports_failing_sample(self):
        p = path_between([0.0], [1.0], samples=4)

        def explode(q):
            raise RuntimeError("boom")

        with pytest.raises(ValueError, match="sample 0"):
            map_path(explode, p)

    def test_map_path_rejects_ragged_output(self):
        p = path_between([0.0], [1.0], samples=4)
        calls = []

        def ragged(q):
            calls.append(q)
            return np.zeros(1) if len(calls) == 1 else np.zeros(2)

        with pytest.raises(ValueError, match="output dimension at sample 1"):
            map_path(ragged, p)

    def test_map_gesture_identity_law(self):
        g = random_gesture(np.random.default_rng(5))
        mapped = map_gesture(lambda q: q, g)
        assert np.array_equal(mapped.vertex_points, g.vertex_points)
        for a, b in zip(mapped.arrow_paths, g.arrow_paths):
            assert np.array_equal(a.points, b.points)

    def test_map_gesture_composition_law(self):
        g = random_gesture(np.random.default_rng(6))

        def f(q):
            return np.array([q[0] + q[1], q[0] - q[1], 2.0 * q[0]])

        def h(q):
            return q[:2] * 3.0

        once = map_gesture(lambda q: h(f(q)), g)
        twice = map_gesture(h, map_gesture(f, g))
        assert np.array_equal(once.vertex_points, twice.vertex_points)
        for a, b in zip(once.arrow_paths, twice.arrow_paths):
            assert np.array_equal(a.points, b.points)

    def test_map_gesture_can_change_dimension(self):
        g = random_gesture(np.random.default_rng(8), dimension=2)
        mapped = map_gesture(lambda q: np.array([q[0], q[1], q[0] * q[1]]), g)
        assert mapped.dimension == 3

    def test_map_gesture_reports_failing_vertex(self):
        g = random_gesture(np.random.default_rng(9))

        def explode(q):
            raise RuntimeError("no")

        with pytest.raises(ValueError, match="vertex 0"):
            map_gesture(explode, g)

    def test_map_gesture_rejects_ragged_vertex_map(self):
        g = random_gesture(np.random.default_rng(10))
        calls = []

        def ragged(q):
            calls.append(q)
            return np.zeros(1) if len(calls) == 1 else np.zeros(2)

        with pytest.raises(ValueError, match="output dimension at vertex 1"):
            map_gesture(ragged, g)

    def test_map_gesture_names_arrow_and_sample(self):
        d = Digraph(vertex_count=4, arrows=((0, 1), (1, 2), (2, 3)))
        vertices = np.array([[0.0], [1.0], [2.0], [3.0]])
        paths = [path_between(vertices[s], vertices[t], samples=5) for s, t in d.arrows]
        g = make_gesture(d, vertices, paths)

        def fails_at_2_75(q):
            if q[0] == 2.75:
                raise RuntimeError("boom")
            return q

        with pytest.raises(ValueError, match="^arrow 2: point map failed at sample 3"):
            map_gesture(fails_at_2_75, g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_functor_laws_on_random_gestures(self, seed):
        g = random_gesture(np.random.default_rng(seed))
        identity = map_gesture(lambda q: q, g)
        assert np.array_equal(identity.vertex_points, g.vertex_points)

        def f(q):
            return np.concatenate([q, [q @ q]])

        def h(q):
            return q * 0.5 + 1.0

        once = map_gesture(lambda q: h(f(q)), g)
        twice = map_gesture(h, map_gesture(f, g))
        assert np.array_equal(once.vertex_points, twice.vertex_points)
        for a, b in zip(once.arrow_paths, twice.arrow_paths):
            assert np.array_equal(a.points, b.points)


# one elementwise map in point form and in row form: the same IEEE operations
def f_point(q):
    return np.array([q[0] + q[1], q[0] - q[1], 2.0 * q[0]])


def f_rows(p, _label):
    return np.column_stack((p[:, 0] + p[:, 1], p[:, 0] - p[:, 1], 2.0 * p[:, 0]))


def h_point(q):
    return q[:2] * 3.0


def h_rows(p, _label):
    return p[:, :2] * 3.0


def assert_same_text(got: str, want: str) -> None:
    """got == want exactly.  A mismatch fails with its first differing line
    instead of pytest's diff, which takes minutes on texts of thousands of lines."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        lineno, (a, b) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
        pytest.fail(f"texts differ first at line {lineno}: got {a!r}, want {b!r}", pytrace=False)


class TestSameText:
    TEXT = "".join(f"{k}\n" for k in range(20_000))

    def test_equal_texts_pass(self):
        assert_same_text(self.TEXT, "".join(f"{k}\n" for k in range(20_000)))

    @pytest.mark.parametrize(
        "got, message",
        [
            (TEXT.replace("\n12345\n", "\n12346\n"), r"line 12346: got '12346\\n', want '12345\\n'$"),
            (TEXT[:-1], r"line 20000: got '19999', want '19999\\n'$"),
            (TEXT + "x", r"line 20001: got 'x', want None$"),
            (TEXT[:-6], r"line 20000: got None, want '19999\\n'$"),
        ],
        ids=["changed-line", "no-final-newline", "extra-line", "missing-line"],
    )
    def test_a_mismatch_names_its_first_differing_line(self, got, message):
        with pytest.raises(pytest.fail.Exception, match=r"^texts differ first at " + message):
            assert_same_text(got, self.TEXT)


def assert_same_gesture(a, b):
    assert a.digraph == b.digraph
    assert np.array_equal(a.vertex_points, b.vertex_points)
    assert len(a.arrow_paths) == len(b.arrow_paths)
    for x, y in zip(a.arrow_paths, b.arrow_paths):
        assert np.array_equal(x.points, y.points)


class TestRowForm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_identity_and_composition_laws(self, seed):
        g = random_gesture(np.random.default_rng(seed))
        assert_same_gesture(_map_rows(lambda p, _label: p, g), g)
        once = _map_rows(lambda p, label: h_rows(f_rows(p, label), label), g)
        assert_same_gesture(once, _map_rows(h_rows, _map_rows(f_rows, g)))
        # and the row form is the point form, bit for bit
        assert_same_gesture(once, map_gesture(lambda q: h_point(f_point(q)), g))
        assert_same_gesture(_map_rows(f_rows, g), map_gesture(f_point, g))

    def test_vertices_map_first_then_each_arrow_whole(self):
        g = random_gesture(np.random.default_rng(3))
        calls = []

        def record(p, label):
            calls.append((label, p.shape[0]))
            return p

        _map_rows(record, g)
        assert calls == [("vertex", g.digraph.vertex_count)] + [
            ("sample", path.sample_count) for path in g.arrow_paths
        ]

    def test_failures_name_the_arrow(self):
        d = Digraph(vertex_count=3, arrows=((0, 1), (1, 2)))
        vertices = np.array([[0.0], [1.0], [2.0]])
        g = make_gesture(d, vertices, [path_between(vertices[s], vertices[t]) for s, t in d.arrows])

        def fails_past_one(p, label):
            if label == "sample" and p[-1, 0] > 1.0:
                raise ValueError("boom")
            return p

        with pytest.raises(ValueError, match="^arrow 1: boom$"):
            _map_rows(fails_past_one, g)
        with pytest.raises(ValueError, match="^arrow 0: path points must be finite$"):
            _map_rows(lambda p, label: p if label == "vertex" else p + np.inf, g)
        with pytest.raises(EndpointError, match="^arrow 0: path starts at"):
            _map_rows(lambda p, label: p if label == "vertex" else p + 1.0, g)

    @pytest.mark.parametrize("samples", [16, 4097, 100_000])
    def test_cli_text_equals_the_point_form(self, tmp_path, samples):
        out = tmp_path / "g.txt"
        argv = [
            "envelope-transfer", "--color", "3b7fc2", "--sustain-level", "0.37",
            "--samples-per-segment", str(samples),
            "--out-gesture", str(out), "--out-img", str(tmp_path / "s.ppm"),
        ]
        assert main(argv) == 0
        scale = np.array([0x3B, 0x7F, 0xC2], dtype=np.float64)
        envelope = adsr_gesture(1.0, 0.37, [0.05, 0.15, 0.4, 0.3], samples)
        g = map_gesture(lambda q: q[1] * scale, envelope)
        want = gesture_text(5, g.digraph.arrows, g.vertex_points, [path.points for path in g.arrow_paths])
        assert out.read_bytes() == want.encode("ascii")


class TestADSR:
    def test_vertices_and_arrows(self):
        g = adsr_gesture(1.0, 0.6, [0.1, 0.2, 0.5, 0.25], samples_per_segment=4)
        assert g.digraph.vertex_count == 5
        assert g.digraph.arrows == ((0, 1), (1, 2), (2, 3), (3, 4))
        want = np.array(
            [[0.0, 0.0], [0.1, 1.0], [0.3, 0.6], [0.8, 0.6], [1.05, 0.0]]
        )
        assert np.allclose(g.vertex_points, want, atol=1e-15)

    def test_paths_are_straight_lines(self):
        g = adsr_gesture(0.9, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=5)
        for (src, dst), path in zip(g.digraph.arrows, g.arrow_paths):
            want = np.linspace(g.vertex_points[src], g.vertex_points[dst], 5)
            assert np.allclose(path.points, want, atol=1e-15)

    def test_matches_piecewise_formula(self):
        attack, decay, sustain_level, sustain, release = 0.1, 0.2, 0.6, 0.5, 0.25
        g = adsr_gesture(
            1.0, sustain_level, [attack, decay, sustain, release],
            samples_per_segment=9,
        )
        for path in g.arrow_paths:
            for t, level in path.points:
                want = adsr_level(t, attack, decay, sustain_level, sustain, release)
                assert level == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            adsr_gesture(1.5, 0.5, [0.1, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            adsr_gesture(1.0, -0.1, [0.1, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            adsr_gesture(1.0, 0.5, [0.1, 0.0, 0.1, 0.1])
        with pytest.raises(ValueError):
            adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=1)

    def test_path_size_guard_runs_before_any_path_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(gesture.np, "linspace", built)
        per_stage = MAX_PATH_POINTS // 4
        with pytest.raises(Built):  # the largest allowed size gets past the guard
            adsr_gesture(1.0, 0.5, [0.1] * 4, samples_per_segment=per_stage)
        with pytest.raises(ValueError, match=f"size guard: {4 * per_stage + 4} path points"):
            adsr_gesture(1.0, 0.5, [0.1] * 4, samples_per_segment=per_stage + 1)


class TestSerialization:
    def test_roundtrip_is_exact(self):
        g = random_gesture(np.random.default_rng(12))
        back = parse_gesture(serialize_gesture(g))
        assert back.digraph == g.digraph
        assert np.array_equal(back.vertex_points, g.vertex_points)
        for a, b in zip(back.arrow_paths, g.arrow_paths):
            assert np.array_equal(a.points, b.points)

    def test_roundtrip_survives_awkward_floats(self):
        d = Digraph(vertex_count=2, arrows=((0, 1),))
        vertices = np.array([[1e-17, -3.1415926535897931], [7.0e16, 0.1]])
        path = SampledPath(points=np.array([vertices[0], [2.5, -0.7], vertices[1]]))
        g = make_gesture(d, vertices, [path])
        back = parse_gesture(serialize_gesture(g))
        assert np.array_equal(back.vertex_points, g.vertex_points)
        assert np.array_equal(back.arrow_paths[0].points, path.points)

    @pytest.mark.parametrize("seed", range(20))
    def test_text_matches_the_coordinate_oracle(self, seed):
        g = random_gesture(np.random.default_rng(seed), dimension=1 + seed % 3)
        want = gesture_text(
            g.digraph.vertex_count, g.digraph.arrows, g.vertex_points,
            [path.points for path in g.arrow_paths],
        )
        assert_same_text(serialize_gesture(g), want)

    def test_text_matches_the_oracle_on_extreme_floats(self):
        d = Digraph(vertex_count=2, arrows=((0, 1), (1, 1)))
        vertices = np.array(
            [[-0.0, 5e-324, 1e-17], [3.0, 7e16, 1.7976931348623157e308]]
        )
        path = SampledPath(points=np.array([
            vertices[0], [1.7976931348623157e308, -0.0, 5e-324],
            [1e-17, 3.0, 7e16], vertices[1],
        ]))
        loop = constant_path(vertices[1], sample_count=3)
        g = make_gesture(d, vertices, [path, loop])
        text = serialize_gesture(g)
        assert_same_text(text, gesture_text(2, d.arrows, vertices, [path.points, loop.points]))
        assert "v -0.0 5e-324 1e-17\n" in text
        assert "1.7976931348623157e+308 -0.0 5e-324\n" in text
        back = parse_gesture(text)
        assert np.array_equal(back.arrow_paths[0].points, path.points)
        assert np.signbit(back.vertex_points[0, 0])

    @pytest.mark.parametrize("samples", [_TEXT_ROWS - 1, _TEXT_ROWS, _TEXT_ROWS + 1, 10_000])
    def test_text_blocks_match_the_oracle(self, samples):
        awkward = [-0.0, 5e-324, 1e-07, 1e16, 1e300]
        rng = np.random.default_rng(samples)
        points = np.where(
            rng.random((samples, 3)) < 0.5,
            rng.choice(awkward, size=(samples, 3)) * rng.choice([1.0, -1.0], size=(samples, 3)),
            rng.uniform(-9.0, 9.0, size=(samples, 3)),
        )
        d = Digraph(vertex_count=2, arrows=((0, 1), (1, 0)))
        vertices = points[[0, -1]]
        paths = [SampledPath(points=points), SampledPath(points=points[::-1])]
        g = make_gesture(d, vertices, paths)
        text = serialize_gesture(g)
        assert_same_text(text, gesture_text(2, d.arrows, vertices, [p.points for p in paths]))
        assert set(text.split()) >= {"-0.0", "5e-324", "1e-07", "1e+16", "1e+300"}

    @pytest.mark.parametrize("signed_zero", [None, 1, _TEXT_ROWS - 1, _TEXT_ROWS + 3])
    def test_constant_runs_match_the_oracle(self, signed_zero):
        # rows equal in value; one of them holding -0.0 breaks its block's run
        points = np.tile([0.25, 0.0], (_TEXT_ROWS + 10, 1))
        if signed_zero is not None:
            points[signed_zero, 1] = -0.0
        d = Digraph(vertex_count=1, arrows=((0, 0),))
        g = make_gesture(d, points[[0]], [SampledPath(points=points)])
        text = serialize_gesture(g)
        assert_same_text(text, gesture_text(1, d.arrows, points[[0]], [points]))
        assert text.splitlines().count("0.25 -0.0") == (signed_zero is not None)

    def test_adsr_roundtrip(self):
        g = adsr_gesture(1.0, 0.7, [0.05, 0.15, 0.4, 0.3])
        back = parse_gesture(serialize_gesture(g))
        assert back.digraph == g.digraph
        for a, b in zip(back.arrow_paths, g.arrow_paths):
            assert np.array_equal(a.points, b.points)

    def test_comments_and_blank_lines_ignored(self):
        g = adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=2)
        text = serialize_gesture(g)
        noisy = "# top comment\n\n" + text.replace("\n", "\n# note\n", 1)
        back = parse_gesture(noisy)
        assert back.digraph == g.digraph

    def test_bad_header(self):
        with pytest.raises(GestureFormatError, match="header"):
            parse_gesture("graph 2 1\n")

    def test_truncated_text(self):
        g = adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=2)
        lines = serialize_gesture(g).splitlines()
        with pytest.raises(GestureFormatError, match="unexpected end"):
            parse_gesture("\n".join(lines[:-1]))

    def test_bad_coordinates(self):
        text = "digraph 1 0\nv 1.0 oops\n"
        with pytest.raises(GestureFormatError, match="line 2"):
            parse_gesture(text)

    def test_out_of_order_path_blocks(self):
        g = adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=2)
        text = serialize_gesture(g)
        swapped = text.replace("p 0 2", "p 9 2")
        with pytest.raises(GestureFormatError, match="arrow order"):
            parse_gesture(swapped)

    def test_trailing_content(self):
        g = adsr_gesture(1.0, 0.5, [0.1, 0.1, 0.1, 0.1], samples_per_segment=2)
        with pytest.raises(GestureFormatError, match="trailing"):
            parse_gesture(serialize_gesture(g) + "v 1.0 2.0\n")

    def test_endpoint_violation_surfaces_as_format_error(self):
        text = (
            "digraph 2 1\n"
            "a 0 1\n"
            "v 0.0\n"
            "v 1.0\n"
            "p 0 2\n"
            "0.5\n"
            "1.0\n"
        )
        with pytest.raises(GestureFormatError, match="arrow 0"):
            parse_gesture(text)

    def test_vertex_dimension_mismatch(self):
        text = "digraph 2 0\nv 0.0\nv 1.0 2.0\n"
        with pytest.raises(GestureFormatError, match="dimension"):
            parse_gesture(text)


_HEAD = "digraph 2 1\na 0 1\nv 0.0\nv 1.0\n"  # lines 1-4 of a one-arrow gesture
_GOOD = _HEAD + "p 0 2\n0.0\n1.0\n"  # lines 5-7: its path

# (text, the exact GestureFormatError message), one case per error the parser raises
PARSE_ERRORS = {
    "empty text": ("", "unexpected end of text, expected 'digraph V A' header"),
    "only comments": ("# none\n\n   \n", "unexpected end of text, expected 'digraph V A' header"),
    "bad header tag": ("graph 2 1\n", "line 1: expected 'digraph V A' header"),
    "short header": ("digraph 2\n", "line 1: expected 'digraph V A' header"),
    "long header": ("digraph 2 1 0\n", "line 1: expected 'digraph V A' header"),
    "float counts": ("# c\n\ndigraph 2 1.0\n", "line 3: counts must be integers"),
    "word counts": ("digraph two 1\n", "line 1: counts must be integers"),
    "end at arrows": ("digraph 2 1\n", "unexpected end of text, expected arrow line 'a SRC DST'"),
    "bad arrow tag": ("digraph 2 1\nb 0 1\n", "line 2: expected 'a SRC DST'"),
    "short arrow": ("digraph 2 1\na 0\n", "line 2: expected 'a SRC DST'"),
    "float arrow": ("digraph 2 1\na 0 1.5\n", "line 2: arrow endpoints must be integers"),
    "end at vertices": (
        "digraph 2 1\na 0 1\nv 0.0\n", "unexpected end of text, expected vertex line 'v X0 ...'"
    ),
    "bare vertex tag": ("digraph 1 0\nv\n", "line 2: expected 'v X0 X1 ...'"),
    "bad vertex tag": ("digraph 1 0\nw 1.0\n", "line 2: expected 'v X0 X1 ...'"),
    "word coordinate": ("digraph 1 0\nv 1.0 oops\n", "line 2: coordinates must be floats"),
    "vertex dimension": (
        "digraph 2 0\nv 0.0\n\nv 1.0 2.0\n", "line 4: vertex dimension 2 differs from 1"
    ),
    "end at path header": (
        _HEAD, "unexpected end of text, expected path header 'p INDEX COUNT'"
    ),
    "bad path tag": (_HEAD + "q 0 2\n", "line 5: expected 'p INDEX COUNT'"),
    "short path header": (_HEAD + "p 0\n", "line 5: expected 'p INDEX COUNT'"),
    "word path count": (_HEAD + "p 0 two\n", "line 5: path header fields must be integers"),
    "path out of order": (
        _HEAD + "p 1 2\n",
        "line 5: path blocks must appear in arrow order, expected index 0, got 1",
    ),
    "end at samples": (_HEAD + "p 0 2\n0.0\n", "unexpected end of text, expected path sample line"),
    "word sample": (_HEAD + "p 0 2\n0.0\n1.0 x\n", "line 7: coordinates must be floats"),
    "ragged path": (
        _HEAD + "p 0 2\n0.0\n1.0 2.0\n", "line 7: path sample dimension 2 differs from 1"
    ),
    "one-sample path": (_HEAD + "p 0 1\n0.0\n", "path 0: path needs at least 2 samples, got 1"),
    "empty path": (_HEAD + "p 0 0\n", "path 0: path points must be a 2-D array, got shape (0,)"),
    "infinite sample": (_HEAD + "p 0 2\n0.0\ninf\n", "path 0: path points must be finite"),
    "ragged before trailing": (
        _HEAD + "p 0 2\n0.0\n1.0 2.0\nv 1.0\n", "line 7: path sample dimension 2 differs from 1"
    ),
    "trailing content": (_GOOD + "v 1.0\n", "line 8: trailing content"),
    "trailing after comments": (_GOOD + "# c\n\nx\n", "line 10: trailing content"),
    "start off its vertex": (
        _HEAD + "p 0 2\n0.5\n1.0\n",
        "arrow 0: path starts at [0.5], source vertex 0 sits at [0.0]",
    ),
    "end off its vertex": (
        _HEAD + "p 0 2\n0.0\n0.5\n",
        "arrow 0: path ends at [0.5], target vertex 1 sits at [1.0]",
    ),
    "path dimension": (
        _HEAD + "p 0 2\n0.0 0.0\n1.0 0.0\n",
        "arrow 0: path dimension 2 differs from vertex dimension 1",
    ),
    "no vertices": ("digraph 0 0\n", "vertex count must be a positive integer, got 0"),
    "arrow off the graph": (
        "digraph 1 1\na 0 1\nv 0.0\np 0 2\n0.0\n0.0\n", "arrow 0: target 1 outside 0..0"
    ),
    "infinite vertex": ("digraph 1 0\nv nan\n", "vertex points must be finite"),
}


class TestParseErrors:
    @pytest.mark.parametrize("case", PARSE_ERRORS)
    def test_exact_message(self, case):
        text, message = PARSE_ERRORS[case]
        with pytest.raises(GestureFormatError) as info:
            parse_gesture(text)
        assert str(info.value) == message

    def test_the_good_text_parses(self):
        g = parse_gesture(_GOOD)
        assert g.digraph.arrows == ((0, 1),)
        assert_same_text(serialize_gesture(g), _GOOD)
