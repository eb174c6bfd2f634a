"""Property tests for the dataset file readers and the JSON reader.

Any text given to a reader yields either a DataError or a valid object, never
another exception; writing an object and reading it back is exact.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffusion.errors import ConfigError, DataError, FfusionError, MissingInputError
from ffusion.geometry import (
    DepthMap,
    PointCloud,
    read_depth,
    read_point_cloud,
    write_depth,
    write_point_cloud,
)
from ffusion.jsonfile import read_json
from ffusion.scene.dataset import read_labels, read_ppm, write_labels, write_ppm
from ffusion.scene.spec import CLASS_NAMES

HEADERS = {
    "ppm": "P3\n{w} {h}\n255",
    "pcd": "FFUSION-PCD v1 {h}",
    "depth": "FFUSION-DEPTH v1 {w} {h}",
    "labels": "FFUSION-LABELS v1 {w} {h}",
}

# Numbers every reader accepts somewhere, plus near misses: floats where ints
# belong, other bases, digit separators, bare signs, non-finite and huge values.
TOKENS = st.sampled_from([
    "0", "1", "2", "7", "255", "256", "-1", "-0", "+3", "1.5", "-1.0", "2.25",
    "1e3", "1e400", "nan", "inf", "0x10", "1_0", "-", "+", "x", "1-2",
    "99999999999999999999",
])
SEPARATORS = st.sampled_from([" ", " ", " ", "\n", "\n", "  ", "\t", "\r\n", "\x0b", ""])


def _valid_ppm(rgb):
    height, width = rgb.shape[:2]
    levels = rgb * 255.0
    return (rgb.dtype == np.float64 and rgb.shape == (height, width, 3)
            and height >= 1 and width >= 1 and np.array_equal(levels, np.rint(levels))
            and rgb.min() >= 0.0 and rgb.max() <= 1.0)


def _valid_cloud(cloud):
    pts = cloud.points
    return isinstance(cloud, PointCloud) and pts.shape == (len(cloud), 3) and np.isfinite(pts).all()


def _valid_depth(depth):
    picked = depth.values[depth.valid]
    return (isinstance(depth, DepthMap) and depth.height >= 1 and depth.width >= 1
            and np.isfinite(picked).all() and (picked > 0.0).all()
            and (depth.values[~depth.valid] == 0.0).all())


def _valid_labels(grid):
    return (grid.dtype == np.int64 and grid.ndim == 2 and min(grid.shape) >= 1
            and grid.min() >= 0 and grid.max() < len(CLASS_NAMES))


READERS = {
    "ppm": (read_ppm, _valid_ppm),
    "pcd": (read_point_cloud, _valid_cloud),
    "depth": (read_depth, _valid_depth),
    "labels": (read_labels, _valid_labels),
}


def _read_or_reject(kind, data: bytes):
    """The reader's result for a file holding data, or None on DataError."""
    reader, valid = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"sample.{kind}"
        path.write_bytes(data)
        try:
            result = reader(path)
        except DataError:
            return None
    assert valid(result), f"{kind} reader returned an invalid object"
    return result


@st.composite
def formatted_text(draw, kind):
    """A header of the kind with small, possibly non-positive dimensions, then tokens."""
    header = HEADERS[kind].format(w=draw(st.integers(-1, 3)), h=draw(st.integers(-1, 3)))
    pieces = draw(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=30))
    return header + "\n" + "".join(token + sep for token, sep in pieces)


def _write(kind, obj) -> bytes:
    writer = {"ppm": write_ppm, "pcd": write_point_cloud,
              "depth": write_depth, "labels": write_labels}[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"sample.{kind}"
        writer(obj, path)
        return path.read_bytes()


@st.composite
def ppms(draw):
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, size=(height, width, 3)) / 255.0


@st.composite
def clouds(draw):
    count = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coords = draw(st.lists(finite, min_size=3 * count, max_size=3 * count))
    return PointCloud(np.array(coords, dtype=np.float64).reshape(count, 3))


@st.composite
def depths(draw):
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    positive = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(st.one_of(st.none(), positive),
                          min_size=height * width, max_size=height * width))
    valid = np.array([c is not None for c in cells]).reshape(height, width)
    values = np.array([0.0 if c is None else c for c in cells]).reshape(height, width)
    return DepthMap(values, valid)


@st.composite
def label_grids(draw):
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, len(CLASS_NAMES), size=(height, width))


OBJECTS = {"ppm": ppms(), "pcd": clouds(), "depth": depths(), "labels": label_grids()}


@st.composite
def edited_files(draw, kind):
    """A file the writer produced, with one byte range replaced by a token or separator."""
    data = _write(kind, draw(OBJECTS[kind]))
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 4)))
    patch = draw(st.one_of(TOKENS, SEPARATORS)).encode()
    return data[:start] + patch + data[stop:]


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("kind", sorted(READERS))
class TestAnyText:
    @given(text=st.text(max_size=200))
    def test_arbitrary_text(self, kind, text):
        _read_or_reject(kind, text.encode("utf-8"))

    @given(data=st.data())
    def test_formatted_text(self, kind, data):
        _read_or_reject(kind, data.draw(formatted_text(kind)).encode("ascii"))

    @given(data=st.data())
    def test_edited_files(self, kind, data):
        _read_or_reject(kind, data.draw(edited_files(kind)))


class TestDefects:
    """Inputs that escaped as other exceptions or loaded as empty objects."""

    @pytest.mark.parametrize("kind, text", [
        ("ppm", "P3\n0 0\n255\n"),
        ("ppm", "P3\n2 0\n255\n"),
        ("depth", "FFUSION-DEPTH v1 0 0"),
        ("depth", "FFUSION-DEPTH v1 3 -1\n"),
        ("labels", "FFUSION-LABELS v1 0 0\n"),
        ("labels", "FFUSION-LABELS v1 0 2\n\n\n"),
        ("pcd", "FFUSION-PCD v1 -1\n"),
        ("ppm", "P3\n99999999999999999999 1\n255\n1 2 3\n"),
        ("depth", "FFUSION-DEPTH v1 1 1\n \n"),
        ("ppm", "P3\n1 1\n255\n1 2 -\n"),
        ("ppm", "P3\n1 1\n255\n1 - 2 3\n"),
        ("labels", "FFUSION-LABELS v1 2 1\n1 99999999999999999999\n"),
        ("labels", "FFUSION-LABELS v1 1 1\n1.0\n"),
        ("pcd", "FFUSION-PCD v1 2\n1 2 3 4\n5 6\n"),
        ("pcd", "FFUSION-PCD v1 1\n1 2 nan\n"),
        ("depth", "FFUSION-DEPTH v1 2 1\n1e400 -1\n"),
        ("depth", "FFUSION-DEPTH v1 99999999999 1\n1\n"),
        ("labels", "FFUSION-LABELS v1 0_2 +1\n1 2\n"),
        ("ppm", "P3\n+1 0_1\n255\n1 2 3\n"),
        ("ppm", "P3\n1 1\n+255\n1 2 3\n"),
        ("depth", "FFUSION-DEPTH v1 +1 1\n1\n"),
        ("pcd", "FFUSION-PCD v1 +1\n1 2 3\n"),
        ("pcd", "FFUSION-PCD v1 0_1\n1 2 3\n"),
    ])
    def test_rejected(self, kind, text):
        assert _read_or_reject(kind, text.encode()) is None

    def test_malformed_number_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("FFUSION-LABELS v1 2 1\n1 0x10\n")
        with pytest.raises(DataError, match="malformed number in .*bad.txt"):
            read_labels(path)

    def test_missing_final_newline_and_crlf_accepted(self):
        assert _read_or_reject("depth", b"FFUSION-DEPTH v1 2 1\n1.5 -1").valid.tolist() == [[True, False]]
        grid = _read_or_reject("labels", b"FFUSION-LABELS v1 2 2\r\n1 2\r\n3 0\r\n")
        assert grid.tolist() == [[1, 2], [3, 0]]


JSON_FORMAT = "ffusion-test-v1"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


@st.composite
def json_documents(draw):
    """JSON text of a value of any type; an object may carry a format tag,
    the expected one or any other value. NaN and Infinity are written as
    Python's json module spells them."""
    value = draw(JSON_VALUES)
    if isinstance(value, dict) and draw(st.booleans()):
        value["format"] = draw(st.just(JSON_FORMAT) | JSON_VALUES)
    return json.dumps(value).encode("utf-8")


def _read_json_or_error(data: bytes, error):
    """read_json's result for a file holding data, or None on error, which
    must name the file; any other exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        path.write_bytes(data)
        try:
            result = read_json(path, "document", JSON_FORMAT, error)
        except FfusionError as exc:
            assert type(exc) is error, f"raised {type(exc).__name__}, not {error.__name__}"
            assert str(path) in str(exc)
            return None
    assert isinstance(result, dict) and "format" not in result
    return result


class TestReadJson:
    @given(data=st.binary(max_size=200) | json_documents(),
           error=st.sampled_from([DataError, ConfigError]))
    @example(data=b'{"a": NaN}', error=DataError)
    @example(data=b'{"format": "ffusion-test-v1", "a": 1}', error=ConfigError)
    def test_any_bytes(self, data, error):
        _read_json_or_error(data, error)

    @pytest.mark.parametrize("data", [
        b"1" * 5000,  # int() refuses over 4300 digits with a bare ValueError
        b"[" * 100000,  # the parser recurses once per level
        b'{"a": -Infinity}',
        b'{"format": "ffusion-test-v2"}',
        b'"format"',
        b"\xef\xbb\xbf{}",  # a byte-order mark is not JSON
    ])
    def test_rejected(self, data):
        assert _read_json_or_error(data, DataError) is None

    def test_absent_tag_reads_as_expected(self):
        assert _read_json_or_error(b'{"a": [1, 2.5]}', DataError) == {"a": [1, 2.5]}
        assert _read_json_or_error(b'{"format": "ffusion-test-v1"}', DataError) == {}

    def test_missing_file_is_missing_input(self, tmp_path):
        with pytest.raises(MissingInputError, match=f"document not found: {tmp_path}"):
            read_json(tmp_path / "none.json", "document", JSON_FORMAT, ConfigError)
        with pytest.raises(MissingInputError):
            read_json(tmp_path, "document", JSON_FORMAT)


class TestRoundTrip:
    @given(rgb=ppms())
    def test_ppm(self, rgb):
        assert np.array_equal(_bits(_read_or_reject("ppm", _write("ppm", rgb))), _bits(rgb))

    @given(cloud=clouds())
    @example(cloud=PointCloud(np.array([[-0.0, 5e-324, 1.7976931348623157e308]])))
    def test_point_cloud(self, cloud):
        again = _read_or_reject("pcd", _write("pcd", cloud))
        assert np.array_equal(_bits(again.points), _bits(cloud.points))

    @given(depth=depths())
    def test_depth(self, depth):
        again = _read_or_reject("depth", _write("depth", depth))
        assert np.array_equal(_bits(again.values), _bits(depth.values))
        assert np.array_equal(again.valid, depth.valid)

    @given(grid=label_grids())
    def test_labels(self, grid):
        assert np.array_equal(_read_or_reject("labels", _write("labels", grid)), grid)


def _ppm_by_cell(rgb, path):
    img = np.asarray(rgb, dtype=np.float64)
    height, width = img.shape[:2]
    levels = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.int64)
    lines = ["P3", f"{width} {height}", "255"]
    for r in range(height):
        lines.append(" ".join(str(v) for v in levels[r].reshape(-1)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _cloud_by_cell(cloud, path):
    lines = [f"FFUSION-PCD v1 {len(cloud)}"]
    for x, y, z in cloud.points:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _depth_by_cell(depth, path):
    lines = [f"FFUSION-DEPTH v1 {depth.width} {depth.height}"]
    for r in range(depth.height):
        row = [repr(float(depth.values[r, c])) if depth.valid[r, c] else "-1"
               for c in range(depth.width)]
        lines.append(" ".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _labels_by_cell(labels, path):
    grid = np.asarray(labels, dtype=np.int64)
    lines = [f"FFUSION-LABELS v1 {grid.shape[1]} {grid.shape[0]}"]
    for row in grid:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


REFERENCE_WRITERS = {"ppm": _ppm_by_cell, "pcd": _cloud_by_cell,
                     "depth": _depth_by_cell, "labels": _labels_by_cell}


def _reference_bytes(kind, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"sample.{kind}"
        REFERENCE_WRITERS[kind](obj, path)
        return path.read_bytes()


@st.composite
def raw_rgbs(draw):
    """Unquantized colors, some outside [0, 1], that the PPM writer clips and rounds."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-0.1, 1.1, size=(height, width, 3))


@st.composite
def masked_depths(draw):
    """Depth maps whose invalid share is drawn from 0 % to 100 %."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.uniform(size=(height, width)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    values = np.exp(rng.uniform(-700.0, 700.0, size=(height, width)))
    return DepthMap(np.where(valid, values, 0.0), valid)


class TestWritersMatchCellByCellReference:
    """The writers format plain Python values; the bytes equal per-cell numpy formatting."""

    @given(rgb=st.one_of(ppms(), raw_rgbs()))
    @example(rgb=(np.arange(768) % 256).reshape(16, 16, 3) / 255.0)
    def test_ppm(self, rgb):
        assert _write("ppm", rgb) == _reference_bytes("ppm", rgb)

    @given(cloud=clouds())
    @example(cloud=PointCloud.empty())
    @example(cloud=PointCloud(np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                                        [-5e-324, -1.7976931348623157e308, 0.1]])))
    def test_point_cloud(self, cloud):
        assert _write("pcd", cloud) == _reference_bytes("pcd", cloud)

    @given(depth=st.one_of(depths(), masked_depths()))
    @example(depth=DepthMap.empty(3, 4))
    @example(depth=DepthMap(np.array([[5e-324, 1.7976931348623157e308]]), np.ones((1, 2), bool)))
    def test_depth(self, depth):
        assert _write("depth", depth) == _reference_bytes("depth", depth)

    @given(grid=label_grids())
    def test_labels(self, grid):
        assert _write("labels", grid) == _reference_bytes("labels", grid)
