"""Property tests for the array container, the dataset's sample files and
the JSON reader.

Any bytes given to a reader yield either its error naming the file or a
valid result, never another exception; writing and reading back is exact.
The sample-file tests are keyed by the ASCII format each container file
replaced in FFUSION-DATASET v1: ppm (rgb), pcd (cloud), depth and labels.
A valid rgb image or depth map lies on the IMAGE_SIDE x IMAGE_SIDE grid.
"""

import dataclasses
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffusion.arrayfile import read_arrays, write_arrays
from ffusion.errors import ConfigError, DataError, FfusionError, MissingInputError
from ffusion.geometry import DepthMap, PointCloud
from ffusion.jsonfile import read_json
from ffusion.scene.dataset import (
    ARRAYS_MAGIC,
    ManifestEntry,
    Sample,
    SampleFiles,
    load_sample,
    write_sample,
)
from ffusion.geometry import IMAGE_SIDE
from ffusion.scene.render import LABEL_GRID
from ffusion.scene.spec import CLASS_NAMES

# v1 format: (SampleFiles kind, array name, Sample field) of the file replacing it.
KINDS = {"ppm": ("rgb", "levels", "rgb"), "pcd": ("cloud", "points", "cloud"),
         "depth": ("depth", "depth", "depth"), "labels": ("labels", "labels", "seg_labels")}
FILES = SampleFiles(rgb="rgb.ffa", cloud="cloud.ffa", depth="depth.ffa", text="text.txt",
                    labels="labels.ffa")
GRID = (IMAGE_SIDE, IMAGE_SIDE)
TEMPLATE = Sample(sample_id="000000", rgb=np.zeros(GRID + (3,)), cloud=PointCloud.empty(),
                  depth=DepthMap.empty(*GRID), text="go straight", command="go",
                  seg_labels=np.zeros((LABEL_GRID, LABEL_GRID), dtype=np.int64))


def _entry(sample: Sample) -> ManifestEntry:
    return ManifestEntry(id=sample.sample_id, split="train", seed=0, command=sample.command,
                         files=FILES)


def roundtrip(sample: Sample) -> Sample:
    """sample written by write_sample and read back by load_sample."""
    with tempfile.TemporaryDirectory() as tmp:
        write_sample(sample, tmp, FILES)
        return load_sample(tmp, _entry(sample))


def with_part(**parts) -> Sample:
    """TEMPLATE with the given fields replaced."""
    return dataclasses.replace(TEMPLATE, **parts)


def _valid(kind, sample) -> bool:
    if kind == "ppm":
        levels = sample.rgb * 255.0
        return (sample.rgb.dtype == np.float64 and sample.rgb.shape == GRID + (3,)
                and np.array_equal(levels, np.rint(levels))
                and levels.min() >= 0.0 and levels.max() <= 255.0)
    if kind == "pcd":
        pts = sample.cloud.points
        return pts.shape == (len(sample.cloud), 3) and np.isfinite(pts).all()
    if kind == "depth":
        depth = sample.depth
        picked = depth.values[depth.valid]
        return (depth.values.shape == GRID and np.isfinite(picked).all() and (picked > 0.0).all()
                and (depth.values[~depth.valid] == 0.0).all())
    grid = sample.seg_labels
    return (grid.dtype == np.int64 and grid.shape == (LABEL_GRID, LABEL_GRID)
            and grid.min() >= 0 and grid.max() < len(CLASS_NAMES))


def _read_or_reject(kind, data: bytes):
    """load_sample's result with the kind's file holding data, or None on a
    DataError naming that file."""
    with tempfile.TemporaryDirectory() as tmp:
        write_sample(TEMPLATE, tmp, FILES)
        path = Path(tmp) / getattr(FILES, KINDS[kind][0])
        path.write_bytes(data)
        try:
            sample = load_sample(tmp, _entry(TEMPLATE))
        except DataError as exc:
            assert str(path) in str(exc), f"{exc} does not name {path}"
            return None
    assert _valid(kind, sample), f"{kind} file loaded as an invalid sample"
    return sample


def _write(kind, obj) -> bytes:
    """The bytes write_sample writes for obj, the kind's part of a sample."""
    file_kind, _, part = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        write_sample(with_part(**{part: obj}), tmp, FILES)
        return (Path(tmp) / getattr(FILES, file_kind)).read_bytes()


# Header tokens: valid counts and dimensions plus near misses (signs, digit
# separators, other bases, floats, huge values, non-ASCII digits).
TOKENS = st.sampled_from([
    "0", "1", "2", "3", "8", "-1", "+3", "1.5", "1e3", "0x10", "1_0", "x", "",
    "99999999999999999999", "١", "levels", "points", "depth", "labels",
])
SEPARATORS = st.sampled_from([" ", " ", "\n", "\n", "  ", "\t", "\r\n", ""])
VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 255.0, 256.0, -1.0, 1.5, 0.25,
                          5e-324, 1e308, np.nan, np.inf, -np.inf])
SHAPES = {"ppm": st.just(GRID + (3,)) | st.tuples(st.integers(1, 3), st.integers(1, 3),
                                                    st.just(3)),
          "pcd": st.tuples(st.integers(0, 4), st.just(3)),
          "depth": st.just(GRID) | st.tuples(st.integers(1, 3), st.integers(1, 3)),
          "labels": st.just((LABEL_GRID, LABEL_GRID))}


@st.composite
def formatted_text(draw, kind):
    """A container header with drawn magic, count and array lines, often one
    holding the kind's array, then float64 data that often fits the header.
    Data for more than 100 values is one value repeated."""
    magic = draw(st.sampled_from([ARRAYS_MAGIC] * 3 + ["FFUSION-ARRAYS v2", "P3"]))
    lines = [draw(st.lists(TOKENS, max_size=4)) for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
    seps = [draw(SEPARATORS) for _ in lines]
    if draw(st.sampled_from([True, True, False])):
        shape = draw(st.one_of(SHAPES[kind], SHAPES[kind], st.lists(st.integers(0, 9), max_size=4)))
        lines.insert(0, [KINDS[kind][1], *map(str, shape)])
        seps.insert(0, " ")
    count = draw(st.sampled_from([str(len(lines)), str(len(lines)), draw(TOKENS)]))
    header = [magic, count] + [sep.join(line) or " " for sep, line in zip(seps, lines)]
    fit = sum(math.prod(int(d) for d in line[1:]) for line in lines
              if all(d.isascii() and d.isdigit() for d in line[1:]))
    size = draw(st.sampled_from([fit, fit, draw(st.integers(0, 40))]) if fit <= 3 * IMAGE_SIDE ** 2
                else st.integers(0, 40))
    same = st.just([draw(VALUES)] * size)
    values = draw(same | st.lists(VALUES, min_size=size, max_size=size) if size <= 100 else same)
    return ("\n".join(header) + "\nend\n").encode("utf-8") + struct.pack(f"<{size}d", *values)


@st.composite
def ppms(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, size=GRID + (3,)) / 255.0


@st.composite
def clouds(draw):
    count = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coords = draw(st.lists(finite, min_size=3 * count, max_size=3 * count))
    return PointCloud(np.array(coords, dtype=np.float64).reshape(count, 3))


@st.composite
def depths(draw):
    """Grid depth maps whose valid cells take drawn positive floats, from
    subnormals to the largest float."""
    positive = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    palette = np.array(draw(st.lists(positive, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.uniform(size=GRID) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    return DepthMap(np.where(valid, palette[rng.integers(0, len(palette), size=GRID)], 0.0),
                    valid)


@st.composite
def label_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, len(CLASS_NAMES), size=(LABEL_GRID, LABEL_GRID))


OBJECTS = {"ppm": ppms(), "pcd": clouds(), "depth": depths(), "labels": label_grids()}


@st.composite
def edited_files(draw, kind):
    """A file the writer produced, with one byte range replaced by drawn bytes."""
    data = _write(kind, draw(OBJECTS[kind]))
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 8)))
    patch = draw(st.one_of(TOKENS.map(lambda t: t.encode("utf-8")), st.binary(max_size=8)))
    return data[:start] + patch + data[stop:]


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def _container(name, array, dims=None) -> bytes:
    """A one-array container, built by hand; dims replaces the header's shape."""
    array = np.asarray(array, dtype=np.float64)
    dims = " ".join(map(str, array.shape)) if dims is None else dims
    header = f"{ARRAYS_MAGIC}\n1\n{name} {dims}".rstrip() + "\nend\n"
    return header.encode("ascii") + struct.pack(f"<{array.size}d", *array.ravel().tolist())


def _on_grid(cells, channels=(3,), fill=1.0):
    """An array on the image grid that holds fill but for its first cells."""
    array = np.full(GRID + channels, fill)
    array.reshape(-1)[:len(cells)] = cells
    return array


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestAnyText:
    @given(text=st.text(max_size=200))
    def test_arbitrary_text(self, kind, text):
        _read_or_reject(kind, text.encode("utf-8"))

    @given(data=st.data())
    def test_formatted_text(self, kind, data):
        _read_or_reject(kind, data.draw(formatted_text(kind)))

    @given(data=st.data())
    def test_edited_files(self, kind, data):
        _read_or_reject(kind, data.draw(edited_files(kind)))


class TestDefects:
    """Each kind's file rules, and the v1 ASCII files the containers replaced."""

    # FFUSION-DATASET v1 files, among them the malformed ones that once
    # escaped the ASCII readers as other exceptions or loaded as empty objects.
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

    @pytest.mark.parametrize("kind, data", [
        pytest.param("ppm", _container("points", _on_grid([])), id="ppm-wrong_name"),
        pytest.param("ppm", _container("levels", _on_grid([], ())), id="ppm-gray"),
        pytest.param("ppm", _container("levels", _on_grid([], (4,))), id="ppm-four_channels"),
        pytest.param("ppm", _container("levels", np.zeros((0, 2, 3))), id="ppm-empty"),
        pytest.param("ppm", _container("levels", _on_grid([1.0, 2.0, 256.0])), id="ppm-256"),
        pytest.param("ppm", _container("levels", _on_grid([1.0, 2.0, -1.0])), id="ppm-negative"),
        pytest.param("ppm", _container("levels", _on_grid([1.0, 2.5, 3.0])), id="ppm-fraction"),
        pytest.param("ppm", _container("levels", _on_grid([1.0, np.nan, 3.0])), id="ppm-nan"),
        pytest.param("ppm", _container("levels", _on_grid([])) * 2, id="ppm-two_containers"),
        pytest.param("ppm", f"{ARRAYS_MAGIC}\n2\nlevels {IMAGE_SIDE} {IMAGE_SIDE} 3\nextra\nend\n"
                     .encode() + bytes(8 * (3 * IMAGE_SIDE ** 2 + 1)), id="ppm-extra_array"),
        pytest.param("ppm", f"{ARRAYS_MAGIC}\n2\nlevels {IMAGE_SIDE} {IMAGE_SIDE} 3\nlevels\nend\n"
                     .encode() + bytes(8 * (3 * IMAGE_SIDE ** 2 + 1)), id="ppm-listed_twice"),
        # Off the image grid, among them the sizes that once loaded and
        # failed deep in feature preparation.
        pytest.param("ppm", _container("levels", np.arange(75).reshape(5, 5, 3)), id="ppm-5x5"),
        pytest.param("ppm", _container("levels", np.arange(768).reshape(16, 16, 3) % 256),
                     id="ppm-16x16"),
        pytest.param("ppm", _container("levels", np.zeros((IMAGE_SIDE, IMAGE_SIDE - 1, 3))),
                     id="ppm-32x31"),
        pytest.param("ppm", _container("levels", np.zeros((IMAGE_SIDE + 1, IMAGE_SIDE, 3))),
                     id="ppm-33x32"),
        pytest.param("ppm", _container("levels", np.zeros((1, 1, 3))), id="ppm-1x1"),
        ("pcd", _container("points", np.zeros((2, 2)))),
        ("pcd", _container("points", [[1.0, 2.0, np.inf]])),
        ("pcd", _container("points", [[1.0, 2.0, 3.0]], dims="1 3 1")),
        pytest.param("depth", _container("depth", _on_grid([1.0, 0.0], ())), id="depth-zero"),
        pytest.param("depth", _container("depth", _on_grid([1.0, -2.0], ())), id="depth-negative"),
        pytest.param("depth", _container("depth", _on_grid([1.0, -np.inf], ())),
                     id="depth-minus_inf"),
        pytest.param("depth", _container("depth", np.zeros((2, 0))), id="depth-empty"),
        pytest.param("depth", _container("depth", np.ones((16, 16))), id="depth-16x16"),
        pytest.param("depth", _container("depth", np.ones((IMAGE_SIDE, IMAGE_SIDE + 1))),
                     id="depth-32x33"),
        pytest.param("depth", _container("depth", np.ones((1, 1))), id="depth-1x1"),
        ("labels", _container("labels", np.zeros((LABEL_GRID, LABEL_GRID - 1)))),
        ("labels", _container("labels", np.full((LABEL_GRID, LABEL_GRID), len(CLASS_NAMES)))),
        ("labels", _container("labels", np.full((LABEL_GRID, LABEL_GRID), 0.5))),
        ("labels", _container("labels", np.zeros((LABEL_GRID, LABEL_GRID)))[:-1]),
        ("labels", _container("labels", np.zeros((LABEL_GRID, LABEL_GRID))) + b"\0"),
    ])
    def test_kind_rule_rejected(self, kind, data):
        assert _read_or_reject(kind, data) is None

    def test_malformed_number_names_the_file(self, tmp_path):
        path = tmp_path / "bad.ffa"
        path.write_bytes(_container("labels", np.zeros(2), dims="0x2"))
        with pytest.raises(DataError,
                           match=r"labels file .*bad.ffa: dimension of 'labels' '0x2' is not"):
            read_arrays(path, ARRAYS_MAGIC, "labels file", DataError)

    def test_missing_final_newline_and_crlf_accepted(self):
        for data in (b"go straight", b"go straight\r\n", b"go straight\n"):
            with tempfile.TemporaryDirectory() as tmp:
                write_sample(TEMPLATE, tmp, FILES)
                (Path(tmp) / FILES.text).write_bytes(data)
                assert load_sample(tmp, _entry(TEMPLATE)).text == "go straight"


@st.composite
def array_sets(draw):
    """Named float64 arrays of up to three dimensions, zero-size ones included,
    holding any float64 bit pattern: -0.0, subnormals, NaN and infinities."""
    names = draw(st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                                  min_size=1, max_size=6).filter(lambda n: n != "end"),
                          unique=True, max_size=4))
    arrays = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        arrays[name] = np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)
    return arrays


class TestArrayFile:
    @given(arrays=array_sets())
    @example(arrays={"a": np.array([-0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
                     "empty": np.zeros((2, 0, 3)), "scalar": np.array(-0.0)})
    def test_roundtrip_bit_exact(self, arrays):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arrays.ffa"
            write_arrays(path, ARRAYS_MAGIC, arrays)
            again = read_arrays(path, ARRAYS_MAGIC, "arrays", DataError)
        assert list(again) == list(arrays)
        for name, array in arrays.items():
            assert again[name].shape == array.shape and again[name].dtype == np.float64
            assert np.array_equal(_bits(again[name]), _bits(array))

    @pytest.mark.parametrize("data, cause", [
        (b"M\n", "header is missing its end marker"),
        (b"X\n0\nend\n", "unsupported format 'X', expected 'M'"),
        (b"M\nend\n", "header is missing its array count"),
        (b"M\n+1\na\nend\n" + bytes(8), "array count '+1' is not a decimal integer"),
        (b"M\n2\na 1\nend\n" + bytes(8), "header lists 1 arrays, expected 2"),
        (b"M\n1\n \nend\n", "empty array line in header"),
        (b"M\n2\na 1\na 1\nend\n" + bytes(16), "array 'a' is listed twice"),
        (b"M\n1\na 2 -1\nend\n" + bytes(16), "dimension of 'a' '-1' is not a decimal integer"),
        (b"M\n1\na " + b"1 " * 65 + b"\nend\n" + bytes(8), "bad shape on array line"),
        (b"M\n1\na 2\nend\n" + bytes(8), "data truncated at array 'a'"),
        (b"M\n1\na 1\nend\n" + bytes(16), "8 unexpected trailing bytes"),
        (b"M\xff\n0\nend\n", "non-ASCII byte at offset 1"),
    ])
    def test_rejected(self, tmp_path, data, cause):
        path = tmp_path / "arrays.ffa"
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"arrays {path}: {cause}")):
            read_arrays(path, "M", "arrays", DataError)

    @given(data=st.binary(max_size=200) | formatted_text("ppm"),
           error=st.sampled_from([DataError, ConfigError]))
    def test_any_bytes(self, data, error):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arrays.ffa"
            path.write_bytes(data)
            try:
                arrays = read_arrays(path, ARRAYS_MAGIC, "arrays", error)
            except FfusionError as exc:
                assert type(exc) is error and str(path) in str(exc)
                return
        assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in arrays.values())


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
        assert np.array_equal(_bits(roundtrip(with_part(rgb=rgb)).rgb), _bits(rgb))

    @given(cloud=clouds())
    @example(cloud=PointCloud(np.array([[-0.0, 5e-324, 1.7976931348623157e308]])))
    def test_point_cloud(self, cloud):
        again = roundtrip(with_part(cloud=cloud)).cloud
        assert np.array_equal(_bits(again.points), _bits(cloud.points))

    @given(depth=depths())
    def test_depth(self, depth):
        again = roundtrip(with_part(depth=depth)).depth
        assert np.array_equal(_bits(again.values), _bits(depth.values))
        assert np.array_equal(again.valid, depth.valid)

    @given(grid=label_grids())
    def test_labels(self, grid):
        assert np.array_equal(roundtrip(with_part(seg_labels=grid)).seg_labels, grid)


def _levels_by_cell(rgb):
    """8-bit levels, each rounded half to even from its clipped value."""
    img = np.asarray(rgb, dtype=np.float64)
    cells = [float(round(min(max(float(v), 0.0), 1.0) * 255.0)) for v in img.ravel()]
    return np.array(cells).reshape(img.shape)


def _depth_by_cell(depth):
    cells = [float(v) if ok else -1.0 for v, ok in zip(depth.values.ravel(), depth.valid.ravel())]
    return np.array(cells).reshape(depth.values.shape)


@st.composite
def raw_rgbs(draw):
    """Unquantized colors, some outside [0, 1], that the rgb writer clips and rounds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-0.1, 1.1, size=GRID + (3,))


@st.composite
def masked_depths(draw):
    """Depth maps whose invalid share is drawn from 0 % to 100 %."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.uniform(size=GRID) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    values = np.exp(rng.uniform(-700.0, 700.0, size=GRID))
    return DepthMap(np.where(valid, values, 0.0), valid)


class TestWritersMatchCellByCellReference:
    """Each file is a container built by hand: the header text, then every
    cell packed on its own with struct."""

    @given(rgb=st.one_of(ppms(), raw_rgbs()))
    @example(rgb=(np.arange(3 * IMAGE_SIDE ** 2) % 256).reshape(GRID + (3,)) / 255.0)
    @example(rgb=_on_grid([0.5 / 255.0, 1.5 / 255.0, 2.5 / 255.0]))
    def test_ppm(self, rgb):
        assert _write("ppm", rgb) == _container("levels", _levels_by_cell(rgb))

    @given(cloud=clouds())
    @example(cloud=PointCloud.empty())
    @example(cloud=PointCloud(np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                                        [-5e-324, -1.7976931348623157e308, 0.1]])))
    def test_point_cloud(self, cloud):
        assert _write("pcd", cloud) == _container("points", cloud.points)

    @given(depth=st.one_of(depths(), masked_depths()))
    @example(depth=DepthMap.empty(*GRID))
    @example(depth=DepthMap(_on_grid([5e-324, 1.7976931348623157e308], ()), np.ones(GRID, bool)))
    def test_depth(self, depth):
        assert _write("depth", depth) == _container("depth", _depth_by_cell(depth))

    @given(grid=label_grids())
    def test_labels(self, grid):
        assert _write("labels", grid) == _container("labels", grid)
