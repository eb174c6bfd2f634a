"""Sensor geometry: projection, densification, registration, intrinsics, file I/O."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ffusion.model.inputs as inputs
from ffusion.autodiff import Rng
from ffusion.errors import CalibrationError, DataError, ShapeError
from ffusion.geometry import (
    DepthMap,
    Intrinsics,
    PointCloud,
    densify_depth,
    densify_stack,
    project_point_cloud,
)
from ffusion.config import RunConfig
from ffusion.geometry.densify import (
    DEFAULT_NEIGHBORS,
    DEFAULT_RADIUS,
    DISTANCE_REG,
    _neighbor_offsets,
)
from ffusion.model import ModelConfig
from ffusion.model.inputs import DENSIFY_CHUNK
from ffusion.safety import FaultSpec, default_scenarios, inject_faults
from ffusion.scene import synthesize_sample
from ffusion.scene.dataset import ManifestEntry, load_sample, write_sample
from ffusion.scene.render import DEFAULT_INTRINSICS
from test_readers import FILES, TEMPLATE, roundtrip, with_part


@pytest.fixture
def intr():
    return Intrinsics(fx=28.0, fy=28.0, cx=16.0, cy=16.0, width=32, height=32)


def pixel_centre_points(rows, cols, z, intr):
    """Camera-frame points on the rays through the given pixel centres at depth z."""
    x = (np.asarray(cols) + 0.5 - intr.cx) * z / intr.fx
    y = (np.asarray(rows) + 0.5 - intr.cy) * z / intr.fy
    return np.stack([x, y, z], axis=-1)


def translate_depth(depth: DepthMap, dx: int, dy: int) -> DepthMap:
    """Move depth content by dx columns and dy rows; vacated cells go missing.

    The reference for a LiDAR miscalibration: moving the scan by whole pixels
    moves its projected map this way.
    """
    height, width = depth.values.shape
    values = np.zeros((height, width))
    valid = np.zeros((height, width), dtype=bool)
    src_r0, src_r1 = max(0, -dy), min(height, height - dy)
    src_c0, src_c1 = max(0, -dx), min(width, width - dx)
    if src_r0 < src_r1 and src_c0 < src_c1:
        dst = (slice(src_r0 + dy, src_r1 + dy), slice(src_c0 + dx, src_c1 + dx))
        src = (slice(src_r0, src_r1), slice(src_c0, src_c1))
        values[dst] = depth.values[src]
        valid[dst] = depth.valid[src]
    return DepthMap(values, valid)


class TestProjection:
    def test_hand_projected_point(self, intr):
        # u = 28*(1/2) + 16 = 30, v = 28*(0.5/2) + 16 = 23
        cloud = PointCloud(np.array([[1.0, 0.5, 2.0]]))
        depth = project_point_cloud(cloud, intr)
        assert depth.valid[23, 30]
        assert depth.values[23, 30] == 2.0
        assert int(depth.valid.sum()) == 1

    def test_z_buffer_keeps_nearest(self, intr):
        # Both points enter the same cell; the smaller depth must win.
        cloud = PointCloud(np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 2.0]]))
        depth = project_point_cloud(cloud, intr)
        assert depth.values[16, 16] == 2.0

    def test_near_plane_and_behind_camera_dropped(self, intr):
        cloud = PointCloud(np.array([[0.0, 0.0, 1e-7], [0.0, 0.0, -3.0], [0.0, 0.0, 0.0]]))
        depth = project_point_cloud(cloud, intr)
        assert not depth.valid.any()

    def test_out_of_view_points_dropped(self, intr):
        cloud = PointCloud(np.array([[50.0, 0.0, 2.0], [-50.0, 0.0, 2.0]]))
        depth = project_point_cloud(cloud, intr)
        assert not depth.valid.any()

    def test_round_trip_lands_in_same_cell(self, intr):
        rng = Rng(99)
        for _ in range(200):
            row = int(rng.integers(0, intr.height))
            col = int(rng.integers(0, intr.width))
            z = float(rng.uniform(0.5, 30.0))
            point = pixel_centre_points(row, col, z, intr)
            depth = project_point_cloud(PointCloud(point[None, :]), intr)
            assert depth.valid[row, col]
            assert np.isclose(depth.values[row, col], z, rtol=0, atol=1e-12)

    def test_back_project_depth_inverts_projection(self, intr):
        rng = Rng(5)
        rows = rng.integers(0, 32, 40)
        cols = rng.integers(0, 32, 40)
        z = rng.uniform(1.0, 20.0, 40)
        values = np.zeros((32, 32))
        valid = np.zeros((32, 32), dtype=bool)
        values[rows, cols] = z
        valid[rows, cols] = True
        depth = DepthMap(values, valid)
        cells = np.nonzero(valid)
        cloud = PointCloud(pixel_centre_points(*cells, values[cells], intr))
        again = project_point_cloud(cloud, intr)
        assert np.array_equal(again.valid, depth.valid)
        assert np.allclose(again.values, depth.values, atol=1e-12)


class TestCalibration:
    def test_intrinsics_bounds_enforced(self):
        with pytest.raises(CalibrationError):
            Intrinsics(fx=-1.0, fy=28.0, cx=16.0, cy=16.0, width=32, height=32)
        with pytest.raises(CalibrationError):
            Intrinsics(fx=28.0, fy=28.0, cx=32.0, cy=16.0, width=32, height=32)
        with pytest.raises(CalibrationError):
            Intrinsics(fx=28.0, fy=28.0, cx=16.0, cy=16.0, width=0, height=32)


class TestDensify:
    def _map_with(self, entries, shape=(16, 16)):
        values = np.zeros(shape)
        valid = np.zeros(shape, dtype=bool)
        for (r, c), v in entries.items():
            values[r, c] = v
            valid[r, c] = True
        return DepthMap(values, valid)

    def test_two_neighbor_hand_value(self):
        # Neighbors at distance 1 (value 2) and distance 2 (value 5), k=2:
        # (2/1 + 5/2) / (1 + 1/2) = 3.0, up to the 1e-6 distance regularizer.
        sparse = self._map_with({(8, 9): 2.0, (8, 10): 5.0})
        dense = densify_depth(sparse, radius=6, k=2)
        assert dense.valid[8, 8]
        assert np.isclose(dense.values[8, 8], 3.0, atol=1e-5)

    def test_single_neighbor_copies_exactly(self):
        sparse = self._map_with({(8, 8): 5.0})
        dense = densify_depth(sparse, radius=6, k=8)
        filled = dense.valid & ~sparse.valid
        assert filled.any()
        assert np.all(dense.values[filled] == 5.0)

    def test_equidistant_neighbors_average(self):
        # Values 2 and 4 both at distance 1 from the query cell.
        sparse = self._map_with({(8, 7): 2.0, (8, 9): 4.0})
        dense = densify_depth(sparse, radius=6, k=2)
        assert np.isclose(dense.values[8, 8], 3.0, atol=1e-9)

    def test_k_limits_to_nearest(self):
        # k=1 must take the strictly nearest neighbor only.
        sparse = self._map_with({(8, 9): 2.0, (8, 11): 9.0})
        dense = densify_depth(sparse, radius=6, k=1)
        assert dense.values[8, 8] == 2.0

    def test_tie_break_is_row_then_col(self):
        # Four neighbors all at distance 2; k=1 must pick the smallest row
        # offset, then the smallest column offset: the one above (dr=-2).
        sparse = self._map_with({(6, 8): 1.0, (10, 8): 2.0, (8, 6): 3.0, (8, 10): 4.0})
        dense = densify_depth(sparse, radius=6, k=1)
        assert dense.values[8, 8] == 1.0

    def test_out_of_radius_stays_missing(self):
        sparse = self._map_with({(0, 0): 3.0})
        dense = densify_depth(sparse, radius=2, k=4)
        assert not dense.valid[10, 10]

    def test_valid_cells_pass_through(self):
        sparse = self._map_with({(3, 3): 1.5, (3, 5): 9.0})
        dense = densify_depth(sparse)
        assert dense.values[3, 3] == 1.5
        assert dense.values[3, 5] == 9.0

    def test_filled_values_convex_in_sources(self):
        rng = Rng(31)
        values = np.zeros((32, 32))
        valid = rng.uniform(size=(32, 32)) < 0.3
        values[valid] = rng.uniform(1.0, 20.0, int(valid.sum()))
        sparse = DepthMap(values, valid)
        dense = densify_depth(sparse)
        filled = dense.valid & ~sparse.valid
        lo, hi = values[valid].min(), values[valid].max()
        assert np.all(dense.values[filled] >= lo)
        assert np.all(dense.values[filled] <= hi)

    def test_parameter_validation(self):
        sparse = DepthMap.empty(4, 4)
        with pytest.raises(ValueError):
            densify_depth(sparse, radius=0)
        with pytest.raises(ValueError):
            densify_depth(sparse, k=0)

    def test_stack_shape_validation(self):
        with pytest.raises(ShapeError):
            densify_stack(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))
        with pytest.raises(ShapeError):
            densify_stack(np.zeros((2, 4, 4)), np.zeros((2, 4, 5), dtype=bool))


def _loop_densify(values, valid, radius, k):
    """Reference: the per-map windowed offset loop, one map at a time."""
    height, width = values.shape
    count = np.zeros((height, width), dtype=np.int64)
    weight_sum = np.zeros((height, width))
    weighted_value = np.zeros((height, width))
    low = np.full((height, width), np.inf)
    high = np.full((height, width), -np.inf)
    hole = ~valid
    for dist, dr, dc in _neighbor_offsets(radius):
        t_r0, t_r1 = max(0, -dr), min(height, height - dr)
        t_c0, t_c1 = max(0, -dc), min(width, width - dc)
        if t_r0 >= t_r1 or t_c0 >= t_c1:
            continue
        target = (slice(t_r0, t_r1), slice(t_c0, t_c1))
        source = (slice(t_r0 + dr, t_r1 + dr), slice(t_c0 + dc, t_c1 + dc))
        accept = hole[target] & valid[source] & (count[target] < k)
        w = 1.0 / (dist + DISTANCE_REG)
        src_vals = values[source]
        count[target] += accept
        weight_sum[target] += np.where(accept, w, 0.0)
        weighted_value[target] += np.where(accept, w * src_vals, 0.0)
        low[target] = np.where(accept & (src_vals < low[target]), src_vals, low[target])
        high[target] = np.where(accept & (src_vals > high[target]), src_vals, high[target])
    filled = count > 0
    out_values, out_valid = values.copy(), valid.copy()
    est = weighted_value[filled] / weight_sum[filled]
    out_values[filled] = np.clip(est, low[filled], high[filled])
    out_valid[filled] = True
    return out_values, out_valid


@st.composite
def sparse_stacks(draw):
    """(values, valid) stacks with mixed hole density, some maps all-empty."""
    n = draw(st.integers(1, 6))
    height, width = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    densities = draw(st.lists(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 1.0]),
                              min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    valid = rng.uniform(size=(n, height, width)) < np.asarray(densities)[:, None, None]
    values = np.where(valid, rng.uniform(0.5, 20.0, size=valid.shape), 0.0)
    return values, valid


def scan_stack(seed, densities, shifts):
    """(values, valid) stack of 32x32 maps shaped like projected scans: valid
    only on every other row, at the given densities, each map then moved by
    its registration shift."""
    rng = np.random.default_rng(seed)
    valid = rng.uniform(size=(len(densities), 32, 32)) < np.asarray(densities)[:, None, None]
    valid[:, 1::2] = False
    values = np.where(valid, rng.uniform(0.5, 20.0, size=valid.shape), 0.0)
    maps = [translate_depth(DepthMap(v, m), dx, dy)
            for v, m, (dx, dy) in zip(values, valid, shifts)]
    return np.stack([m.values for m in maps]), np.stack([m.valid for m in maps])


@st.composite
def scan_stacks(draw):
    """scan_stack draws of up to more maps than one DENSIFY_CHUNK."""
    n = draw(st.integers(1, DENSIFY_CHUNK + 3))
    densities = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.6, 0.95]),
                              min_size=n, max_size=n))
    shifts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=n, max_size=n))
    return scan_stack(draw(st.integers(0, 2**32 - 1)), densities, shifts)


# A full chunk plus three, at every density, half of the maps shifted.
CHUNK_AND_MORE = scan_stack(7, [0.0, 0.05, 0.3, 0.6, 0.95] * 7,
                            [(0, 0), (3, -2), (-4, 1), (0, 0), (2, 4)] * 7)


class TestDensifyStack:
    @given(stack=sparse_stacks(), radius=st.integers(1, 6), k=st.integers(1, 9))
    def test_stack_matches_each_map_alone(self, stack, radius, k):
        values, valid = stack
        out_values, out_valid = densify_stack(values, valid, radius, k)
        for i in range(len(values)):
            alone = densify_depth(DepthMap(values[i], valid[i]), radius, k)
            ref_values, ref_valid = _loop_densify(values[i], valid[i], radius, k)
            assert np.array_equal(out_values[i].view(np.int64), alone.values.view(np.int64))
            assert np.array_equal(out_values[i].view(np.int64), ref_values.view(np.int64))
            assert np.array_equal(out_valid[i], alone.valid)
            assert np.array_equal(out_valid[i], ref_valid)

    @given(stack=scan_stacks(), radius=st.integers(1, 8),
           k=st.integers(1, 12) | st.sampled_from([255, 256, 300]))
    @example(stack=CHUNK_AND_MORE, radius=DEFAULT_RADIUS, k=DEFAULT_NEIGHBORS)
    @example(stack=CHUNK_AND_MORE, radius=8, k=300)
    @example(stack=CHUNK_AND_MORE, radius=8, k=255)
    @example(stack=CHUNK_AND_MORE, radius=1, k=1)
    def test_real_size_matches_each_map_alone(self, stack, radius, k):
        # k of 255 and more is above the offsets in range of radius 8 (196),
        # so no cell ever reaches it.
        values, valid = stack
        out_values, out_valid = densify_stack(values, valid, radius, k)
        for i in range(len(values)):
            ref_values, ref_valid = _loop_densify(values[i], valid[i], radius, k)
            assert out_values[i].tobytes() == ref_values.tobytes()
            assert np.array_equal(out_valid[i], ref_valid)

    def test_projected_maps_under_lidar_faults(self):
        # The maps eval densifies: synthesized scans under every default
        # LiDAR fault and noise level, in one stack per fault list.
        lidar = [s.faults for s in default_scenarios()
                 if s.faults and all(f.modality == "lidar" for f in s.faults)]
        lidar += [(FaultSpec("lidar", "gaussian_noise", sigma, 1),)
                  for sigma in RunConfig().sigmas]
        samples = [synthesize_sample(f"m{i}", 4200 + i) for i in range(6)]
        for faults in [(), (FaultSpec("lidar", "miscalibration_shift", 2.0),), *lidar]:
            maps = [project_point_cloud(inject_faults(sample, faults).cloud, DEFAULT_INTRINSICS)
                    for sample in samples]
            values = np.stack([m.values for m in maps])
            valid = np.stack([m.valid for m in maps])
            out_values, out_valid = densify_stack(values, valid)
            for i in range(len(maps)):
                ref_values, ref_valid = _loop_densify(values[i], valid[i],
                                                      DEFAULT_RADIUS, DEFAULT_NEIGHBORS)
                assert out_values[i].tobytes() == ref_values.tobytes(), faults
                assert np.array_equal(out_valid[i], ref_valid), faults

    def test_inputs_untouched(self):
        rng = np.random.default_rng(5)
        valid = rng.uniform(size=(3, 8, 8)) < 0.2
        values = np.where(valid, rng.uniform(1.0, 9.0, size=valid.shape), 0.0)
        before = values.copy(), valid.copy()
        densify_stack(values, valid)
        assert np.array_equal(values, before[0]) and np.array_equal(valid, before[1])


class TestRegistration:
    """A miscalibration_shift of m pixels moves the point cloud, and its
    projection is the clean one translated by m columns and m rows."""

    def test_translate_moves_content(self):
        values = np.zeros((8, 8))
        valid = np.zeros((8, 8), dtype=bool)
        values[2, 3] = 4.0
        valid[2, 3] = True
        moved = translate_depth(DepthMap(values, valid), dx=2, dy=1)
        assert moved.valid[3, 5]
        assert moved.values[3, 5] == 4.0
        assert int(moved.valid.sum()) == 1

    @given(seed=st.integers(0, 2**64 - 1), shift=st.integers(0, 3),
           dropout=st.none() | st.floats(0.0, 1.0))
    def test_shifted_cloud_prepares_as_the_translated_projection(self, seed, shift, dropout):
        clean = synthesize_sample("000000", seed)
        if dropout is not None:
            clean = inject_faults(clean, (FaultSpec("lidar", "partial_dropout", dropout, 1),))
        shifted = inject_faults(clean, (FaultSpec("lidar", "miscalibration_shift", shift),))
        moved = project_point_cloud(shifted.cloud, DEFAULT_INTRINSICS)
        expected = translate_depth(project_point_cloud(clean.cloud, DEFAULT_INTRINSICS),
                                   shift, shift)
        assert moved.values.tobytes() == expected.values.tobytes()
        assert np.array_equal(moved.valid, expected.valid)
        config = ModelConfig()
        values, health = inputs.prepare_depth([shifted], config)

        def translated(cloud, intrinsics):
            return translate_depth(project_point_cloud(cloud, intrinsics), shift, shift)

        with mock.patch.object(inputs, "project_point_cloud", translated):
            ref_values, ref_health = inputs.prepare_depth([clean], config)
        assert values.tobytes() == ref_values.tobytes()
        assert health == ref_health


def _load_with(tmp_path, kind, data: bytes):
    """load_sample of a template sample whose kind's file holds data."""
    write_sample(TEMPLATE, tmp_path, FILES)
    (tmp_path / getattr(FILES, kind)).write_bytes(data)
    return load_sample(tmp_path, ManifestEntry(id=TEMPLATE.sample_id, split="train", seed=0,
                                               command=TEMPLATE.command, files=FILES))


class TestFileFormats:
    """The cloud and depth files of a sample (see tests/test_readers.py)."""

    def test_point_cloud_roundtrip_exact(self, tmp_path):
        rng = Rng(7)
        cloud = PointCloud(rng.normal((50, 3)) * 10.0)
        again = roundtrip(with_part(cloud=cloud)).cloud
        assert np.array_equal(again.points, cloud.points)
        write_sample(with_part(cloud=cloud), tmp_path, FILES)
        data = (tmp_path / FILES.cloud).read_bytes()
        assert data.startswith(b"FFUSION-ARRAYS v1\n1\npoints 50 3\nend\n")

    def test_empty_cloud_roundtrip(self):
        assert len(roundtrip(with_part(cloud=PointCloud.empty())).cloud) == 0

    def test_depth_roundtrip_exact(self, tmp_path):
        rng = Rng(8)
        values = np.zeros((32, 32))
        valid = rng.uniform(size=(32, 32)) < 0.4
        values[valid] = rng.uniform(0.5, 25.0, int(valid.sum()))
        depth = DepthMap(values, valid)
        again = roundtrip(with_part(depth=depth)).depth
        assert np.array_equal(again.values, depth.values)
        assert np.array_equal(again.valid, depth.valid)
        write_sample(with_part(depth=depth), tmp_path, FILES)
        data = (tmp_path / FILES.depth).read_bytes()
        assert data.startswith(b"FFUSION-ARRAYS v1\n1\ndepth 32 32\nend\n")

    def test_bad_headers_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cloud file .*: unsupported format 'NOT-A-CLOUD 3'"):
            _load_with(tmp_path, "cloud", b"NOT-A-CLOUD 3\n1\npoints 0 3\nend\n")
        with pytest.raises(DataError, match="depth file .*: unsupported format 'NOT-A-DEPTH'"):
            _load_with(tmp_path, "depth", b"NOT-A-DEPTH\n1\ndepth 4 4\nend\n" + bytes(128))

    def test_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError, match="data truncated at array 'points'"):
            _load_with(tmp_path, "cloud",
                       b"FFUSION-ARRAYS v1\n1\npoints 2 3\nend\n" + bytes(24))

    def test_depth_map_invariants(self):
        with pytest.raises(DataError):
            DepthMap(np.full((2, 2), -1.0), np.ones((2, 2), dtype=bool))
        with pytest.raises(DataError):
            DepthMap(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
