"""Scene generation, rendering, LiDAR simulation, commands and dataset files."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffusion.scene.dataset as scene_dataset
from ffusion.autodiff import Rng
from ffusion.errors import DataError, SceneError
from ffusion.geometry import (
    CENTER_Y,
    FOCAL_Y,
    IMAGE_SIDE,
    PIXEL_RAYS,
    DepthMap,
    PointCloud,
    project_point_cloud,
)
from ffusion.model import ModelConfig, prepare_samples
from ffusion.safety import FaultSpec, inject_faults
from ffusion.scene import (
    CLASS_IDS,
    GROUND_HEIGHT,
    MAX_OBJECTS,
    MIN_SPACING,
    OBJECT_CLASSES,
    RayHits,
    Sample,
    SceneObject,
    SceneSpec,
    build_dataset,
    cast_rays,
    derive_command,
    generate_scene,
    load_dataset,
    quantize_rgb,
    render_depth,
    simulate_depth_scan,
    synthesize_sample,
)
from ffusion.scene.dataset import MANIFEST_FORMAT, write_sample
from ffusion.scene.lidar import SCAN_ROW_STEP, scan_from_hits
from ffusion.scene.render import HIT_GROUND, HIT_NONE, HIT_OBJECT, labels_from_hits, rgb_from_hits
from ffusion.scene.spec import GROUND_COLORS, SKY_COLOR
from test_readers import FILES, roundtrip, with_part


def _box(x, z, size=1.0, class_name="vehicle", y=None):
    y = GROUND_HEIGHT - size / 2.0 if y is None else y
    return SceneObject("box", class_name, np.array([x, y, z]), size, np.array([0.2, 0.3, 0.8]))


def _sphere(x, z, size=1.0, class_name="vehicle"):
    y = GROUND_HEIGHT - size / 2.0
    return SceneObject("sphere", class_name, np.array([x, y, z]), size, np.array([0.8, 0.3, 0.2]))


class TestGenerateScene:
    def test_same_seed_same_scene(self):
        a = generate_scene(123)
        b = generate_scene(123)
        assert len(a.objects) == len(b.objects)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.shape == ob.shape
            assert oa.class_name == ob.class_name
            assert np.array_equal(oa.center, ob.center)
            assert oa.size == ob.size
            assert np.array_equal(oa.color, ob.color)

    def test_different_seeds_differ(self):
        a = generate_scene(1)
        b = generate_scene(2)
        same = len(a.objects) == len(b.objects) and all(
            np.array_equal(oa.center, ob.center) for oa, ob in zip(a.objects, b.objects)
        )
        assert not same

    def test_invariants_over_many_seeds(self):
        for seed in range(100):
            scene = generate_scene(seed)
            assert 1 <= len(scene.objects) <= MAX_OBJECTS
            centers = [obj.center for obj in scene.objects]
            for obj in scene.objects:
                assert obj.center[2] - obj.size / 2.0 > 1.0
                assert 0.0 < obj.size <= 2.0
                assert obj.class_name in ("pedestrian", "vehicle", "barrier")
            for i in range(len(centers)):
                for j in range(i + 1, len(centers)):
                    assert np.linalg.norm(centers[i] - centers[j]) >= MIN_SPACING

    def test_scene_spec_validation(self):
        with pytest.raises(SceneError):
            SceneSpec(())
        with pytest.raises(SceneError):
            SceneSpec(tuple(_box(0.0, 5.0 + i) for i in range(7)))
        with pytest.raises(SceneError):
            SceneObject("cone", "vehicle", np.zeros(3), 1.0, np.zeros(3))
        with pytest.raises(SceneError):
            _box(0.0, 1.2)  # front face would touch the camera zone


def _cast(scene):
    """The pixel grid's hits, from which every view of a sample is derived."""
    return cast_rays(scene, PIXEL_RAYS)


class TestRendering:
    def test_fronto_parallel_box_depth_is_exact(self):
        # Resting box, size 1, centered at z=4: front face is the plane
        # z=3.5 spanning x in [-0.5, 0.5], y in [0.5, 1.5]. Pixel-center
        # rays land on it exactly for rows 20..27, cols 12..19 (ground
        # occludes from row 28 down), and the face depth is exact.
        scene = SceneSpec((_box(0.0, 4.0, size=1.0),))
        depth = render_depth(scene)
        face = depth.values == 3.5
        expected = np.zeros((32, 32), dtype=bool)
        expected[20:28, 12:20] = True
        assert np.array_equal(face, expected)

    def test_ground_depth_matches_plane_equation(self):
        scene = SceneSpec((_box(50.0, 17.0, size=0.4, y=GROUND_HEIGHT - 0.2),))
        depth = render_depth(scene)
        for row in (24, 28, 31):
            dir_y = (row + 0.5 - CENTER_Y) / FOCAL_Y
            expected = GROUND_HEIGHT / dir_y
            assert np.isclose(depth.values[row, 0], expected, atol=1e-9)

    def test_sky_pixels_missing(self):
        scene = SceneSpec((_box(0.0, 17.5, size=0.5),))
        depth = render_depth(scene)
        assert not depth.valid[0, 0]
        assert not depth.valid[2, 31]

    def test_rgb_range_and_regions(self):
        scene = SceneSpec((_box(0.0, 4.0, size=1.5),))
        img = rgb_from_hits(scene, _cast(scene))
        assert img.shape == (32, 32, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img[18, 16], np.array([0.2, 0.3, 0.8]))  # box color
        assert np.array_equal(img[0, 0], np.array([0.55, 0.70, 0.90]))  # sky

    def test_checkerboard_ground_varies(self):
        scene = SceneSpec((_box(0.0, 17.5, size=0.5),))
        img = rgb_from_hits(scene, _cast(scene))
        bottom = img[28:, :, 0]
        assert bottom.std() > 0.01

    def test_sphere_silhouette_depth(self):
        # Pixel (16, 16) looks along (a, a, 1) with a = 0.5/28; the nearest
        # quadratic root against a unit sphere at (0, 0, 6) is the oracle.
        scene = SceneSpec(
            (SceneObject("sphere", "vehicle", np.array([0.0, 0.0, 6.0]), 2.0,
                         np.array([0.5, 0.5, 0.5])),)
        )
        depth = render_depth(scene)
        a = 0.5 / 28.0
        qa = 2.0 * a * a + 1.0
        qb = -2.0 * 6.0
        qc = 36.0 - 1.0
        t = (-qb - np.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
        assert np.isclose(depth.values[16, 16], t, rtol=0.0, atol=1e-12)

    def test_labels_mark_large_object(self):
        scene = SceneSpec((_box(0.0, 4.0, size=2.0, class_name="barrier"),))
        labels = labels_from_hits(scene, _cast(scene))
        assert labels[4, 4] == CLASS_IDS["barrier"]
        assert labels[0, 0] == 0  # sky stays background
        assert labels.shape == (8, 8)

    def test_labels_majority_rule(self):
        # A sliver of an object never outvotes the background in a cell.
        scene = SceneSpec((_box(8.0, 14.0, size=0.3, y=GROUND_HEIGHT - 0.15),))
        labels = labels_from_hits(scene, _cast(scene))
        assert labels.sum() == 0

    def test_occlusion_nearest_wins(self):
        # Two floating boxes stacked along the optical axis both cover the
        # center pixel; the rendered depth must come from the near one.
        near = SceneObject("box", "vehicle", np.array([0.0, 0.0, 4.0]), 1.0,
                           np.array([0.2, 0.3, 0.8]))
        far = SceneObject("box", "barrier", np.array([0.0, 0.0, 10.0]), 1.0,
                          np.array([0.9, 0.8, 0.3]))
        depth = render_depth(SceneSpec((near, far)))
        only_far = render_depth(SceneSpec((far,)))
        assert depth.values[16, 16] == 3.5
        assert only_far.values[16, 16] == 9.5


class TestLidar:
    def test_ground_points_satisfy_plane_equation(self):
        scene = SceneSpec((_box(50.0, 17.0, size=0.4, y=GROUND_HEIGHT - 0.2),))  # out of view
        cloud = simulate_depth_scan(scene, row_step=1)
        assert len(cloud) > 0
        assert np.all(np.abs(cloud.points[:, 1] - GROUND_HEIGHT) < 1e-9)

    def test_sphere_points_on_surface(self):
        center = np.array([0.0, 0.0, 6.0])
        scene = SceneSpec(
            (SceneObject("sphere", "vehicle", center, 2.0, np.array([0.5, 0.5, 0.5])),)
        )
        cloud = simulate_depth_scan(scene, row_step=1)
        on_sphere = np.abs(np.linalg.norm(cloud.points - center, axis=1) - 1.0) < 1e-9
        near_ground = np.abs(cloud.points[:, 1] - GROUND_HEIGHT) < 1e-9
        assert len(cloud) > 0
        assert np.all(on_sphere | near_ground)
        assert on_sphere.any()

    def test_miss_rays_produce_no_points(self):
        scene = SceneSpec((_box(0.0, 4.0),))
        # Level rays (dir_y = 0) meet neither the ground plane nor the resting box.
        level = cast_rays(scene, PIXEL_RAYS * np.array([1.0, 0.0, 1.0]))
        cloud = scan_from_hits(level, row_step=1)
        assert len(cloud) == 0
        assert cloud.points.shape == (0, 3)


class TestDepthScanOracle:
    def test_projected_scan_matches_rendered_depth_bitwise(self):
        for seed in (3, 17, 99):
            scene = generate_scene(seed)
            cloud = simulate_depth_scan(scene, row_step=2)
            sparse = project_point_cloud(cloud)
            rendered = render_depth(scene)
            rows, cols = np.nonzero(sparse.valid)
            assert rows.size > 0
            assert np.all(rendered.valid[rows, cols])
            assert np.array_equal(
                sparse.values[rows, cols], rendered.values[rows, cols]
            )

    def test_scan_covers_only_scanned_rows(self):
        scene = generate_scene(5)
        cloud = simulate_depth_scan(scene, row_step=2)
        sparse = project_point_cloud(cloud)
        rows = np.nonzero(sparse.valid.any(axis=1))[0]
        assert np.all(rows % 2 == 0)


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


class TestOneCastPerSample:
    """A sample's four views come from one pixel-grid cast; each equals its own renderer."""

    @given(seed=st.integers(0, 2**64 - 1), row_step=st.integers(1, 4))
    def test_synthesized_views_equal_the_renderers(self, seed, row_step):
        scene = generate_scene(seed)
        sample = synthesize_sample("000000", seed, row_step=row_step)
        hits = _cast(scene)
        rgb = quantize_rgb(rgb_from_hits(scene, hits))
        assert np.array_equal(_bits(sample.rgb), _bits(rgb))
        depth = render_depth(scene)
        assert np.array_equal(_bits(sample.depth.values), _bits(depth.values))
        assert np.array_equal(sample.depth.valid, depth.valid)
        assert np.array_equal(sample.seg_labels,
                              labels_from_hits(scene, hits))
        scan = simulate_depth_scan(scene, row_step)
        assert np.array_equal(_bits(sample.cloud.points), _bits(scan.points))

    @given(seed=st.integers(0, 2**64 - 1), row_step=st.integers(1, 4))
    def test_row_sliced_scan_equals_casting_only_the_scanned_rows(self, seed, row_step):
        scene = generate_scene(seed)
        dirs = PIXEL_RAYS.reshape(IMAGE_SIDE, IMAGE_SIDE, 3)[::row_step]
        hits = cast_rays(scene, dirs.reshape(-1, 3))
        scan = simulate_depth_scan(scene, row_step)
        assert np.array_equal(_bits(scan.points), _bits(hits.points[hits.hit]))

    def test_every_sample_casts_the_one_read_only_ray_grid(self, monkeypatch):
        cast = []
        monkeypatch.setattr(scene_dataset, "cast_rays",
                            lambda scene, dirs: cast.append(dirs) or cast_rays(scene, dirs))
        for seed in (1, 2):
            synthesize_sample("000000", seed)
        assert all(dirs is PIXEL_RAYS for dirs in cast) and len(cast) == 2
        assert PIXEL_RAYS.shape == (IMAGE_SIDE * IMAGE_SIDE, 3)
        assert not PIXEL_RAYS.flags.writeable
        assert np.all(PIXEL_RAYS[:, 2] == 1.0)

    def test_default_sample_uses_the_dataset_row_step(self):
        scene = generate_scene(41)
        scan = simulate_depth_scan(scene, SCAN_ROW_STEP)
        sample = synthesize_sample("000000", 41)
        assert np.array_equal(_bits(sample.cloud.points), _bits(scan.points))


def _rgb_by_object_loop(scene, hits):
    """Shading as first written, one masked assignment per region: the reference for rgb_from_hits."""
    img = np.tile(np.asarray(SKY_COLOR), (hits.t.shape[0], 1))
    ground = hits.kind == HIT_GROUND
    if ground.any():
        cells = np.floor(hits.points[ground, 0]) + np.floor(hits.points[ground, 2])
        parity = np.mod(cells, 2.0) == 0.0
        img[ground] = np.where(
            parity[:, None], np.asarray(GROUND_COLORS[0]), np.asarray(GROUND_COLORS[1])
        )
    for i, obj in enumerate(scene.objects):
        img[(hits.kind == HIT_OBJECT) & (hits.index == i)] = obj.color
    return img.reshape(32, 32, 3)


class TestShading:
    @given(seed=st.integers(0, 2**64 - 1))
    def test_palette_equals_the_per_object_loop(self, seed):
        scene = generate_scene(seed)
        hits = cast_rays(scene, PIXEL_RAYS)
        assert np.array_equal(_bits(rgb_from_hits(scene, hits)),
                              _bits(_rgb_by_object_loop(scene, hits)))


def _labels_by_cell_loop(scene, hits):
    """The per-cell majority vote as first written: the reference for labels_from_hits."""
    pixel_class = np.zeros(hits.t.shape[0], dtype=np.int64)
    obj_rows = hits.kind == HIT_OBJECT
    if obj_rows.any():
        ids = np.array([obj.class_id for obj in scene.objects], dtype=np.int64)
        pixel_class[obj_rows] = ids[hits.index[obj_rows]]
    blocks = (
        pixel_class.reshape(32, 32).reshape(8, 4, 8, 4).transpose(0, 2, 1, 3).reshape(8, 8, 16)
    )
    labels = np.zeros((8, 8), dtype=np.int64)
    for r in range(8):
        for c in range(8):
            cell = blocks[r, c]
            object_pixels = cell[cell != 0]
            if object_pixels.size > 8:
                labels[r, c] = int(np.argmax(np.bincount(object_pixels)))
    return labels


@st.composite
def pixel_hits(draw):
    """A scene and hits whose 4x4 cells hold 0-16 object pixels drawn from two objects."""
    count = draw(st.integers(1, MAX_OBJECTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = rng.choice(len(OBJECT_CLASSES), size=count)
    scene = SceneSpec(tuple(_box(2.0 * i, 6.0, class_name=OBJECT_CLASSES[k])
                            for i, k in enumerate(classes)))
    cells = np.full((8, 8, 16), -1, dtype=np.int64)
    for r in range(8):
        for c in range(8):
            objects = rng.integers(0, count, size=2)[rng.integers(0, 2, size=16)]
            cells[r, c] = np.where(np.arange(16) < rng.integers(0, 17), objects, -1)
            rng.shuffle(cells[r, c])
    index = cells.reshape(8, 8, 4, 4).transpose(0, 2, 1, 3).reshape(-1)
    background = rng.choice([HIT_NONE, HIT_GROUND], size=index.shape)
    kind = np.where(index >= 0, HIT_OBJECT, background)
    n = index.size
    return scene, RayHits(t=np.ones(n), kind=kind, index=index, points=np.zeros((n, 3)))


class TestLabelVote:
    @given(case=pixel_hits())
    def test_vote_equals_the_per_cell_loop(self, case):
        scene, hits = case
        assert np.array_equal(labels_from_hits(scene, hits),
                              _labels_by_cell_loop(scene, hits))

    def test_exact_half_and_ties(self):
        scene = SceneSpec((_box(0.0, 6.0, class_name="barrier"),
                           _box(2.0, 6.0, class_name="pedestrian")))
        index = np.full((8, 8, 16), -1, dtype=np.int64)
        index[0, 0, :8] = 0        # 8 of 16 object pixels: no majority
        index[0, 1, :9] = 0        # 9 of 16: barrier
        index[0, 2, :5] = 0        # 5 barrier, 5 pedestrian: the lower id wins
        index[0, 2, 5:10] = 1
        index[0, 3, :16] = 1       # all pedestrian
        flat = index.reshape(8, 8, 4, 4).transpose(0, 2, 1, 3).reshape(-1)
        kind = np.where(flat >= 0, HIT_OBJECT, HIT_GROUND)
        hits = RayHits(t=np.ones(flat.size), kind=kind, index=flat, points=np.zeros((flat.size, 3)))
        labels = labels_from_hits(scene, hits)
        assert labels[0, :4].tolist() == [0, CLASS_IDS["barrier"], CLASS_IDS["pedestrian"],
                                          CLASS_IDS["pedestrian"]]
        assert labels[1:].sum() == 0 and labels[0, 4:].sum() == 0
        assert np.array_equal(labels, _labels_by_cell_loop(scene, hits))


class TestCommands:
    def test_pedestrian_near_lane_stops(self):
        ped = SceneObject("box", "pedestrian", np.array([3.0, 1.2, 8.0]), 0.6,
                          np.array([0.8, 0.2, 0.2]))
        scene = SceneSpec((ped, _box(-4.0, 5.0)))
        assert derive_command(scene) == ("stop", "stop ahead pedestrian")

    def test_far_pedestrian_does_not_stop(self):
        ped = SceneObject("box", "pedestrian", np.array([5.8, 1.2, 8.0]), 0.6,
                          np.array([0.8, 0.2, 0.2]))
        scene = SceneSpec((ped,))
        command, _ = derive_command(scene)
        assert command != "stop"

    def test_obstacle_right_of_center_turns_left(self):
        scene = SceneSpec((_box(1.5, 6.0), _box(-4.0, 12.0)))
        assert derive_command(scene)[0] == "turn_left"

    def test_obstacle_left_of_center_turns_right(self):
        scene = SceneSpec((_box(-1.5, 6.0), _box(4.0, 12.0)))
        assert derive_command(scene)[0] == "turn_right"

    def test_clear_lane_goes(self):
        scene = SceneSpec((_box(4.0, 6.0), _box(-5.0, 12.0)))
        assert derive_command(scene) == ("go", "lane clear go straight")

    def test_nearest_object_decides(self):
        scene = SceneSpec((_box(4.0, 4.0), _box(1.0, 10.0)))
        assert derive_command(scene)[0] == "go"


class TestDataset:
    def test_build_is_byte_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        build_dataset(d1, count=6, seed=77, ratios=(0.5, 0.25, 0.25))
        build_dataset(d2, count=6, seed=77, ratios=(0.5, 0.25, 0.25))
        for f1 in sorted(d1.iterdir()):
            f2 = d2 / f1.name
            assert f2.exists()
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_loaded_equals_synthesized(self, tmp_path):
        manifest = build_dataset(tmp_path / "data", count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        splits = load_dataset(tmp_path / "data")
        entry = manifest["samples"][0]
        loaded = splits["train"][0]
        fresh = synthesize_sample(entry["id"], entry["seed"])
        assert np.array_equal(loaded.rgb, fresh.rgb)
        assert np.array_equal(loaded.cloud.points, fresh.cloud.points)
        assert np.array_equal(loaded.depth.values, fresh.depth.values)
        assert loaded.text == fresh.text
        assert loaded.command == fresh.command
        assert np.array_equal(loaded.seg_labels, fresh.seg_labels)

    def test_split_sizes_and_disjoint_seeds(self, tmp_path):
        manifest = build_dataset(tmp_path / "data", count=10, seed=3)
        by_split = {"train": 0, "val": 0, "test": 0}
        seeds = set()
        for entry in manifest["samples"]:
            by_split[entry["split"]] += 1
            seeds.add(entry["seed"])
        assert by_split == {"train": 8, "val": 1, "test": 1}
        assert len(seeds) == 10

    def test_all_commands_present_in_large_build(self):
        # Frozen from a 512-sample dry run: every command class occurs.
        root = Rng(11)
        seen = set()
        for i in range(512):
            scene = generate_scene(root.derive_seed(f"sample/{i:06d}"))
            seen.add(derive_command(scene)[0])
            if len(seen) == 4:
                break
        assert seen == {"stop", "go", "turn_left", "turn_right"}

    def test_ppm_roundtrip(self, tmp_path):
        """The rgb file (a PPM in FFUSION-DATASET v1) stores 8-bit levels."""
        rng = Rng(4)
        img = np.rint(rng.uniform(size=(32, 32, 3)) * 255.0) / 255.0
        assert np.array_equal(img, roundtrip(with_part(rgb=img)).rgb)
        write_sample(with_part(rgb=img), tmp_path, FILES)
        data = (tmp_path / FILES.rgb).read_bytes()
        head = b"FFUSION-ARRAYS v1\n1\nlevels 32 32 3\nend\n"
        assert data.startswith(head)
        levels = np.frombuffer(data[len(head):], dtype="<f8")
        assert np.array_equal(levels, (img * 255.0).ravel())

    def test_manifest_validation(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path)
        (tmp_path / "manifest.json").write_text("{\"format\": \"OTHER\"}")
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_manifest_without_samples(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": MANIFEST_FORMAT}))
        with pytest.raises(DataError, match="manifest.json: samples must be a list"):
            load_dataset(tmp_path)

    def test_registration_shift_is_not_a_known_key(self, tmp_path):
        """A shifted copy made by an older inject records its shift in the
        manifest; a miscalibration now moves the cloud in the files."""
        manifest = build_dataset(tmp_path, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        manifest["samples"][0]["registration_shift"] = [2, 2]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"samples\[0\]\.registration_shift is not a known key"):
            load_dataset(tmp_path)

    def test_v2_manifest_header_keys_still_load(self, tmp_path):
        """The image and scan_row_step header keys that earlier builds wrote
        are read past."""
        manifest = build_dataset(tmp_path, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        assert "image" not in manifest and "scan_row_step" not in manifest
        image = {"width": 32, "height": 32, "fx": 28.0, "fy": 28.0, "cx": 16.0, "cy": 16.0}
        (tmp_path / "manifest.json").write_text(
            json.dumps({**manifest, "image": image, "scan_row_step": 2}))
        assert [s.sample_id for s in load_dataset(tmp_path)["train"]] == ["000000", "000001"]

    @pytest.mark.parametrize("key", ["rgb", "cloud", "depth", "text", "labels"])
    def test_non_ascii_byte_is_data_error(self, tmp_path, key):
        manifest = build_dataset(tmp_path, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        path = tmp_path / manifest["samples"][0]["files"][key]
        data = path.read_bytes()
        path.write_bytes(data[:5] + b"\xe9" + data[6:])
        with pytest.raises(DataError, match="non-ASCII byte at offset 5"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value, cause", [
        ("id", 7, "id must be a string"),
        ("command", None, "command must be a string"),
        ("files", ["rgb_000000.ppm"], "files must be an object"),
        ("files", {"rgb": 3}, "files.rgb must be a string"),
        ("split", "holdout", "split"),
    ])
    def test_manifest_entry_schema(self, tmp_path, key, value, cause):
        manifest = build_dataset(tmp_path, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        manifest["samples"][1][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=cause):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["../outside.txt", "sub/../../outside.txt", "ABSOLUTE"])
    def test_file_names_confined_to_dataset_dir(self, tmp_path, name):
        outside = tmp_path / "outside.txt"
        outside.write_text("go straight\n", encoding="ascii")
        data = tmp_path / "data"
        manifest = build_dataset(data, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        manifest["samples"][0]["files"]["text"] = str(outside) if name == "ABSOLUTE" else name
        (data / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="outside the dataset directory"):
            load_dataset(data)

    def test_file_name_in_a_subdirectory_is_read(self, tmp_path):
        manifest = build_dataset(tmp_path, count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        (tmp_path / "sub").mkdir()
        (tmp_path / "text_000000.txt").rename(tmp_path / "sub" / "text.txt")
        manifest["samples"][0]["files"]["text"] = "sub/../sub/text.txt"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert load_dataset(tmp_path)["train"][0].text

    def test_missing_sample_file_detected(self, tmp_path):
        build_dataset(tmp_path / "data", count=4, seed=9, ratios=(0.5, 0.25, 0.25))
        (tmp_path / "data" / "rgb_000000.ffa").unlink()
        with pytest.raises(DataError, match="cannot read rgb file .*rgb_000000.ffa"):
            load_dataset(tmp_path / "data")

    def test_sample_validation(self):
        with pytest.raises(DataError):
            Sample(
                sample_id="x",
                rgb=np.zeros((32, 32, 3)),
                cloud=PointCloud.empty(),
                depth=None,
                text="go",
                command="accelerate",
                seg_labels=np.zeros((8, 8), dtype=np.int64),
            )

    @pytest.mark.parametrize("part, cause", [
        ({"rgb": np.zeros((16, 16, 3))}, r"rgb must be \(32, 32, 3\), got \(16, 16, 3\)"),
        ({"rgb": np.zeros((32, 32))}, r"rgb must be \(32, 32, 3\), got \(32, 32\)"),
        ({"depth": DepthMap.empty(16, 16)}, r"depth must be a \(32, 32\) depth map"),
        ({"depth": None}, r"depth must be a \(32, 32\) depth map"),
    ], ids=["rgb_16", "rgb_gray", "depth_16", "depth_none"])
    def test_sample_off_the_image_grid_rejected(self, part, cause):
        with pytest.raises(DataError, match=cause):
            with_part(**part)


def _tree_digest(root):
    """SHA-256 over every file under root: relative path, then bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _features_digest(features):
    """SHA-256 over a FeatureBatch's arrays and its rows' availability patterns."""
    digest = hashlib.sha256()
    for name in ("camera", "depth", "text", "command_ids", "seg_labels"):
        array = np.ascontiguousarray(getattr(features, name))
        digest.update(f"{name} {array.dtype} {array.shape}\0".encode())
        digest.update(array.tobytes())
    digest.update(repr(features.patterns).encode())
    return digest.hexdigest()


class TestPinnedOutputs:
    """The files generate writes and the inputs prepared from them, pinned.

    Rendering, the scan, projection, densification and the LiDAR faults
    all feed these bytes, so a change to any of them that moves a bit
    fails here."""

    TREE = "16c91528698213d4dbd01e15fd224cd21a7712e0532fc8e48aa8a76f8296c902"
    PREPARED = {
        "nominal": "22bdbb1806257438d4a3f196a8bab7d2cd9b64e27a06b4e28fc69ccaa3b108e3",
        "miscalibration_shift": "feee0a4f9c6b631356d2cefe12301755a399d28743b3dd9c5e1d5b6aa0f9e842",
        "partial_dropout": "a2ea47286eff6c86bb5f87b813e889df62c9b9642fd8ebb67d36cd5f91d5b337",
    }
    FAULTS = {
        "nominal": (),
        "miscalibration_shift": (FaultSpec("lidar", "miscalibration_shift", 2.0),),
        "partial_dropout": (FaultSpec("lidar", "partial_dropout", 0.5),),
    }

    def test_generated_tree_and_prepared_inputs(self, tmp_path):
        build_dataset(tmp_path, count=60, seed=7)
        assert _tree_digest(tmp_path) == self.TREE
        samples = [s for split in load_dataset(tmp_path).values() for s in split]
        for name, faults in self.FAULTS.items():
            features = prepare_samples([inject_faults(s, faults) for s in samples],
                                       ModelConfig())
            assert _features_digest(features) == self.PREPARED[name], name
