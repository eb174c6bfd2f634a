"""Deterministic synthetic scene generation, rendering and datasets."""

from ffusion.scene.commands import COMMAND_IDS, COMMANDS, SENTENCES, derive_command
from ffusion.scene.dataset import (
    Sample,
    build_dataset,
    load_dataset,
    load_sample,
    quantize_rgb,
    read_manifest,
    synthesize_sample,
)
from ffusion.scene.lidar import simulate_depth_scan
from ffusion.scene.render import LABEL_GRID, RayHits, cast_rays, render_depth
from ffusion.scene.spec import (
    CLASS_IDS,
    CLASS_NAMES,
    GROUND_HEIGHT,
    MAX_OBJECTS,
    MIN_SPACING,
    OBJECT_CLASSES,
    SceneObject,
    SceneSpec,
    generate_scene,
)

__all__ = [
    "CLASS_IDS",
    "CLASS_NAMES",
    "COMMANDS",
    "COMMAND_IDS",
    "GROUND_HEIGHT",
    "LABEL_GRID",
    "MAX_OBJECTS",
    "MIN_SPACING",
    "OBJECT_CLASSES",
    "RayHits",
    "SENTENCES",
    "Sample",
    "SceneObject",
    "SceneSpec",
    "build_dataset",
    "cast_rays",
    "derive_command",
    "generate_scene",
    "load_dataset",
    "load_sample",
    "quantize_rgb",
    "read_manifest",
    "render_depth",
    "simulate_depth_scan",
    "synthesize_sample",
]
