"""Config round-trips, subcommand orchestration, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import re
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffusion.safety.harness as harness
from ffusion.autodiff import Tape, load_checkpoint, save_checkpoint
from ffusion.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_MISSING,
    EXIT_OK,
    main,
)
from ffusion.config import (
    DatasetConfig,
    Paths,
    RunConfig,
    apply_overrides,
    parse_override,
)
from ffusion.errors import ConfigError, DataError, MissingInputError
from ffusion.jsonfile import from_plain, to_plain
from ffusion.arrayfile import write_arrays
from ffusion.model import MODALITIES, EncoderBranch, Metrics, ModelConfig, TrainConfig
from ffusion.model.inputs import prepare_depth
from ffusion.safety import (
    DegradationReport,
    EnrichmentRow,
    FaultSpec,
    IndependenceReport,
    ProbeResult,
    Scenario,
    ScenarioResult,
    Verdict,
    inject_faults,
    load_arch_graph,
)
from ffusion.safety.faults import _VALID
from ffusion.scene.dataset import (
    ARRAYS_MAGIC,
    load_dataset,
    manifest_entries,
    read_manifest,
    write_sample,
)


def tiny_config(work: Path) -> RunConfig:
    return RunConfig(
        model=ModelConfig(d=16, blocks=1, heads=2, patch=8, text_len=8),
        training=TrainConfig(epochs=1, batch_size=8, seed=0),
        dataset=DatasetConfig(count=40, seed=7, ratios=(0.6, 0.2, 0.2)),
        sigmas=(0.0, 0.5),
        paths=Paths(
            dataset_dir=str(work / "data"),
            checkpoint=str(work / "out/model.ckpt"),
            train_metrics=str(work / "out/train_metrics.json"),
            eval_report=str(work / "out/eval_report.json"),
            eval_summary=str(work / "out/eval_report.txt"),
            report=str(work / "out/report.json"),
            report_summary=str(work / "out/report.txt"),
            timings=str(work / "out/timings.json"),
        ),
    )


GRAPH = ("system: D\ncam_chain: C\nlidar_chain: A\n"
         "system -> cam_chain + lidar_chain\n"
         "independent: cam_chain, lidar_chain\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full chain once; tests inspect the artifacts."""
    work = tmp_path_factory.mktemp("pipeline")
    config = tiny_config(work)
    config_path = work / "run.json"
    config.save(config_path)
    graph_path = work / "arch.txt"
    graph_path.write_text(GRAPH, encoding="utf-8")
    assert main(["generate", "--config", str(config_path)]) == EXIT_OK
    assert main(["train", "--config", str(config_path)]) == EXIT_OK
    assert main(["eval", "--config", str(config_path)]) == EXIT_OK
    assert main(["report", "--config", str(config_path),
                 "--set", f"paths.arch_graph={graph_path}"]) == EXIT_OK
    return work, config, config_path


@st.composite
def model_configs(draw):
    heads = draw(st.integers(1, 4))
    return ModelConfig(d=heads * draw(st.integers(1, 16)), blocks=draw(st.integers(1, 3)),
                       heads=heads, patch=8, text_len=draw(st.integers(3, 12)))


def split_ratios(pair):
    train, val = pair
    return (train, val, 1.0 - train - val)


names = st.text(min_size=1).filter(str.strip)
faults = st.builds(lambda pair, magnitude, seed: FaultSpec(*pair, magnitude, seed),
                   st.sampled_from([(m, k) for k, ms in _VALID.items() for m in ms]),
                   st.floats(0.0, 1.0), st.integers(0, 2**63))
run_configs = st.builds(
    RunConfig,
    model=model_configs(),
    training=st.builds(TrainConfig, epochs=st.integers(1, 100),
                       batch_size=st.integers(1, 64),
                       learning_rate=st.floats(1e-9, 1.0), p_drop=st.floats(0.0, 0.5),
                       seed=st.integers(0, 2**63)),
    dataset=st.builds(DatasetConfig, count=st.integers(1, 10**6), seed=st.integers(0, 2**63),
                      ratios=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.4))
                      .map(split_ratios)),
    scenarios=st.lists(st.builds(Scenario, names.filter(lambda n: n != "nominal"),
                                 st.lists(faults, max_size=3)),
                       max_size=4, unique_by=lambda s: s.name)
    .flatmap(lambda rest: st.permutations([Scenario("nominal"), *rest])),
    sigmas=st.lists(st.floats(0.0, 10.0), max_size=4, unique=True),
    paths=st.builds(Paths, dataset_dir=names, checkpoint=names,
                    arch_graph=st.none() | names),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


class TestRunConfig:
    @given(config=run_configs)
    def test_serialize_roundtrip(self, config):
        assert RunConfig.from_dict(json.loads(config.serialize())) == config

    def test_roundtrip_default(self):
        config = RunConfig()
        assert RunConfig.from_dict(json.loads(config.serialize())) == config

    def test_roundtrip_customized(self, tmp_path):
        config = tiny_config(tmp_path)
        config = RunConfig(
            model=config.model, training=config.training,
            dataset=config.dataset, paths=config.paths,
            sigmas=(0.1,),
            scenarios=(Scenario("nominal"),
                       Scenario("noise", (FaultSpec("camera", "gaussian_noise",
                                                    0.5, 2),))),
        )
        path = tmp_path / "cfg.json"
        config.save(path)
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert RunConfig.from_dict(raw) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"modle": {}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"dataset": {"n": 10}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"paths": {"dataset": "x"}})

    def test_format_tag_checked(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"format": "ffusion-config-v99"})

    def test_dataset_validation(self):
        with pytest.raises(ConfigError):
            DatasetConfig(count=0)
        with pytest.raises(ConfigError):
            DatasetConfig(ratios=(0.5, 0.5, 0.5))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(sigmas=(-0.5,))

    def test_overrides(self):
        data = RunConfig().to_dict()
        apply_overrides(data, ["training.epochs=3", "dataset.seed=9",
                               "paths.dataset_dir=elsewhere"])
        config = RunConfig.from_dict(data)
        assert config.training.epochs == 3
        assert config.dataset.seed == 9
        assert config.paths.dataset_dir == "elsewhere"

    def test_override_parsing(self):
        assert parse_override("a.b=3") == ("a.b", 3)
        assert parse_override("a=hello") == ("a", "hello")
        assert parse_override('a=[1, 2]') == ("a", [1, 2])
        with pytest.raises(ConfigError):
            parse_override("no-equals-sign")
        with pytest.raises(ConfigError):
            parse_override("=3")

    @given(key=st.text(min_size=1).filter(lambda k: "=" not in k and k.strip()),
           value=json_values)
    def test_override_parsing_json_values(self, key, value):
        assert parse_override(f"{key}={json.dumps(value)}") == (key.strip(), value)


def fault_first_test_sample(config: RunConfig, data: Path, faults) -> str:
    """Copy the dataset to data with the faults written into its first test
    sample's files; returns that sample's id."""
    shutil.copytree(config.paths.dataset_dir, data)
    sample = load_dataset(data)["test"][0]
    entry = next(e for e in manifest_entries(read_manifest(data), data)
                 if e.id == sample.sample_id)
    write_sample(inject_faults(sample, faults), data, entry.files)
    return sample.sample_id


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        work, config, _ = pipeline
        for path in (config.paths.checkpoint, config.paths.train_metrics,
                     config.paths.eval_report, config.paths.eval_summary,
                     config.paths.report, config.paths.report_summary,
                     config.paths.timings):
            assert Path(path).is_file()

    def test_every_scenario_has_a_result_section(self, pipeline):
        _, config, _ = pipeline
        payload = json.loads(Path(config.paths.eval_report).read_text())
        names = [s["name"] for s in payload["degradation"]["scenarios"]]
        assert names == [s.name for s in config.scenarios]

    def test_report_embeds_config_echo(self, pipeline):
        work, config, _ = pipeline
        payload = json.loads(Path(config.paths.report).read_text())
        expected = config.to_dict()
        expected["paths"]["arch_graph"] = str(work / "arch.txt")
        assert payload["config"] == expected
        assert payload["version"]
        assert "timings" in payload
        assert payload["asil_verdicts"][0]["status"] == "VALID"

    def test_eval_report_has_probes_and_enrichment(self, pipeline):
        _, config, _ = pipeline
        payload = json.loads(Path(config.paths.eval_report).read_text())
        assert [p["modality"] for p in payload["probes"]] == [
            "camera", "depth", "text"]
        assert [row["sigma"] for row in payload["enrichment"]] == [0.0, 0.5]

    def test_eval_artifacts_have_no_timings(self, pipeline):
        _, config, _ = pipeline
        for path in (config.paths.eval_report, config.paths.train_metrics):
            payload = json.loads(Path(path).read_text())
            assert "timings" not in payload

    def test_generate_is_deterministic(self, pipeline, tmp_path):
        work, config, config_path = pipeline
        assert main(["generate", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={tmp_path / 'again'}"]) == EXIT_OK
        original = Path(config.paths.dataset_dir)
        rebuilt = tmp_path / "again"
        files = sorted(p.name for p in original.iterdir())
        assert files == sorted(p.name for p in rebuilt.iterdir())
        for name in files:
            assert (original / name).read_bytes() == (rebuilt / name).read_bytes()

    def test_scan_on_one_flat_face_trains(self, tmp_path):
        """Dataset seed 12409 holds a clean train sample (000002) whose scan
        lands on one box face at one depth; depth triage passes it."""
        config = tiny_config(tmp_path)
        config_path = tmp_path / "run.json"
        config.save(config_path)
        overrides = ["--set", "dataset.seed=12409", "--set", "dataset.count=80"]
        assert main(["generate", "--config", str(config_path), *overrides]) == EXIT_OK
        assert main(["train", "--config", str(config_path), *overrides]) == EXIT_OK
        assert Path(config.paths.checkpoint).exists()

    def test_eval_is_deterministic(self, pipeline, tmp_path):
        work, config, config_path = pipeline
        first = Path(config.paths.eval_report).read_bytes()
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.eval_report={tmp_path / 'r.json'}",
                     "--set", f"paths.eval_summary={tmp_path / 'r.txt'}",
                     "--set", f"paths.timings={tmp_path / 't.json'}"]) == EXIT_OK
        again = (tmp_path / "r.json").read_bytes()
        first_data = json.loads(first)
        again_data = json.loads(again)
        first_data["config"]["paths"] = None
        again_data["config"]["paths"] = None
        assert first_data == again_data

    def test_train_val_metrics_encode_each_modality_once_per_chunk(
            self, pipeline, tmp_path, monkeypatch):
        """train's val metrics run the one inference loop: outside the
        training tape, each modality is encoded once per predict batch."""
        work, config, config_path = pipeline
        monkeypatch.setattr(harness, "EVAL_CHUNK", 3)
        untaped = []
        encode = EncoderBranch.encode

        def encoding(branch, features):
            if Tape.active() is None:
                untaped.append((branch.modality, len(features)))
            return encode(branch, features)

        monkeypatch.setattr(EncoderBranch, "encode", encoding)
        assert main(["train", "--config", str(config_path),
                     "--set", f"paths.checkpoint={tmp_path / 'model.ckpt'}",
                     "--set", f"paths.train_metrics={tmp_path / 'metrics.json'}",
                     "--set", f"paths.timings={tmp_path / 't.json'}"]) == EXIT_OK
        n = len(load_dataset(config.paths.dataset_dir)["val"])
        chunks = [min(3, n - start) for start in range(0, n, 3)]
        assert len(chunks) > 1
        assert sorted(untaped) == sorted((m, size) for m in MODALITIES for size in chunks)

    def test_black_test_image_leaves_camera_only_enrichment_na(self, pipeline, tmp_path):
        """One test image fails camera triage: at sigma 0 that sample has no
        modality left under the camera-only mask, so the column reads n/a;
        every scenario still runs."""
        work, config, config_path = pipeline
        data = tmp_path / "data"
        fault_first_test_sample(config, data, (FaultSpec("camera", "blackout"),))
        report, summary = tmp_path / "r.json", tmp_path / "r.txt"
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.eval_report={report}",
                     "--set", f"paths.eval_summary={summary}",
                     "--set", f"paths.timings={tmp_path / 't.json'}"]) == EXIT_OK
        payload = json.loads(report.read_text())
        assert {s["status"] for s in payload["degradation"]["scenarios"]} == {"ok"}
        row = payload["enrichment"][0]
        assert row["sigma"] == 0.0 and row["camera_only_accuracy"] is None
        assert 0.0 <= row["fused_accuracy"] <= 1.0
        line = next(text for text in summary.read_text().splitlines()
                    if text.startswith("  0.000 "))
        assert line.endswith("  n/a") and line.split()[1] != "n/a"

    def test_inject_blackout_dataset(self, pipeline, tmp_path):
        work, config, config_path = pipeline
        out = tmp_path / "corrupted"
        assert main(["inject", "--config", str(config_path),
                     "--modality", "camera", "--kind", "blackout",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fault"] == {"modality": "camera", "kind": "blackout",
                                     "magnitude": 0.0, "seed": 0}
        corrupted = load_dataset(out)["test"]
        assert all(np.all(s.rgb == 0.0) for s in corrupted)

    def test_inject_shift_copy_prepares_as_in_memory(self, pipeline, tmp_path):
        """A miscalibration_shift copy holds the moved clouds: loaded, it
        prepares to the depth inputs that inject_fault gives in memory, and
        its manifest lists the source's entries."""
        work, config, config_path = pipeline
        out = tmp_path / "shifted"
        assert main(["inject", "--config", str(config_path),
                     "--modality", "lidar", "--kind", "miscalibration_shift",
                     "--magnitude", "2", "--out", str(out)]) == EXIT_OK
        shift = (FaultSpec("lidar", "miscalibration_shift", 2.0),)
        source, copy = load_dataset(config.paths.dataset_dir), load_dataset(out)
        for split, samples in source.items():
            in_memory = prepare_depth([inject_faults(s, shift) for s in samples], config.model)
            loaded = prepare_depth(copy[split], config.model)
            assert in_memory[0].tobytes() == loaded[0].tobytes()
            assert in_memory[1] == loaded[1]
        assert not np.array_equal(prepare_depth(source["test"], config.model)[0],
                                  prepare_depth(copy["test"], config.model)[0])
        entries = json.loads((out / "manifest.json").read_text())["samples"]
        original = json.loads(
            (Path(config.paths.dataset_dir) / "manifest.json").read_text())["samples"]
        assert entries == original

    def test_inject_creates_subdirectories_of_file_names(self, pipeline, tmp_path):
        """A manifest may name files in a subdirectory of the dataset; the
        corrupted copy writes them under the same subdirectory of --out."""
        work, config, config_path = pipeline
        source, out = tmp_path / "nested", tmp_path / "corrupted"
        shutil.copytree(config.paths.dataset_dir, source)
        manifest = json.loads((source / "manifest.json").read_text())
        moved = manifest["samples"][0]
        (source / "sub").mkdir()
        for kind, name in moved["files"].items():
            (source / name).rename(source / "sub" / name)
            moved["files"][kind] = f"sub/{name}"
        (source / "manifest.json").write_text(json.dumps(manifest))
        assert main(["inject", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={source}",
                     "--modality", "camera", "--kind", "blackout",
                     "--out", str(out)]) == EXIT_OK
        assert all((out / name).is_file() for name in moved["files"].values())
        corrupted = {s.sample_id: s for items in load_dataset(out).values() for s in items}
        assert np.all(corrupted[moved["id"]].rgb == 0.0)

    def test_manifest_bytes_are_pinned(self, tmp_path):
        """A 6-sample generate manifest and a miscalibration_shift inject copy
        of it are pinned. With the header's image and scan_row_step and the
        copy's registration_shift put back, they are the bytes the format
        first wrote; with the format tag and the file extensions set back to
        FFUSION-DATASET v1's as well, the bytes v1 wrote."""
        data, shifted = tmp_path / "data", tmp_path / "shifted"
        settings = ["--set", "dataset.count=6", "--set", f"paths.dataset_dir={data}"]
        assert main(["generate", *settings]) == EXIT_OK
        assert main(["inject", *settings, "--modality", "lidar",
                     "--kind", "miscalibration_shift", "--magnitude", "2",
                     "--out", str(shifted)]) == EXIT_OK
        v1_extensions = {"rgb": "ppm", "cloud": "pcd", "depth": "txt", "labels": "txt"}
        image = {"width": 32, "height": 32, "fx": 28.0, "fy": 28.0, "cx": 16.0, "cy": 16.0}

        def as_first_v2(text: str) -> str:
            manifest = {**json.loads(text), "image": image, "scan_row_step": 2}
            if "fault" in manifest:
                for entry in manifest["samples"]:
                    entry["registration_shift"] = [2, 2]
            return json.dumps(manifest, indent=2, sort_keys=True) + "\n"

        def as_v1(text: str) -> str:
            text = text.replace('"FFUSION-DATASET v2"', '"FFUSION-DATASET v1"')
            return re.sub(r'"(rgb|cloud|depth|labels)_(\d+)\.ffa"',
                          lambda m: f'"{m[1]}_{m[2]}.{v1_extensions[m[1]]}"', text)

        def digest(text: str) -> str:
            return hashlib.sha256(text.encode("ascii")).hexdigest()

        texts = {d.name: (d / "manifest.json").read_text(encoding="ascii")
                 for d in (data, shifted)}
        assert {name: digest(text) for name, text in texts.items()} == {
            "data": "6893d806e3db089d37776ae9aeda0372a346f75ac1f19eb64eba19fb445d1d0d",
            "shifted": "8cb1c980fe7bf62a95011c6cb0edd31ab5649f81311a31003ff451f4899da989",
        }
        texts = {name: as_first_v2(text) for name, text in texts.items()}
        assert {name: digest(text) for name, text in texts.items()} == {
            "data": "4572e8c51277befb6139ef81a12226b023ff7ef8edaf24ec6a8c9a2ca66efcfc",
            "shifted": "57b21a42493411ea0a7b1b060d44f8e4e0e2178862a96c20ca86cab0d7ab6901",
        }
        assert {name: digest(as_v1(text)) for name, text in texts.items()} == {
            "data": "62b65c6a53d3db1ab9a672eb01cdb4d2e00b252bd0a519a3a59cfbb1d9070d7a",
            "shifted": "9d7575d3b6579f36ba927683e6ca0ff3f8259102ca61bdaf675ffff2b6d3c250",
        }

    def test_asil_check_writes_json(self, pipeline, tmp_path):
        work, _, _ = pipeline
        out = tmp_path / "verdicts.json"
        assert main(["asil-check", "--graph", str(work / "arch.txt"),
                     "--json", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["asil_verdicts"][0]["parent"] == "system"


def edit_degradation(report: dict, part: str, **values) -> dict:
    """report with values set in its degradation.<part> object."""
    degradation = report["degradation"]
    return {**report, "degradation": {**degradation, part: {**degradation[part], **values}}}


def key_paths(value, path=()):
    """Every key path in a JSON value, the value's own empty path first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from key_paths(item, path + (key,))


def json_kind(value) -> str:
    """A JSON value's kind; an int and a float are both numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


# The report objects keyed by name rather than by the fields of a record.
NAME_KEYED = {"per_class", "functional_pass", "gradient_leaks", "timings"}


class TestReportInput:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_checked_sections_always_render(self, pipeline, data):
        # Delete a key, replace a value or add a key anywhere in real report
        # sections. report then either writes both files, or exits 5 with one
        # line naming the file at fault and writes neither. A value of another
        # JSON kind than the one it replaces (null aside), and a key that is
        # not a field of the record it is added to, must be rejected.
        work, config, config_path = pipeline
        report = json.loads(Path(config.paths.eval_report).read_text(encoding="utf-8"))
        sections = {key: report.pop(key) for key in ("degradation", "probes", "enrichment")}
        sections["timings"] = {"train_seconds": 1.5, "eval_seconds": 0.5}
        path = data.draw(st.sampled_from(list(key_paths(sections))[1:]))
        parent = sections
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        edit = data.draw(st.sampled_from(
            ["replace"] + ["delete"] * isinstance(parent, dict) + ["add"] * isinstance(old, dict)))
        must_fail = False
        if edit == "delete":
            del parent[path[-1]]
        elif edit == "replace":
            # true and false also stand in for numbers, which JSON must not allow.
            parent[path[-1]] = new = data.draw(st.booleans() | json_values)
            must_fail = None not in (old, new) and json_kind(old) != json_kind(new)
        else:
            old["extra"] = next(iter(old.values()), None)
            must_fail = path[-1] not in NAME_KEYED

        run = work / "report_input"
        run.mkdir(exist_ok=True)
        eval_path, timings_path = run / "eval_report.json", run / "timings.json"
        outputs = run / "report.json", run / "report.txt"
        for file in (timings_path, *outputs):
            file.unlink(missing_ok=True)
        if "timings" in sections:
            timings = sections.pop("timings")
            if isinstance(timings, dict):
                timings = {"format": "ffusion-timings-v1", **timings}
            timings_path.write_text(json.dumps(timings), encoding="utf-8")
        eval_path.write_text(json.dumps({**report, **sections}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--config", str(config_path),
                         "--set", f"paths.eval_report={eval_path}",
                         "--set", f"paths.timings={timings_path}",
                         "--set", f"paths.report={outputs[0]}",
                         "--set", f"paths.report_summary={outputs[1]}"])
        if code == EXIT_OK:
            assert not must_fail, f"{edit} at {path} was accepted"
            assert outputs[1].read_text(encoding="utf-8").startswith("report format: ")
            return
        assert code == EXIT_DATA
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid-data: ")
        at_fault = timings_path if path[0] == "timings" else eval_path
        assert str(at_fault) in lines[0]
        assert not any(file.exists() for file in outputs)


finite = st.floats(allow_nan=False, allow_infinity=False)
accuracies = st.floats(0.0, 1.0)
metrics = st.builds(Metrics, scenario=st.text(), command_accuracy=accuracies,
                    per_class=st.dictionaries(st.text(), st.none() | accuracies, max_size=4),
                    seg_accuracy=accuracies, loss_curve=st.lists(finite, max_size=3))
scenario_results = st.builds(
    ScenarioResult, name=st.text(), status=st.text(), metrics=st.none() | metrics,
    arbitration=st.none() | st.lists(finite, max_size=3),
    retained_accuracy=st.none() | finite, error=st.none() | st.text())
independence_reports = st.builds(
    IndependenceReport, structural_pass=st.booleans(),
    shared_parameters=st.lists(st.text(), max_size=3),
    functional_pass=st.dictionaries(st.text(), st.booleans(), max_size=3),
    gradient_leaks=st.dictionaries(st.text(), st.none() | st.text(), max_size=3))
records = st.one_of(
    metrics, scenario_results, independence_reports,
    st.builds(DegradationReport, nominal=metrics, scenarios=st.lists(scenario_results, max_size=3),
              independence=st.none() | independence_reports),
    st.builds(ProbeResult, st.text(), accuracies, st.booleans()),
    st.builds(EnrichmentRow, finite, accuracies, accuracies),
    st.builds(Verdict, st.text(), st.tuples(st.text(), st.text()), st.text(), st.text()),
    run_configs)


class TestReader:
    @settings(max_examples=100)
    @given(record=records)
    def test_plain_roundtrip(self, record):
        # Reading a record's JSON gives the record back, and writing that
        # spells the JSON as it was.
        plain = json.loads(json.dumps(to_plain(record)))
        read = from_plain(type(record), plain, "", DataError)
        assert read == record
        assert to_plain(read) == plain


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == EXIT_MISSING

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG
        bad.write_text('{"training": {"epoch": 1}}')
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG
        bad.write_bytes(b'{"paths": {"dataset_dir": "\xff"}}')
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("content, cause", [
        (b'{"paths": \xff}', "is not valid UTF-8 JSON"),
        (b"[1]", "must hold a JSON object, got list"),
    ], ids=["not_utf8_json", "not_an_object"])
    def test_malformed_config_names_the_file(self, tmp_path, capsys, content, cause):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        capsys.readouterr()
        assert main(["generate", "--config", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config: config {bad} ")
        assert cause in err[0]

    def test_eval_without_dataset(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "run.json"
        config.save(path)
        assert main(["eval", "--config", str(path)]) == EXIT_MISSING
        assert not Path(config.paths.eval_report).exists()

    def test_eval_without_checkpoint(self, pipeline, tmp_path):
        work, config, config_path = pipeline
        missing = tmp_path / "none.ckpt"
        report = tmp_path / "should_not_exist.json"
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.checkpoint={missing}",
                     "--set", f"paths.eval_report={report}"]) == EXIT_MISSING
        assert not report.exists()

    def test_test_sample_dead_on_every_modality_is_data_error(self, pipeline, tmp_path,
                                                              capsys):
        """The nominal baseline needs every test sample to keep a modality."""
        work, config, config_path = pipeline
        data = tmp_path / "data"
        dead = fault_first_test_sample(config, data, tuple(
            FaultSpec(m, "blackout") for m in ("camera", "lidar", "text")))
        report = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.eval_report={report}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert f"sample {dead} fails health triage on every modality" in err[0]
        assert not report.exists()

    def test_non_finite_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        params = load_checkpoint(config.paths.checkpoint)
        params["fusion.cls"][0, 3] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(params, bad)
        report = tmp_path / "should_not_exist.json"
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.checkpoint={bad}",
                     "--set", f"paths.eval_report={report}"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-data: ")
        assert "'fusion.cls'" in err and "non-finite" in err
        assert not report.exists()

    def test_malformed_checkpoint_header_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        bad = tmp_path / "negative.ckpt"
        bad.write_bytes(b"FFUSION-CKPT v1\n1\nfusion.cls -1 -1\nend\n" + bytes(8))
        report = tmp_path / "should_not_exist.json"
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.checkpoint={bad}",
                     "--set", f"paths.eval_report={report}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert "'-1'" in err[0]
        assert not report.exists()

    def test_non_ascii_dataset_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        data = tmp_path / "data"
        shutil.copytree(config.paths.dataset_dir, data)
        text = sorted(data.glob("text_*.txt"))[0]
        text.write_bytes(b"\xe9" + text.read_bytes()[1:])
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert "non-ASCII" in err[0] and text.name in err[0]
        assert not checkpoint.exists()

    def test_triage_failed_train_split_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        data = tmp_path / "text_blackout"
        assert main(["inject", "--config", str(config_path),
                     "--modality", "text", "--kind", "blackout",
                     "--out", str(data)]) == EXIT_OK
        first = load_dataset(data)["train"][0].sample_id
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert f"sample {first} failed it on text" in err[0]
        assert not checkpoint.exists()

    @pytest.mark.parametrize("edit, cause", [
        (lambda entry: entry.pop("command"), "samples[0].command is missing"),
        (lambda entry: entry["files"].update(text="../../bad_text.txt"),
         "outside the dataset directory"),
        (lambda entry: entry.update(registration_shift=[2, 2]),
         "samples[0].registration_shift is not a known key"),
    ], ids=["no_command", "name_outside_dataset", "registration_shift"])
    def test_bad_manifest_entry_is_data_error(self, pipeline, tmp_path, capsys, edit, cause):
        work, config, config_path = pipeline
        data = tmp_path / "a" / "b" / "data"
        shutil.copytree(config.paths.dataset_dir, data)
        (tmp_path / "a" / "bad_text.txt").write_text("go straight\n", encoding="ascii")
        manifest = json.loads((data / "manifest.json").read_text())
        edit(manifest["samples"][0])
        (data / "manifest.json").write_text(json.dumps(manifest))
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert cause in err[0]
        assert not checkpoint.exists()

    @pytest.mark.parametrize("side", [5, 16])
    def test_off_grid_image_is_data_error(self, pipeline, tmp_path, capsys, side):
        """A train sample's rgb file holding a non-constant image of another
        size fails where it is read, naming the file."""
        work, config, config_path = pipeline
        data = tmp_path / "data"
        shutil.copytree(config.paths.dataset_dir, data)
        entry = next(e for e in manifest_entries(read_manifest(data), data) if e.split == "train")
        levels = np.arange(side * side * 3).reshape(side, side, 3) % 256
        write_arrays(data / entry.files.rgb, ARRAYS_MAGIC, {"levels": levels})
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: invalid-data: rgb file {data / entry.files.rgb}: levels has "
                       f"shape ({side}, {side}, 3), expected (32, 32, 3)"]
        assert not checkpoint.exists()

    def test_unknown_file_kind_is_data_error(self, pipeline, tmp_path, capsys):
        """A files kind other than the five is rejected before anything is
        written; it would otherwise skip the outside-the-dataset check."""
        work, config, config_path = pipeline
        data, out = tmp_path / "data", tmp_path / "deep" / "out"
        shutil.copytree(config.paths.dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["samples"][0]["files"]["extra"] = "../../escaped_dir/x.txt"
        (data / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["inject", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--modality", "camera", "--kind", "blackout",
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert "samples[0].files.extra is not a known key" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("command", ["train", "eval", "inject"])
    def test_v1_dataset_says_to_regenerate(self, pipeline, tmp_path, capsys, command):
        work, config, config_path = pipeline
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(config.paths.dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(
            json.dumps({**manifest, "format": "FFUSION-DATASET v1"}))
        extra = {"train": ["--set", f"paths.checkpoint={out / 'model.ckpt'}"],
                 "eval": ["--set", f"paths.eval_report={out / 'eval_report.json'}"],
                 "inject": ["--modality", "camera", "--kind", "blackout", "--out", str(out)]}
        capsys.readouterr()
        assert main([command, "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}", *extra[command]]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: invalid-data: dataset manifest {data / 'manifest.json'}: "
                       "unsupported format 'FFUSION-DATASET v1'; "
                       "regenerate the dataset with `ffusion generate`"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["inject", "eval"])
    def test_repeated_sample_id_is_data_error(self, pipeline, tmp_path, capsys, command):
        # inject keys samples by id: a repeated id would write one sample's
        # data under another's file names.
        work, config, config_path = pipeline
        data = tmp_path / "data"
        shutil.copytree(config.paths.dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        repeated = manifest["samples"][0]["id"]
        manifest["samples"][1]["id"] = repeated
        (data / "manifest.json").write_text(json.dumps(manifest))
        out, report = tmp_path / "out", tmp_path / "eval_report.json"
        extra = {"inject": ["--modality", "camera", "--kind", "blackout", "--out", str(out)],
                 "eval": ["--set", f"paths.eval_report={report}"]}[command]
        capsys.readouterr()
        assert main([command, "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}", *extra]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert f"sample id {repeated!r} twice" in err[0]
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("command, ratios, empty", [
        ("train", "[0.85,0.05,0.1]", "val"),
        ("eval", "[0.85,0.05,0.1]", "val"),
        ("eval", "[0.85,0.1,0.05]", "test"),
    ], ids=["train_no_val", "eval_no_val", "eval_no_test"])
    def test_empty_split_is_data_error(self, pipeline, tmp_path, capsys,
                                       command, ratios, empty):
        work, config, config_path = pipeline
        data = tmp_path / "data"
        assert main(["generate", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", "dataset.count=10",
                     "--set", f"dataset.ratios={ratios}"]) == EXIT_OK
        assert load_dataset(data)[empty] == []
        checkpoint = tmp_path / "model.ckpt"
        if command == "eval":
            shutil.copy(config.paths.checkpoint, checkpoint)
        report = tmp_path / "eval_report.json"
        capsys.readouterr()
        assert main([command, "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--set", f"paths.checkpoint={checkpoint}",
                     "--set", f"paths.eval_report={report}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert f"split {empty!r}" in err[0] and "empty" in err[0]
        assert checkpoint.exists() == (command == "eval")
        assert not report.exists()

    def test_report_without_eval(self, tmp_path):
        config = tiny_config(tmp_path)
        path = tmp_path / "run.json"
        config.save(path)
        assert main(["report", "--config", str(path)]) == EXIT_MISSING

    @pytest.mark.parametrize("key, content, cause", [
        ("train_metrics", b'{"val": "\xff"}', "training metrics {} is not valid UTF-8 JSON"),
        ("train_metrics", b"[1]", "training metrics {} must hold a JSON object"),
        ("eval_report", b"[1]", "evaluation report {} must hold a JSON object"),
        ("timings", b"\xff", "timings sidecar {} is not valid UTF-8 JSON"),
    ], ids=["non_utf8_metrics", "list_metrics", "list_eval_report", "non_utf8_timings"])
    def test_bad_report_input_is_data_error(self, pipeline, tmp_path, capsys,
                                            key, content, cause):
        work, config, config_path = pipeline
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["report", "--config", str(config_path),
                     "--set", f"paths.{key}={bad}",
                     "--set", f"paths.report={report}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert cause.format(bad) in err[0]
        assert not report.exists()

    @pytest.mark.parametrize("key, edit, cause", [
        ("eval_report", lambda _: {"degradation": {"scenarios": []}},
         "degradation.nominal is missing"),
        ("eval_report", lambda _: {"probes": [{"modality": "camera"}]},
         "probes[0].accuracy is missing"),
        ("eval_report", lambda report: {**report, "enrichment": [
            {**report["enrichment"][0], "sigma": "x"}]},
         "enrichment[0].sigma must be a number, got str"),
        ("eval_report", lambda report: {**report, "degradation": {
            **report["degradation"], "scenarios": [{"name": ["x"], "status": "ok"}]}},
         "degradation.scenarios[0].name must be a string, got list"),
        ("timings", lambda _: {"format": "ffusion-timings-v1", "train_seconds": "x"},
         "timings.train_seconds must be a number, got str"),
        ("timings", lambda _: {"format": "ffusion-timings-v2", "train_seconds": 1.5},
         "unsupported format 'ffusion-timings-v2'"),
        ("train_metrics", lambda _: {"val": {"command_accuracy": float("nan")}},
         "holds NaN, which is not JSON"),
        ("train_metrics", lambda _: {"val": "x"}, "val must be an object, got str"),
        ("train_metrics", lambda _: {"train_loss_curve": [0.5, "x"]},
         "train_loss_curve[1] must be a number, got str"),
        ("train_metrics", lambda _: {"val": {"scenario": "val", "command_accuracy": 1.5,
                                             "per_class": {}, "seg_accuracy": 0.5}},
         "val: command_accuracy outside [0, 1]: 1.5"),
        ("eval_report", lambda report: edit_degradation(report, "nominal", command_accuracy=7.5),
         "degradation.nominal: command_accuracy outside [0, 1]: 7.5"),
        ("eval_report", lambda report: edit_degradation(report, "nominal", command_accuracy="x"),
         "degradation.nominal.command_accuracy must be a number, got str"),
        ("eval_report", lambda report: edit_degradation(report, "nominal", per_class={"stop": "x"}),
         "degradation.nominal.per_class.stop must be a number, got str"),
        ("eval_report", lambda report: {**report, "enrichment": [
            {**report["enrichment"][0], "sigma": True}]},
         "enrichment[0].sigma must be a number, got bool"),
        ("eval_report", lambda report: edit_degradation(report, "independence", all_pass="no"),
         "degradation.independence.all_pass must be true or false, got str"),
        ("eval_report", lambda report: edit_degradation(report, "independence", all_pass=False),
         "degradation.independence: all_pass disagrees with"),
        ("eval_report", lambda report: {**report, "degradation": {
            **report["degradation"], "scenarios": [
                {**report["degradation"]["scenarios"][0], "extra": 1}]}},
         "degradation.scenarios[0].extra is not a known key"),
        ("eval_report", lambda report: {**report, "format": "ffusion-report-v2"},
         "unsupported format 'ffusion-report-v2'"),
        ("train_metrics", lambda _: {"format": "ffusion-config-v1"},
         "unsupported format 'ffusion-config-v1'"),
    ], ids=["no_nominal", "probe_without_accuracy", "string_sigma", "list_scenario_name",
            "string_timing", "nan_metric", "string_val", "string_loss", "val_accuracy_range",
            "accuracy_range", "string_accuracy", "string_per_class", "bool_sigma",
            "string_all_pass", "contrary_all_pass", "unknown_scenario_key",
            "eval_format", "train_format", "timings_format"])
    def test_wrong_shaped_report_input_is_data_error(self, pipeline, tmp_path, capsys,
                                                     key, edit, cause):
        # Valid JSON objects that lack a key, hold an unknown key, a wrong
        # type or a value out of range, or carry another format tag: no
        # traceback, and neither report file.
        work, config, config_path = pipeline
        report = json.loads(Path(config.paths.eval_report).read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(report)), encoding="utf-8")
        outputs = tmp_path / "report.json", tmp_path / "report.txt"
        capsys.readouterr()
        assert main(["report", "--config", str(config_path),
                     "--set", f"paths.{key}={bad}",
                     "--set", f"paths.report={outputs[0]}",
                     "--set", f"paths.report_summary={outputs[1]}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert str(bad) in err[0] and cause in err[0]
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("defect", ["entry_without_command", "non_ascii_sample_file"])
    def test_failed_inject_leaves_no_out(self, pipeline, tmp_path, capsys, defect):
        """inject reads, so checks, every sample before it makes --out; the
        defect is in the last sample, after every other would be written."""
        work, config, config_path = pipeline
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(config.paths.dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        last = len(manifest["samples"]) - 1
        if defect == "entry_without_command":
            del manifest["samples"][last]["command"]
            (data / "manifest.json").write_text(json.dumps(manifest))
            cause = f"samples[{last}].command is missing"
        else:
            text = data / manifest["samples"][last]["files"]["text"]
            text.write_bytes(b"\xe9" + text.read_bytes()[1:])
            cause = f"non-ASCII byte at offset 0 in {text}"
        capsys.readouterr()
        assert main(["inject", "--config", str(config_path),
                     "--set", f"paths.dataset_dir={data}",
                     "--modality", "camera", "--kind", "blackout",
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert cause in err[0]
        assert not out.exists()

    def test_inject_into_the_dataset_is_config_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        data = Path(config.paths.dataset_dir)
        before = {p: p.read_bytes() for p in data.iterdir()}
        capsys.readouterr()
        # The same directory, spelled another way.
        out = data / ".." / data.name
        assert main(["inject", "--config", str(config_path),
                     "--modality", "camera", "--kind", "blackout",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert str(out) in err[0] and str(data) in err[0]
        assert {p: p.read_bytes() for p in data.iterdir()} == before

    @pytest.mark.parametrize("content", [
        b"\xff", b"[1]", b'{"format": "ffusion-timings-v2", "train_seconds": 1.5}',
    ], ids=["non_utf8", "list", "foreign_format"])
    def test_stale_timings_sidecar_is_rewritten(self, pipeline, tmp_path, content):
        work, config, config_path = pipeline
        timings = tmp_path / "timings.json"
        timings.write_bytes(content)
        assert main(["eval", "--config", str(config_path),
                     "--set", f"paths.eval_report={tmp_path / 'r.json'}",
                     "--set", f"paths.eval_summary={tmp_path / 'r.txt'}",
                     "--set", f"paths.timings={timings}"]) == EXIT_OK
        data = json.loads(timings.read_text(encoding="utf-8"))
        assert sorted(data) == ["eval_seconds", "format"]
        assert data["format"] == "ffusion-timings-v1"

    def test_untagged_timings_sidecar_is_merged(self, pipeline, tmp_path):
        # A sidecar without a format tag reads as the current format.
        work, config, config_path = pipeline
        timings = tmp_path / "timings.json"
        timings.write_text('{"train_seconds": 1.5}', encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["report", "--config", str(config_path),
                     "--set", f"paths.timings={timings}",
                     "--set", f"paths.report={report}",
                     "--set", f"paths.report_summary={tmp_path / 'report.txt'}"]) == EXIT_OK
        assert json.loads(report.read_text(encoding="utf-8"))["timings"] == {
            "train_seconds": 1.5}

    def test_missing_graph_file(self, tmp_path):
        assert main(["asil-check", "--graph",
                     str(tmp_path / "nope.txt")]) == EXIT_MISSING

    @pytest.mark.parametrize("reader, description", [
        (load_checkpoint, "checkpoint"),
        (load_arch_graph, "architecture graph"),
        (load_dataset, "dataset manifest"),
    ], ids=["checkpoint", "arch_graph", "dataset"])
    def test_reader_reports_its_missing_file(self, tmp_path, reader, description):
        """The reader that opens a file, not its caller, reports it missing."""
        missing = tmp_path / "none"
        with pytest.raises(MissingInputError,
                           match=re.escape(f"{description} not found: {missing}")):
            reader(missing)

    def test_invalid_graph_is_data_error(self, tmp_path):
        graph = tmp_path / "arch.txt"
        graph.write_text("a: D\na => b\n")
        assert main(["asil-check", "--graph", str(graph)]) == EXIT_DATA
        graph.write_bytes(b"a: D\n\xff\n")
        assert main(["asil-check", "--graph", str(graph)]) == EXIT_DATA

    @pytest.mark.parametrize("override", [
        "training.seed=-1", "training.seed=1.5", "training.epochs=true",
        "training.batch_size=true", "model.patch=4", "model.patch=16",
        "dataset.seed=-1", "dataset.count=true",
        'training.learning_rate="x"', 'training.p_drop="x"', "training.learning_rate=true",
        'dataset.ratios=[0.8,0.1,"x"]', "dataset.ratios=0.5", 'sigmas=["x"]', "sigmas=0.5",
        "sigmas=[true]", "sigmas=[Infinity]", "sigmas=[0.5,0.5]",
        "dataset=5", "paths=5", "paths.dataset_dir=5", "paths.arch_graph=7",
        "scenarios=5", "scenarios=[5]", 'scenarios=[{"name":5}]',
        'scenarios=[{"name":"nominal","faults":5}]',
    ])
    def test_bad_config_value_is_config_error(self, pipeline, tmp_path, capsys, override):
        work, config, config_path = pipeline
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path), "--set", override,
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert override.split("=")[0].split(".")[-1] in err[0]
        assert not checkpoint.exists()

    def test_faulted_nominal_is_config_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        report = tmp_path / "eval.json"
        capsys.readouterr()
        assert main(["eval", "--config", str(config_path), "--set",
                     'scenarios=[{"name":"n2"},{"name":"nominal","faults":'
                     '[{"modality":"text","kind":"blackout"}]}]',
                     "--set", f"paths.eval_report={report}"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: scenarios[1]: ")
        assert "fault-free baseline" in err[0]
        assert not report.exists()

    @pytest.mark.parametrize("command, output", [("train", "checkpoint"),
                                                 ("eval", "eval_report")])
    @pytest.mark.parametrize("scenarios, reason", [
        ('[{"name":"nominal"},{"name":"nominal"}]', "nominal repeats"),
        ('[{"name":"nominal"},{"name":"a"},{"name":"a"}]', "a repeats"),
        ('[{"name":"camera_only"}]', "must include the nominal baseline"),
    ])
    def test_bad_scenario_list_is_config_error(self, pipeline, tmp_path, capsys,
                                               command, output, scenarios, reason):
        # Rejected at config load: before train writes a checkpoint, and
        # before eval loads the checkpoint or any split.
        work, config, config_path = pipeline
        out = tmp_path / "out"
        capsys.readouterr()
        with mock.patch("ffusion.cli.load_dataset") as loading:
            assert main([command, "--config", str(config_path),
                         "--set", f"scenarios={scenarios}",
                         "--set", f"paths.{output}={out}"]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: scenarios: ")
        assert reason in err[0]
        assert not loading.called and not out.exists()

    def test_negative_fault_seed_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        out = tmp_path / "noisy"
        capsys.readouterr()
        assert main(["inject", "--config", str(config_path),
                     "--modality", "camera", "--kind", "gaussian_noise",
                     "--magnitude", "0.1", "--fault-seed", "-1",
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert "fault seed" in err[0]
        assert not out.exists()

    def test_non_object_fault_entry_is_data_error(self, pipeline, tmp_path, capsys):
        work, config, config_path = pipeline
        checkpoint = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(config_path),
                     "--set", 'scenarios=[{"name":"nominal","faults":[1]}]',
                     "--set", f"paths.checkpoint={checkpoint}"]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid-data: ")
        assert "scenarios[0].faults[0]" in err[0]
        assert not checkpoint.exists()

    def test_bad_override_is_config_error(self, tmp_path):
        assert main(["generate", "--set", "nonsense"]) == EXIT_CONFIG

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--frobnicate"])
        assert info.value.code == 2
