"""Command line interface: generate, train, eval, inject, asil-check, report.

Every run is driven by one JSON config; flags only override config keys
(--set dotted.key=value). Dataset builds, training, and evaluation are
deterministic per config: rerunning a subcommand reproduces its output
files byte for byte. Wall-clock timings are kept out of those artifacts
and land in a separate sidecar that only the report subcommand merges.

Exit codes: 0 success; 2 usage error (bad flags, unknown subcommand);
3 malformed configuration; 4 missing input file; 5 invalid data
(datasets, checkpoints, fault specs, architecture graphs); 1 any other
package failure. Errors print one line to stderr: `error: <kind>: <message>`.
"""

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .config import CONFIG_FORMAT, RunConfig, apply_overrides
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FaultError,
    FfusionError,
    GraphError,
    MissingInputError,
)
from .jsonfile import from_plain, read_json, to_plain
from .model import FusionNetwork, Metrics, train
from .safety import (
    FAULT_KINDS,
    FAULT_MODALITIES,
    Campaign,
    DegradationReport,
    EnrichmentRow,
    FaultSpec,
    ProbeResult,
    check_decomposition,
    fail_operational_eval,
    inject_fault,
    load_arch_graph,
    single_modality_probe,
    snr_enrichment_eval,
)
from .safety.report import (
    REPORT_FORMAT,
    render_json,
    render_text_summary,
    write_json_report,
    write_report,
    write_text_report,
)
from .scene.dataset import (
    build_dataset,
    load_dataset,
    load_sample,
    manifest_entries,
    read_manifest,
    write_manifest,
    write_sample,
)

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_DATA = 5
EXIT_OTHER = 1

TIMINGS_FORMAT = "ffusion-timings-v1"


def _load_config(args) -> RunConfig:
    if args.config is None:
        data = RunConfig().to_dict()
    else:
        data = read_json(args.config, "config", CONFIG_FORMAT, ConfigError)
    apply_overrides(data, args.set or [])
    return RunConfig.from_dict(data)


def _load_splits(config: RunConfig, needed) -> dict:
    """Load the dataset; every split in needed must hold a sample."""
    splits = load_dataset(config.paths.dataset_dir)
    for name in needed:
        if not splits[name]:
            raise DataError(
                f"dataset split {name!r} under {config.paths.dataset_dir} is "
                "empty (raise dataset.count or that split's ratio)")
    return splits


def _merge_timing(config: RunConfig, key: str, seconds: float) -> None:
    path = Path(config.paths.timings)
    try:
        data = read_json(path, "timings sidecar", TIMINGS_FORMAT)
    except DataError:  # none yet, a stale one or another format's; rewrite it
        data = {}
    data = {"format": TIMINGS_FORMAT, **data, key: round(seconds, 3)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def cmd_generate(args) -> int:
    config = _load_config(args)
    build_dataset(config.paths.dataset_dir, config.dataset.count,
                  config.dataset.seed, config.dataset.ratios)
    print(f"dataset: {config.dataset.count} samples under "
          f"{config.paths.dataset_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    started = time.perf_counter()
    splits = _load_splits(config, ("train", "val"))
    network = FusionNetwork(config=config.model, seed=config.training.seed)
    curve = train(network, splits["train"], config.training)
    network.save(config.paths.checkpoint)

    val_metrics, _ = Campaign(network, splits["val"]).evaluate(scenario="val")
    payload = {
        "format": REPORT_FORMAT,
        "version": __version__,
        "config": config.to_dict(),
        "train_loss_curve": curve,
        "val": val_metrics,
    }
    write_json_report(config.paths.train_metrics, payload)
    _merge_timing(config, "train_seconds", time.perf_counter() - started)
    print(f"checkpoint: {config.paths.checkpoint} "
          f"(final batch loss {curve[-1]:.4f}, "
          f"val accuracy {val_metrics.command_accuracy:.4f})")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args)
    started = time.perf_counter()
    network = FusionNetwork.from_checkpoint(config.paths.checkpoint,
                                            config=config.model)
    splits = _load_splits(config, ("train", "val", "test"))
    test = Campaign(network, splits["test"])
    degradation = fail_operational_eval(test, config.scenarios)
    probes = single_modality_probe(network, splits["train"], splits["val"])
    enrichment = snr_enrichment_eval(test, config.sigmas, seed=config.dataset.seed)
    payload = {
        "format": REPORT_FORMAT,
        "version": __version__,
        "config": config.to_dict(),
        "degradation": degradation,
        "probes": [probes[m] for m in sorted(probes)],
        "enrichment": enrichment,
    }
    write_json_report(config.paths.eval_report, payload)
    write_text_report(config.paths.eval_summary, payload)
    _merge_timing(config, "eval_seconds", time.perf_counter() - started)
    print(f"evaluation: {len(config.scenarios)} scenarios -> "
          f"{config.paths.eval_report}")
    return EXIT_OK


def cmd_inject(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    if out.resolve() == Path(config.paths.dataset_dir).resolve():
        raise ConfigError(
            f"--out {args.out} is the dataset directory "
            f"{config.paths.dataset_dir}; inject writes a corrupted copy, "
            "so it needs another directory")
    spec = FaultSpec(modality=args.modality, kind=args.kind,
                     magnitude=args.magnitude, seed=args.fault_seed)
    source = config.paths.dataset_dir
    manifest = read_manifest(source)
    entries = manifest_entries(manifest, source)
    # Every sample is read, so checked, before --out is made.
    samples = [load_sample(source, entry) for entry in entries]
    out.mkdir(parents=True, exist_ok=True)
    for entry, sample in zip(entries, samples):
        for name in to_plain(entry.files).values():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
        write_sample(inject_fault(sample, spec), out, entry.files)
    write_manifest(out, {**manifest, "fault": to_plain(spec)}, entries)
    print(f"injected {spec.kind} on {spec.modality} -> {out}")
    return EXIT_OK


def cmd_asil_check(args) -> int:
    graph_path = args.graph
    if graph_path is None:
        config = _load_config(args)
        graph_path = config.paths.arch_graph
    if graph_path is None:
        raise ConfigError("no architecture graph: pass --graph or set "
                          "paths.arch_graph in the config")
    graph = load_arch_graph(graph_path)
    verdicts = check_decomposition(graph)
    for verdict in verdicts:
        print(f"{verdict.parent} -> {' + '.join(verdict.parts)}: "
              f"{verdict.status} ({verdict.reason})")
    if args.json:
        write_json_report(args.json, {
            "format": REPORT_FORMAT,
            "version": __version__,
            "asil_verdicts": verdicts,
        })
    invalid = sum(1 for v in verdicts if v.status != "VALID")
    print(f"{len(verdicts)} claims, {invalid} invalid")
    return EXIT_OK


def _read_report(path, description: str, **sections) -> dict:
    """The named sections of a report file, each read as its declared type;
    an absent or null section reads as None."""
    payload = read_json(path, description, REPORT_FORMAT)
    return {key: from_plain(Optional[kind], payload.get(key), f"{description} {path}: {key}",
                            DataError)
            for key, kind in sections.items()}


def cmd_report(args) -> int:
    config = _load_config(args)
    payload = {
        "format": REPORT_FORMAT,
        "version": __version__,
        "config": config.to_dict(),
        **_read_report(config.paths.train_metrics, "training metrics",
                       train_loss_curve=List[float], val=Metrics),
        **_read_report(config.paths.eval_report, "evaluation report",
                       degradation=DegradationReport, probes=List[ProbeResult],
                       enrichment=List[EnrichmentRow]),
    }
    if config.paths.arch_graph is not None:
        payload["asil_verdicts"] = check_decomposition(
            load_arch_graph(config.paths.arch_graph))
    timings_path = Path(config.paths.timings)
    if timings_path.is_file():
        timings = read_json(timings_path, "timings sidecar", TIMINGS_FORMAT)
        payload["timings"] = from_plain(Dict[str, float], timings,
                                        f"timings sidecar {timings_path}: timings", DataError)
    # Render both before writing either, so a failure leaves neither file.
    rendered = ((config.paths.report, render_json(payload)),
                (config.paths.report_summary, render_text_summary(payload)))
    for path, text in rendered:
        write_report(path, text)
    print(f"report: {config.paths.report} and {config.paths.report_summary}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffusion",
        description="Fail-operational multimodal fusion pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path, JSON value)")

    common(sub.add_parser("generate", help="build the synthetic dataset"))
    common(sub.add_parser("train", help="train the fusion model"))
    common(sub.add_parser("eval", help="run the fault campaign evaluation"))

    inject = sub.add_parser("inject", help="write a fault-corrupted dataset")
    common(inject)
    inject.add_argument("--modality", required=True, choices=FAULT_MODALITIES)
    inject.add_argument("--kind", required=True, choices=FAULT_KINDS)
    inject.add_argument("--magnitude", type=float, default=0.0)
    inject.add_argument("--fault-seed", type=int, default=0)
    inject.add_argument("--out", required=True,
                        help="directory for the corrupted dataset")

    asil = sub.add_parser("asil-check", help="check ASIL decomposition claims")
    common(asil)
    asil.add_argument("--graph", help="architecture graph file")
    asil.add_argument("--json", help="also write verdicts as JSON")

    common(sub.add_parser("report", help="merge artifacts into one report"))

    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "eval": cmd_eval,
        "inject": cmd_inject,
        "asil-check": cmd_asil_check,
        "report": cmd_report,
    }
    parser.set_defaults(handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args.handlers[args.subcommand]
    try:
        return handler(args)
    except MissingInputError as exc:
        print(f"error: missing-input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FaultError, GraphError, CheckpointError) as exc:
        print(f"error: invalid-data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FfusionError as exc:
        print(f"error: failure: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
