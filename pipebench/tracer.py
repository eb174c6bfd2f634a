"""Span tracing at ffusion's layer boundaries, installed from outside the package.

``Tracer.install`` rebinds public functions and methods of each layer to
wrappers that record a span (name, start, end, parent, cycle) per call, and
``Tracer.uninstall`` restores the originals. A function is rebound in every
``ffusion`` module that holds it, because modules import names directly.
Spans stay in memory; ``Aggregate`` turns them into per-layer totals, self
times and calls. Besides spans, a few wrappers count exact work per cycle:
tape records per op (read from ``tape.records`` in ``backward``), tape bytes,
and distinct ``prepare_features`` inputs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter

FUNCTIONS = (
    ("ffusion.scene.dataset", "build_dataset", "scene.build_dataset"),
    ("ffusion.scene.dataset", "synthesize_sample", "scene.synthesize_sample"),
    ("ffusion.scene.dataset", "load_dataset", "scene.load_dataset"),
    ("ffusion.scene.dataset", "load_sample", "scene.load_sample"),
    ("ffusion.geometry.projection", "project_point_cloud", "geometry.project_point_cloud"),
    ("ffusion.geometry.densify", "densify_depth", "geometry.densify_depth"),
    ("ffusion.model.health", "camera_health", "model.health.camera"),
    ("ffusion.model.health", "depth_health", "model.health.depth"),
    ("ffusion.model.health", "text_health", "model.health.text"),
    ("ffusion.model.inputs", "stack_features", "model.inputs.stack_features"),
    ("ffusion.autodiff.optim", "adam_step", "autodiff.adam_step"),
    ("ffusion.autodiff.checkpoint", "save_checkpoint", "autodiff.save_checkpoint"),
    ("ffusion.autodiff.checkpoint", "load_checkpoint", "autodiff.load_checkpoint"),
    ("ffusion.safety.faults", "inject_faults", "safety.inject_faults"),
    ("ffusion.safety.harness", "fail_operational_eval", "safety.fail_operational_eval"),
    ("ffusion.safety.harness", "snr_enrichment_eval", "safety.snr_enrichment_eval"),
    ("ffusion.safety.probe", "single_modality_probe", "safety.single_modality_probe"),
    ("ffusion.safety.probe", "pooled_embeddings", "safety.pooled_embeddings"),
    ("ffusion.safety.independence", "verify_independence", "safety.verify_independence"),
    ("ffusion.safety.report", "write_json_report", "safety.write_json_report"),
    ("ffusion.safety.report", "write_text_report", "safety.write_text_report"),
)

METHODS = (
    ("ffusion.model.fusion", "FusionCore", "fuse", "model.fusion.fuse"),
    ("ffusion.model.decoders", "CommandHead", "__call__", "model.decoders.heads"),
    ("ffusion.model.decoders", "SegHead", "__call__", "model.decoders.heads"),
    ("ffusion.model.network", "FusionNetwork", "loss", "model.network.loss"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "cycle")

    def __init__(self, name, parent, cycle):
        self.name = name
        self.parent = parent
        self.cycle = cycle
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Records spans and exact per-cycle counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = []  # one Counter per cycle
        self._open = []
        self._patches = []
        self._step_records = []  # one {step kind: set of record counts} per cycle
        self._prepared = []  # one set of input digests per cycle
        self._taped_dropped = None  # modalities off in the taped forward
        self._tape = self._modalities = None  # bound by install()

    # -- spans and counts -------------------------------------------------

    def start_cycle(self) -> None:
        self.counts.append(Counter())
        self._step_records.append({})
        self._prepared.append(set())

    def end_cycle(self) -> Counter:
        """Close the cycle's counts; raises if a per-step count varied."""
        counts = self.counts[-1]
        counts["prepare_distinct"] = len(self._prepared[-1])
        for kind, seen in self._step_records[-1].items():
            if len(seen) > 1:
                raise RuntimeError(f"tape records of {kind} steps vary within "
                                   f"one cycle: {sorted(seen)}")
            counts[f"tape_records_step.{kind}"] = seen.pop()
        return counts

    def count(self, key: str, amount=1) -> None:
        self.counts[-1][key] += amount

    def _begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None,
                    len(self.counts) - 1)
        self.spans.append(span)
        self._open.append(span)
        self.counts[-1][name] += 1
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, name, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = self._begin(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)
        return traced

    # -- observers that count work at a boundary --------------------------

    def _note_prepare(self, sample, *_args, **_kwargs) -> None:
        digest = hashlib.sha1(sample.rgb.tobytes())
        digest.update(sample.cloud.points.tobytes())
        digest.update(sample.text.encode())
        digest.update(repr(tuple(sample.registration_shift)).encode())
        self._prepared[-1].add(digest.digest())

    def _note_forward(self, network, batch, mask=None) -> None:
        if self._tape.active() is None:
            return
        self._taped_dropped = "_".join(
            m for available, m in zip(batch.availability, self._modalities)
            if not (available and (mask is None or mask[m])))

    def _note_backward(self, tape, loss) -> None:
        records = tape.records
        self.count("tape_records", len(records))
        self.count("tape_bytes", sum(r.output.data.nbytes for r in records))
        ops = Counter(r.backward_fn.__qualname__.split(".")[0] for r in records)
        for op, n in ops.items():
            self.count(f"tape_records.{op}", n)
        if self._taped_dropped is not None:
            kind = f"drop_{self._taped_dropped}" if self._taped_dropped else "full"
            self._step_records[-1].setdefault(kind, set()).add(len(records))
        self._taped_dropped = None

    # -- installing -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "ffusion" and not module_name.startswith("ffusion."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def _patch_method(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from ffusion.autodiff import Tape, backward
        from ffusion.model import (
            MODALITIES, EncoderBranch, FusionNetwork, prepare_features)

        self._tape, self._modalities = Tape, MODALITIES
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(original, self._wrap(original, name))
        self._rebind(prepare_features, self._wrap(
            prepare_features, "model.inputs.prepare_features", self._note_prepare))
        self._rebind(backward, self._wrap(
            backward, "autodiff.backward", self._note_backward))
        for module_name, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(module_name), cls)
            self._patch_method(owner, attr, self._wrap(owner.__dict__[attr], name))
        self._patch_method(EncoderBranch, "encode", self._wrap(
            EncoderBranch.encode, lambda args: f"model.encoders.{args[0].modality}"))
        self._patch_method(FusionNetwork, "forward", self._wrap(
            FusionNetwork.forward, "model.network.forward", self._note_forward))

        # The taped forward pass: a span from entering a Tape to leaving it.
        enter, leave = Tape.__enter__, Tape.__exit__

        def traced_enter(tape):
            tape._pipebench_span = self._begin("autodiff.tape")
            return enter(tape)

        def traced_exit(tape, *exc):
            try:
                return leave(tape, *exc)
            finally:
                self._end(tape._pipebench_span)

        self._patch_method(Tape, "__enter__", traced_enter)
        self._patch_method(Tape, "__exit__", traced_exit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Aggregate:
    """Per-layer totals over the traced cycles of one workload."""

    def __init__(self, tracer: Tracer, cycles: list):
        self.cycles = len(cycles)
        wanted = set(cycles)
        self._total = Counter()
        self._self = Counter()
        self._calls = Counter()
        for span in tracer.spans:
            if span.cycle not in wanted:
                continue
            duration = span.end - span.start
            self._total[span.name] += duration
            self._self[span.name] += duration
            self._calls[span.name] += 1
            if span.parent is not None:
                self._self[span.parent.name] -= duration
        self._counts = tracer.counts[cycles[0]] if cycles else Counter()

    @staticmethod
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0  # only when every cycle failed

    def ms(self, seconds: float, per: float) -> float:
        return 1000.0 * self.ratio(seconds, per)

    def total_time(self, name: str) -> float:
        return self._total[name]

    def self_time(self, name: str) -> float:
        return self._self[name]

    def calls(self, name: str) -> int:
        return self._calls[name]

    def count(self, key: str):
        return self._counts[key]

    def table(self) -> list:
        """(name, calls per cycle, total ms per cycle, self ms per cycle)."""
        n = max(self.cycles, 1)
        return [(name, self._calls[name] / n, 1000.0 * self._total[name] / n,
                 1000.0 * self._self[name] / n)
                for name in sorted(self._calls, key=lambda k: -self._self[k])]

    def op_counts(self) -> dict:
        return {key.split(".", 1)[1]: value for key, value in self._counts.items()
                if key.startswith("tape_records.")}
