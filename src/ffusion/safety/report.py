"""Report serialization: canonical JSON plus a plain-text summary.

Reports must be byte-identical across reruns of the same configuration,
so rendering is pure: fixed field order, fixed float formatting in the
text summary, no timestamps or environment probes. Wall-clock timings
are merged in only by the report subcommand, which is documented as
non-reproducible.
"""

import json
from pathlib import Path

from ..errors import DataError

REPORT_FORMAT = "ffusion-report-v1"


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_report(path, text: str) -> None:
    """Write rendered report text, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json_report(path, payload: dict) -> None:
    write_report(path, render_json(payload))


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_text_summary(payload: dict) -> str:
    """Human-readable view of the same payload; same determinism rules."""
    lines = [f"report format: {payload.get('format', REPORT_FORMAT)}"]
    if "version" in payload:
        lines.append(f"tool version: {payload['version']}")

    degradation = payload.get("degradation")
    if degradation:
        lines.append("")
        lines.append("nominal baseline")
        nominal = degradation["nominal"]
        lines.append(f"  command accuracy: {_fmt(nominal['command_accuracy'])}")
        lines.append(f"  segmentation accuracy: {_fmt(nominal['seg_accuracy'])}")
        if nominal.get("per_class"):
            lines.append("  per command: " + ", ".join(
                f"{name}={_fmt(acc)}" for name, acc in nominal["per_class"].items()))
        scenarios = degradation.get("scenarios", [])
        if scenarios:
            lines.append("")
            lines.append("scenario           status       cmd-acc  retained  arbitration (cam/depth/text)")
            for item in scenarios:
                metrics = item.get("metrics")
                acc = _fmt(metrics["command_accuracy"] if metrics else None)
                retained = _fmt(item.get("retained_accuracy"))
                arb = item.get("arbitration")
                arb_text = "/".join(f"{v:.3f}" for v in arb) if arb else "n/a"
                lines.append(
                    f"{item['name']:<18} {item['status']:<12} {acc:>7}"
                    f"  {retained:>8}  {arb_text}")
                if item.get("error"):
                    lines.append(f"    error: {item['error']}")
        independence = degradation.get("independence")
        if independence:
            lines.append("")
            verdict = "pass" if independence["all_pass"] else "FAIL"
            lines.append(f"encoder independence: {verdict}")
            lines.append(
                "  structural (no shared parameters): "
                + ("pass" if independence["structural_pass"] else "FAIL"))
            for modality, ok in independence["functional_pass"].items():
                leak = independence["gradient_leaks"].get(modality)
                suffix = "" if leak is None else f" (leak at {leak})"
                lines.append(
                    f"  functional {modality}: "
                    + ("pass" if ok else "FAIL") + suffix)

    probes = payload.get("probes")
    if probes:
        lines.append("")
        lines.append("single-modality probes")
        for item in probes:
            tag = " (shuffled labels)" if item.get("shuffled_labels") else ""
            lines.append(
                f"  {item['modality']:<8} accuracy {_fmt(item['accuracy'])}{tag}")

    enrichment = payload.get("enrichment")
    if enrichment:
        lines.append("")
        lines.append("noise enrichment (accuracy)")
        lines.append("  sigma    fused  camera-only")
        for row in enrichment:
            lines.append(
                f"  {row['sigma']:<7.3f}  {row['fused_accuracy']:.4f}"
                f"  {row['camera_only_accuracy']:.4f}")

    verdicts = payload.get("asil_verdicts")
    if verdicts:
        lines.append("")
        lines.append("decomposition claims")
        for item in verdicts:
            lines.append(
                f"  {item['parent']} -> {' + '.join(item['parts'])}: "
                f"{item['status']} ({item['reason']})")

    timings = payload.get("timings")
    if timings:
        lines.append("")
        lines.append("timings (seconds, not reproducible)")
        for name, seconds in timings.items():
            lines.append(f"  {name}: {seconds:.3f}")

    return "\n".join(lines) + "\n"


def write_text_report(path, payload: dict) -> None:
    write_report(path, render_text_summary(payload))


_REAL = (int, float)
_KINDS = {dict: "an object", list: "a list", str: "a string", _REAL: "a number"}

# What render_text_summary reads of a payload. A dict gives an object's keys
# ("*" stands for each key it holds); a key ending in "?" may be absent or
# empty, and the renderer then skips it. [shape] is a list of that shape, a
# type is a value of that type, and None is any value.
_SUMMARY_SHAPE = {
    "degradation?": {
        "nominal": {"command_accuracy": None, "seg_accuracy": None, "per_class?": dict},
        "scenarios?": [{"name": str, "status": str, "metrics?": {"command_accuracy": None},
                        "arbitration?": [_REAL]}],
        "independence?": {"all_pass": None, "structural_pass": None,
                          "functional_pass": dict, "gradient_leaks": dict},
    },
    "probes?": [{"modality": str, "accuracy": None}],
    "enrichment?": [{"sigma": _REAL, "fused_accuracy": _REAL, "camera_only_accuracy": _REAL}],
    "timings?": {"*": _REAL},
}


def check_summary_input(sections: dict, source: str) -> None:
    """Raise DataError where payload sections lack a key or hold a value
    of another type than render_text_summary reads; the message names
    source and the key path."""
    def check(value, shape, path):
        kind = type(shape) if isinstance(shape, (dict, list)) else shape
        if kind is None:
            return
        if not isinstance(value, kind) or (kind is _REAL and isinstance(value, bool)):
            raise DataError(f"{source}: {path} must be {_KINDS[kind]}, "
                            f"got {type(value).__name__}")
        if isinstance(shape, list):
            for i, item in enumerate(value):
                check(item, shape[0], f"{path}[{i}]")
        elif isinstance(shape, dict):
            for key, inner in shape.items():
                name = key.rstrip("?")
                for field in (value if name == "*" else [name]):
                    where = f"{path}.{field}" if path else field
                    if field not in value:
                        if name == key:
                            raise DataError(f"{source}: {where} is missing")
                    elif value[field] or name == key:
                        check(value[field], inner, where)

    check(sections, _SUMMARY_SHAPE, "")
