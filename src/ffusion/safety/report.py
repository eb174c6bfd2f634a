"""Report serialization: canonical JSON plus a plain-text summary.

Reports must be byte-identical across reruns of the same configuration,
so rendering is pure: fixed field order, fixed float formatting in the
text summary, no timestamps or environment probes. Wall-clock timings
are merged in only by the report subcommand, which is documented as
non-reproducible.
"""

import json
from pathlib import Path

from ..jsonfile import to_plain

REPORT_FORMAT = "ffusion-report-v1"


def render_json(payload: dict) -> str:
    """Canonical JSON of a payload whose sections may be typed records."""
    return json.dumps(to_plain(payload), indent=2, allow_nan=False) + "\n"


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
    """Human-readable view of a payload whose sections are typed records
    (DegradationReport, ProbeResult, EnrichmentRow, Verdict); same
    determinism rules."""
    lines = [f"report format: {payload.get('format', REPORT_FORMAT)}"]
    if "version" in payload:
        lines.append(f"tool version: {payload['version']}")

    degradation = payload.get("degradation")
    if degradation:
        lines.append("")
        lines.append("nominal baseline")
        nominal = degradation.nominal
        lines.append(f"  command accuracy: {_fmt(nominal.command_accuracy)}")
        lines.append(f"  segmentation accuracy: {_fmt(nominal.seg_accuracy)}")
        if nominal.per_class:
            lines.append("  per command: " + ", ".join(
                f"{name}={_fmt(acc)}" for name, acc in nominal.per_class.items()))
        if degradation.scenarios:
            lines.append("")
            lines.append("scenario           status       cmd-acc  retained  arbitration (cam/depth/text)")
            for item in degradation.scenarios:
                acc = _fmt(item.metrics.command_accuracy if item.metrics else None)
                retained = _fmt(item.retained_accuracy)
                arb = item.arbitration
                arb_text = "/".join(f"{v:.3f}" for v in arb) if arb else "n/a"
                lines.append(
                    f"{item.name:<18} {item.status:<12} {acc:>7}"
                    f"  {retained:>8}  {arb_text}")
                if item.error:
                    lines.append(f"    error: {item.error}")
        independence = degradation.independence
        if independence:
            lines.append("")
            verdict = "pass" if independence.all_pass else "FAIL"
            lines.append(f"encoder independence: {verdict}")
            lines.append(
                "  structural (no shared parameters): "
                + ("pass" if independence.structural_pass else "FAIL"))
            for modality, ok in independence.functional_pass.items():
                leak = independence.gradient_leaks.get(modality)
                suffix = "" if leak is None else f" (leak at {leak})"
                lines.append(
                    f"  functional {modality}: "
                    + ("pass" if ok else "FAIL") + suffix)

    probes = payload.get("probes")
    if probes:
        lines.append("")
        lines.append("single-modality probes")
        for item in probes:
            tag = " (shuffled labels)" if item.shuffled_labels else ""
            lines.append(
                f"  {item.modality:<8} accuracy {_fmt(item.accuracy)}{tag}")

    enrichment = payload.get("enrichment")
    if enrichment:
        lines.append("")
        lines.append("noise enrichment (accuracy)")
        lines.append("  sigma    fused  camera-only")
        for row in enrichment:
            lines.append(f"  {row.sigma:<7.3f}  {_fmt(row.fused_accuracy)}"
                         f"  {_fmt(row.camera_only_accuracy)}")

    verdicts = payload.get("asil_verdicts")
    if verdicts:
        lines.append("")
        lines.append("decomposition claims")
        for item in verdicts:
            lines.append(
                f"  {item.parent} -> {' + '.join(item.parts)}: "
                f"{item.status} ({item.reason})")

    timings = payload.get("timings")
    if timings:
        lines.append("")
        lines.append("timings (seconds, not reproducible)")
        for name, seconds in timings.items():
            lines.append(f"  {name}: {seconds:.3f}")

    return "\n".join(lines) + "\n"


def write_text_report(path, payload: dict) -> None:
    write_report(path, render_text_summary(payload))
