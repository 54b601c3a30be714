"""Human-readable rendering of a ``metrics`` snapshot, shared by ``repro
metrics`` and the load client's ``--metrics``: a walk of the declared
metrics (:mod:`repro.obs.registry`), one aligned block per section, the
per-shard blocks last. Missing keys are absent rows, not errors.
"""

from __future__ import annotations

from repro.obs.registry import HISTOGRAM, METRICS, QUANTILES, SUMMARY, samples

__all__ = ["render_metrics_table"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _rows(metric, path: tuple, value) -> list[tuple[str, object]]:
    if metric.kind == SUMMARY:
        return [(q, value[q]) for q in QUANTILES if q in value]
    if metric.kind == HISTOGRAM:
        return [("samples", value["samples"]), ("histogram", " ".join(
            f"le{le if isinstance(le, str) else _fmt(le)}:{n}"
            for le, n in value["buckets"]))]
    return [(path[-1], value)]


def render_metrics_table(snapshot: dict) -> str:
    """Render the snapshot as aligned ``section / key value`` text."""
    sections: dict[tuple, list] = {}
    for metric in METRICS:
        for path, labels, value in samples(metric, snapshot):
            shard = next((p for p in path if isinstance(p, int)), -1)
            title = metric.section.format(**labels)
            sections.setdefault((shard, title), []).extend(
                _rows(metric, path, value))
    out: list[str] = []
    for (_, title), rows in sorted(sections.items(), key=lambda s: s[0][0]):
        width = max(len(key) for key, _ in rows)
        out.append(title)
        out += [f"  {key:<{width}}  {_fmt(value)}" for key, value in rows]
    return "\n".join(out)
