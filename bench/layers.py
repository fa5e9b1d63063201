"""Per-layer metrics from the spans of traced children.

``LAYERS`` is the table of timed layer metrics: which span each comes
from, and which end-to-end metric on which workload it should move.
Timings are per call, reported as p50 and p99 with their call count.
``COUNTERS`` lists the per-layer counts and ratios. ``metrics`` turns the
span files of one traced run into the ``per_layer`` metric values.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from harness import percentile


@dataclass(frozen=True)
class Layer:
    metric: str            # e.g. "firehose.search_us"; the suffix is the unit
    span: str              # span name recorded by tracer.py
    moves: str             # end-to-end metric and workload it should move
    self_time: bool = False
    calls: str = ""        # name of the call-count metric, default "<metric>.calls"

    @property
    def unit(self) -> str:
        return self.metric.rsplit("_", 1)[1]

    @property
    def calls_metric(self) -> str:
        return self.calls or self.metric + ".calls"


PIPE_RATE = "throughput_per_s (records_per_s) on pipeline"
PIPE_CPU = "cpu_s and throughput_per_s (records_per_s) on pipeline"
NEGLIGIBLE = "wall_s on pipeline; analyzer_pruner.wall_share_pct shows it cannot move it"
GW_CPU = "cpu_s and throughput_per_s (bundles_per_s) on gateway"
GW_WALL = "wall_s on gateway"
AUDIT_REPORT = "throughput_per_s (report_p50_ms) on audit"
AUDIT_WALL = "wall_s on audit"
FSYNC = "wall_s (not cpu_s) on audit, 20 fsynced appends a repetition; the timed gateway skips fsync"

LAYERS = (
    Layer("firehose.search_us", "firehose.search", PIPE_RATE, self_time=True),
    Layer("firehose.make_us", "firehose.make", PIPE_RATE, calls="firehose.tweets_generated"),
    Layer("crawler.page_us", "crawler.page", PIPE_RATE),
    Layer("crawler.roundtrip_us", "crawler.roundtrip", PIPE_RATE),
    Layer("crawler.write_page_us", "crawler.write_page", PIPE_RATE),
    Layer("codec.encode_us", "codec.encode", PIPE_CPU),
    Layer("codec.decode_us", "codec.decode", PIPE_CPU),
    Layer("processor.lookup_us", "processor.lookup", PIPE_CPU),
    Layer("processor.process_file_s", "processor.process_file", PIPE_CPU),
    Layer("processor.process_file_self_s", "processor.process_file", PIPE_CPU, self_time=True,
          calls="processor.files"),
    Layer("analyzer.analyze_s", "analyzer.analyze", NEGLIGIBLE),
    Layer("analyzer.write_csv_s", "analyzer.write_csv", NEGLIGIBLE),
    Layer("pruner.prune_s", "pruner.prune", NEGLIGIBLE),
    Layer("gateway.pseudonymize_us", "gateway.pseudonymize", GW_CPU),
    Layer("gateway.register_us", "vault.register", GW_CPU),
    Layer("gateway.categorize_us", "gateway.categorize", GW_CPU),
    Layer("gateway.scrub_us", "gateway.pseudonymize", GW_CPU, self_time=True,
          calls="gateway.scrubs"),
    Layer("gateway.deliver_us", "gateway.deliver", GW_WALL),
    Layer("gateway.dispatch_us", "gateway.dispatch", GW_WALL),
    Layer("ledger.record_us", "ledger.record", GW_CPU),
    Layer("ledger.fsync_us", "ledger.fsync", FSYNC, calls="ledger.fsyncs"),
    Layer("ledger.open_s", "ledger.open", AUDIT_REPORT),
    Layer("ledger.report_us", "ledger.report", AUDIT_REPORT),
    Layer("vault.open_s", "vault.open", AUDIT_WALL),
    Layer("vault.erase_us", "vault.erase", AUDIT_WALL),
    Layer("gateway.remap_us", "gateway.remap", AUDIT_WALL),
)

# (metric, unit, what it is and what it should move)
COUNTERS = (
    ("crawler.kept_ratio", "ratio", "tweets_kept / tweets_seen; should not move"),
    ("crawler.request_failures", "count", "pages skipped after retries; should not move"),
    ("processor.records", "count", "records written by process_file"),
    ("processor.skipped", "count", "undecodable crawl lines; should not move"),
    ("gateway.leaked_bundles", "count", "bundles carrying a feed user's identifier"),
    ("analyzer_pruner.wall_share_pct", "%",
     "analyze + write_csv + prune over the traced pipeline command's wall time"),
    ("trace.overhead_s", "s", "traced wall_s minus untraced wall_s of the timed commands"),
)

_SCALE = {"us": 1e-3, "s": 1e-9}
_ANALYZE_PRUNE = ("analyzer.analyze", "analyzer.write_csv", "pruner.prune")


def descriptions() -> dict[str, str]:
    """What each per-layer metric is or should move, by metric name."""
    out = {}
    for layer in LAYERS:
        for name in (f"{layer.metric}.p50", f"{layer.metric}.p99", layer.calls_metric):
            out[name] = "moves " + layer.moves
    out.update((name, text) for name, _unit, text in COUNTERS)
    return out


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in output order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer.metric}.p50", layer.unit), (f"{layer.metric}.p99", layer.unit),
                  (layer.calls_metric, "count")]
    return names + [(name, unit) for name, unit, _ in COUNTERS]


class Spans:
    """Durations and self times (ns) per span name over a set of span files."""

    def __init__(self, files: list[tuple[Path, float]]):
        self.total: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.counters: Counter = Counter()
        analyze_prune_ns = 0
        pipeline_wall_s = 0.0
        for path, wall_s in files:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            spans = data["spans"]
            covered: dict[int, int] = defaultdict(int)
            for _id, parent, _name, start, end in spans:
                if parent:
                    covered[parent] += end - start
            for span_id, _parent, name, start, end in spans:
                self.total[name].append(end - start)
                self.self_ns[name].append(end - start - covered[span_id])
            # The mock serves on its own thread, one request at a time, so the
            # k-th client page span matches the k-th server search span.
            pages = sorted((s for s in spans if s[2] == "crawler.page"), key=lambda s: s[3])
            served = sorted((s for s in spans if s[2] == "firehose.search"), key=lambda s: s[3])
            if len(pages) == len(served):
                self.total["crawler.roundtrip"] += [
                    (p[4] - p[3]) - (s[4] - s[3]) for p, s in zip(pages, served)
                ]
            file_analyze = sum(end - start for _i, _p, name, start, end in spans
                               if name in _ANALYZE_PRUNE)
            if file_analyze:
                analyze_prune_ns += file_analyze
                pipeline_wall_s += wall_s
            self.counters.update(data["counters"])
        self.wall_share_pct = (100.0 * analyze_prune_ns * 1e-9 / pipeline_wall_s
                               if pipeline_wall_s else None)

    def calls(self, span: str) -> int:
        return len(self.total.get(span, ()))


def metrics(workload: Spans, probe: Spans, leaked: int, overhead_s: float) -> dict:
    """Per-layer metric values: from the workload's own traced commands where
    they load the layer, otherwise from the probe chain."""
    out: dict = {}
    for layer in LAYERS:
        source = workload if workload.calls(layer.span) else probe
        samples = (source.self_ns if layer.self_time else source.total).get(layer.span, [])
        scale = _SCALE[layer.unit]
        if samples:
            out[f"{layer.metric}.p50"] = (percentile(samples, 0.50) * scale, layer.unit)
            out[f"{layer.metric}.p99"] = (percentile(samples, 0.99) * scale, layer.unit)
        out[layer.calls_metric] = (len(samples), "count")
    crawl = workload if workload.counters["crawler.tweets_seen"] else probe
    seen = crawl.counters["crawler.tweets_seen"]
    out["crawler.kept_ratio"] = (crawl.counters["crawler.tweets_kept"] / seen if seen else 0.0,
                                 "ratio")
    out["crawler.request_failures"] = (crawl.counters["crawler.request_failures"], "count")
    processed = workload if workload.calls("processor.process_file") else probe
    out["processor.records"] = (processed.counters["processor.records"], "count")
    out["processor.skipped"] = (processed.counters["processor.skipped"], "count")
    out["gateway.leaked_bundles"] = (leaked, "count")
    share = (workload if workload.wall_share_pct is not None else probe).wall_share_pct
    out["analyzer_pruner.wall_share_pct"] = (share if share is not None else 0.0, "%")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
