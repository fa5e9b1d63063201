"""Span recorder for traced benchmark children.

    python3 bench/tracer.py SPANS.json tweetpipe [tweetpipe arguments...]
    python3 bench/tracer.py SPANS.json erase_remap [erase_remap arguments...]

Wraps the public functions of each tweetpipe module from outside the
package (``src/`` is left untouched), runs the entry point, and writes the
spans and counters to SPANS.json when it returns. Each span is
``[id, parent_id, name, start_ns, end_ns]``; the parent is the innermost
traced call on the same thread, 0 at the top. The mock search server runs
on its own thread, so its spans are roots; ``layers.py`` pairs them with
the client's page spans by order.

Class methods are wrapped at the class attribute, so every caller sees the
wrapper. Module functions are wrapped at the name their caller looks up:
``cli`` imports the stage functions by name, ``crawler`` imports
``encode_record`` and ``processor`` imports ``decode_record``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, on_result=None):
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh,
                      separators=(",", ":"))


class _OsProxy:
    """Stands in for ``os`` inside one module, with ``fsync`` traced."""

    def __init__(self, real, fsync):
        self.fsync = fsync
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


# (module, attribute looked up by the caller, span name)
TARGETS = (
    ("tweetpipe.firehose", "FirehoseEngine.search", "firehose.search"),
    ("tweetpipe.firehose", "TweetFactory.make", "firehose.make"),
    ("tweetpipe.crawler", "SearchClient.search", "crawler.page"),
    ("tweetpipe.crawler", "HourlyRecordWriter.write_page", "crawler.write_page"),
    ("tweetpipe.crawler", "encode_record", "codec.encode"),
    ("tweetpipe.processor", "decode_record", "codec.decode"),
    ("tweetpipe.processor", "Gazetteer.lookup", "processor.lookup"),
    ("tweetpipe.cli", "run_crawl", "crawler.run_crawl"),
    ("tweetpipe.cli", "process_file", "processor.process_file"),
    ("tweetpipe.cli", "analyze", "analyzer.analyze"),
    ("tweetpipe.cli", "write_csv", "analyzer.write_csv"),
    ("tweetpipe.cli", "prune", "pruner.prune"),
    ("tweetpipe.gateway", "PrivacyGateway.pseudonymize", "gateway.pseudonymize"),
    ("tweetpipe.gateway", "PrivacyGateway.dispatch", "gateway.dispatch"),
    ("tweetpipe.gateway", "PrivacyGateway.remap", "gateway.remap"),
    ("tweetpipe.gateway", "Vault.__init__", "vault.open"),
    ("tweetpipe.gateway", "Vault.register", "vault.register"),
    ("tweetpipe.gateway", "Vault.erase", "vault.erase"),
    ("tweetpipe.gateway", "CategoryRules.categories_for", "gateway.categorize"),
    ("tweetpipe.gateway", "DirectorySink.deliver", "gateway.deliver"),
    ("tweetpipe.ledger", "ComplianceLedger.__init__", "ledger.open"),
    ("tweetpipe.ledger", "ComplianceLedger.record", "ledger.record"),
    ("tweetpipe.ledger", "ComplianceLedger.transparency_report", "ledger.report"),
)


def install(recorder: Recorder) -> None:
    """Wrap every target, plus ``os.fsync`` as ``tweetpipe.ledger`` calls it."""

    def crawl_counters(stats) -> None:
        recorder.counters["crawler.tweets_seen"] += stats.tweets_seen
        recorder.counters["crawler.tweets_kept"] += stats.tweets_kept
        recorder.counters["crawler.request_failures"] += stats.request_failures

    def process_counters(result) -> None:
        records, skipped = result
        recorder.counters["processor.records"] += len(records)
        recorder.counters["processor.skipped"] += skipped

    hooks = {"crawler.run_crawl": crawl_counters, "processor.process_file": process_counters}
    for module_name, attr, span in TARGETS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, recorder.wrap(span, getattr(owner, name), hooks.get(span)))

    ledger = importlib.import_module("tweetpipe.ledger")
    ledger.os = _OsProxy(os, recorder.wrap("ledger.fsync", os.fsync))


def main(argv: list[str]) -> int:
    spans_path, target, *args = argv
    recorder = Recorder()
    install(recorder)
    if target == "tweetpipe":
        from tweetpipe.cli import main as entry
    elif target == "erase_remap":
        from erase_remap import main as entry
    else:
        raise SystemExit(f"unknown trace target {target!r}")
    try:
        return entry(args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
