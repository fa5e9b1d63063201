"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE nn PASS/FAIL` line (visible with -s, or
in the captured output on failure); `pytest -v` additionally shows one
pass/fail line per criterion via the test names. The criteria are
numbered 01-10; number 10 asserts the wall-clock budget for the whole
module and therefore runs last.
"""

import datetime as dt
import json
import random
import re
import time
from types import SimpleNamespace

import pytest

from tweetpipe.analyzer import AnalysisRow, BUILTIN_SPECS, analyze, sort_rows
from tweetpipe.clock import VirtualClock
from tweetpipe.codec import (
    FileLocator,
    TweetRecord,
    crawl_file_path,
    decode_record,
    encode_record,
    processed_file_path,
    sanitize_field,
)
from tweetpipe.crawler import CrawlConfig, parse_status, run_crawl
from tweetpipe.firehose import (
    Credentials,
    FirehoseEngine,
    RATE_LIMIT_CAPACITY,
    RATE_WINDOW_MS,
    RateLimitError,
    TweetFactory,
)
from tweetpipe.gateway import (
    CATEGORIES,
    DirectorySink,
    PrivacyGateway,
    Recommendation,
    ServiceRegistry,
    UnknownCodeError,
    Vault,
    user_key_for,
)
from tweetpipe.ledger import ComplianceLedger
from tweetpipe.mockserver import MockFirehoseServer, status_json
from tweetpipe.processor import ProcessedTweet, default_gazetteer
from tweetpipe.pruner import ORDER_COUNT_DESC, ORDER_KEY_ASC, prune

MODULE_STARTED = time.monotonic()
RUNTIME_BUDGET_S = 300.0

# window-aligned virtual start: 2019-09-07 20:15:00 UTC
T0 = (1_567_888_000_000 // RATE_WINDOW_MS) * RATE_WINDOW_MS
CREDS = Credentials()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def timed_crawl(out_dir, **kwargs):
    engine_kwargs = {
        "seed": kwargs.pop("seed", 42),
        "duplicate_mode": kwargs.pop("duplicate_mode", False),
    }
    started = time.monotonic()
    with MockFirehoseServer(FirehoseEngine(**engine_kwargs)) as server:
        cfg = CrawlConfig(endpoint=server.url, out_dir=str(out_dir), **kwargs)
        stats = run_crawl(cfg, clock=VirtualClock(T0))
    return SimpleNamespace(
        stats=stats, out=out_dir, elapsed=time.monotonic() - started
    )


@pytest.fixture(scope="module")
def dup_run(tmp_path_factory):
    """200 rapid cursorless polls against the duplicate-serving engine."""
    return timed_crawl(
        tmp_path_factory.mktemp("dup_run"),
        duplicate_mode=True, use_next=False, interval_ms=500, max_requests=200,
    )


@pytest.fixture(scope="module")
def next_run(tmp_path_factory):
    """200 spaced, token-following polls against the same engine pathology."""
    return timed_crawl(
        tmp_path_factory.mktemp("next_run"),
        duplicate_mode=True, use_next=True, interval_ms=2000, max_requests=200,
    )


@pytest.fixture(scope="module")
def hour_run(tmp_path_factory):
    """One full virtual hour at the sustainable request cadence."""
    return timed_crawl(
        tmp_path_factory.mktemp("hour_run"),
        use_next=True, interval_ms=2000, duration_ms=3_600_000,
    )


def crawl_lines(run):
    lines = []
    for path in sorted(run.out.rglob("tweets-*.txt")):
        lines.extend(path.read_text(encoding="utf-8").splitlines())
    return lines


# --------------------------------------------------------------- criteria


def test_criterion_01_duplicate_pathology(dup_run, next_run):
    ok = (
        dup_run.stats.duplicates_dropped > 0
        and next_run.stats.duplicates_dropped == 0
        and next_run.stats.tweets_seen >= 20_000
        and dup_run.elapsed + next_run.elapsed < 30.0
    )
    report(
        1, ok,
        f"rapid cursorless polling dropped {dup_run.stats.duplicates_dropped} duplicates; "
        f"spaced token-following polling dropped {next_run.stats.duplicates_dropped} "
        f"over {next_run.stats.tweets_seen} tweets "
        f"({dup_run.elapsed + next_run.elapsed:.1f}s)",
    )


def test_criterion_02_rate_limit_exactness():
    started = time.monotonic()
    engine = FirehoseEngine(seed=7)

    def burst(now_ms: int, attempts: int) -> int:
        granted = 0
        for _ in range(attempts):
            try:
                engine.search(CREDS, count=1, now_ms=now_ms)
                granted += 1
            except RateLimitError:
                pass
        return granted

    single = burst(T0, 1000)
    quad = sum(burst(T0 + w * RATE_WINDOW_MS, 1000) for w in range(1, 5))
    elapsed = time.monotonic() - started
    ok = single == 450 and quad == 1800 and elapsed < 5.0
    report(
        2, ok,
        f"1000 same-window attempts -> {single} granted; "
        f"4 windows -> {quad} granted ({elapsed:.1f}s)",
    )


def test_criterion_03_throughput_ceiling(hour_run):
    per_hour = RATE_LIMIT_CAPACITY * (3_600_000 // RATE_WINDOW_MS) * 100
    eight_days = 8 * 24 * per_hour
    achieved = hour_run.stats.tweets_seen
    ok = (
        per_hour == 180_000
        and eight_days == 34_560_000
        and eight_days >= 30_000_000
        and achieved >= 0.95 * per_hour
        and achieved <= per_hour
        and hour_run.elapsed < 60.0
    )
    report(
        3, ok,
        f"ceiling {per_hour}/hour, {eight_days} per 8 days; one virtual hour "
        f"fetched {achieved} ({achieved / per_hour:.1%} of ceiling, "
        f"{hour_run.elapsed:.1f}s)",
    )


def test_criterion_04_codec_round_trip(dup_run, next_run, hour_run):
    rng = random.Random(0xFEED)
    pieces = [
        "tea", "Delhi", "café", "<8>", "a\nb", "x\r\ny", "  pad  ", "#tag",
        "@user", "naïve", "8>", "<8", "comma, stop; done", "…ellipsis",
        "tab\tstays", "<8><8><8>", "line one\nline two\r\nline three",
    ]

    def junk(min_pieces=1):
        return sanitize_field(
            " ".join(rng.choice(pieces) for _ in range(rng.randrange(min_pieces, 6)))
        )

    survived = 0
    for _ in range(10_000):
        record = TweetRecord(
            creation_date=junk(), id=str(rng.randrange(1, 10**19)), lang=junk(),
            location=junk(min_pieces=2), name=junk(), username=junk(), text=junk(),
        )
        if TweetRecord(*decode_record(encode_record(record))) == record:
            survived += 1

    persisted = 0
    for run in (dup_run, next_run, hour_run):
        for line in crawl_lines(run):
            decode_record(line)  # FieldCountError would fail the test
            persisted += 1

    ok = survived == 10_000 and persisted > 0
    report(
        4, ok,
        f"{survived}/10000 randomized records round-tripped exactly; "
        f"{persisted} persisted lines decoded",
    )


def test_criterion_05_byte_exact_paths():
    evening = FileLocator.from_timestamp_ms(1_567_887_243_000)
    morning = FileLocator.from_timestamp_ms(1_567_922_400_000)
    crawl_path = crawl_file_path(evening)
    processed_path = processed_file_path(morning)
    ok = (
        evening == FileLocator(dt.date(2019, 9, 7), 20)
        and crawl_path == "./data/09-07-2019/tweets-20 PM.txt"
        and processed_path == "./data/09-08-2019-tweets-06 AM.json"
    )
    report(5, ok, f"{crawl_path!r} and {processed_path!r}")


def test_criterion_06_filtering_and_stats_identity(dup_run, next_run, hour_run):
    dirty = 0
    checked = 0
    for run in (dup_run, next_run, hour_run):
        lines = crawl_lines(run)
        for line in lines:
            record = TweetRecord(*decode_record(line))
            checked += 1
            if not record.location.strip() or record.lang in ("", "und"):
                dirty += 1
        s = run.stats
        identity = (
            s.tweets_kept + s.duplicates_dropped
            + s.filtered_no_location + s.filtered_no_lang
        )
        assert identity == s.tweets_seen, f"stats identity broken: {s}"
        assert s.tweets_kept == len(lines), "persisted lines != tweets_kept"
    ok = dirty == 0 and checked > 0
    report(6, ok, f"{checked} persisted records, {dirty} with blank location or 'und' lang; "
                  f"stats identity held on all three runs")


def to_processed(raw, gazetteer):
    """The record the crawler would store for raw, with its location verdict."""
    values, _line = parse_status(json.loads(status_json(raw)))
    record = TweetRecord(*values)
    return ProcessedTweet(*record.fields(), *gazetteer.lookup(record.location))


def test_criterion_07_no_identifier_leaks(tmp_path):
    factory = TweetFactory(seed=0xACE)
    gazetteer = default_gazetteer()
    records = []
    seen_keys = set()
    while len(records) < 1000:
        raw = factory.make(T0)
        key = user_key_for(raw.username, str(raw.id))
        if key in seen_keys:
            continue
        seen_keys.add(key)
        records.append(to_processed(raw, gazetteer))

    registry = ServiceRegistry()
    for category in CATEGORIES:
        registry.add(category, DirectorySink(tmp_path / category),
                     beneficiary=f"svc-{category}")

    vault = Vault(tmp_path / "vault.jsonl", clock=VirtualClock(T0))
    ledger = ComplianceLedger(tmp_path / "ledger.jsonl", clock=VirtualClock(T0))
    gateway = PrivacyGateway(vault, ledger)
    with vault, ledger, registry:
        # dispatch_feed, the path `tweetpipe gateway` runs, enrols the whole
        # feed before the first bundle leaves the gateway
        dispatched = gateway.dispatch_feed(records, registry)

    haystack = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8")
    for category in CATEGORIES:
        bundle_file = tmp_path / category / "bundles.jsonl"
        if bundle_file.exists():
            haystack += bundle_file.read_text(encoding="utf-8")

    leaks = 0
    for record in records:
        for identifier in (record.username, record.name, record.id):
            if identifier in haystack:
                leaks += 1
    ok = leaks == 0 and dispatched >= 1000 and len(ledger) == dispatched
    report(
        7, ok,
        f"1000 users, {dispatched} bundles dispatched, {leaks} identifier "
        f"occurrences in sink files and ledger",
    )


def test_criterion_08_remap_inversion_and_erasure(tmp_path):
    vault = Vault(tmp_path / "vault.jsonl", clock=VirtualClock(T0))
    ledger = ComplianceLedger(tmp_path / "ledger.jsonl", clock=VirtualClock(T0),
                              fsync=False)
    gateway = PrivacyGateway(vault, ledger)
    users = [f"caller{i:05d}:{10**18 + i}" for i in range(10_000)]

    inverted = 0
    with vault, ledger:
        codes = {user: gateway.register_user(user) for user in users}
        for user, code in codes.items():
            rec = Recommendation(code=code, category="demographic_social", item="thing")
            if gateway.remap(rec) == (user, "thing"):
                inverted += 1

        for user in users:
            gateway.erase_user(user)

        unresolvable = 0
        for user, code in codes.items():
            try:
                gateway.remap(Recommendation(code=code, category="food", item="x"))
            except UnknownCodeError:
                unresolvable += 1

    ok = inverted == 10_000 and unresolvable == 10_000
    report(
        8, ok,
        f"{inverted}/10000 recommendations remapped to the right user; "
        f"{unresolvable}/10000 unresolvable after erasure",
    )


def test_criterion_09_analysis_matches_brute_force():
    factory = TweetFactory(seed=0xBEE)
    gazetteer = default_gazetteer()
    records = [to_processed(factory.make(T0), gazetteer) for _ in range(1000)]

    def rows_from(counts: dict) -> list[AnalysisRow]:
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [AnalysisRow(key, count) for key, count in ordered]

    lang_counts: dict = {}
    country_counts: dict = {}
    hashtag_counts: dict = {}
    mention_counts: dict = {}
    for r in records:
        lang_counts[r.lang] = lang_counts.get(r.lang, 0) + 1
        if r.country is not None:
            country_counts[r.country] = country_counts.get(r.country, 0) + 1
        for tag in re.findall(r"#\w+", r.text):
            hashtag_counts[tag] = hashtag_counts.get(tag, 0) + 1
        for handle in re.findall(r"@\w+", r.text):
            mention_counts[handle] = mention_counts.get(handle, 0) + 1

    expected = {
        "builtin_lang": rows_from(lang_counts),
        "builtin_country": rows_from(country_counts),
        "builtin_hashtag": rows_from(hashtag_counts),
        "builtin_mention": rows_from(mention_counts),
    }
    actual = {name: sort_rows(counts) for name, counts in analyze(records, BUILTIN_SPECS).items()}
    analyses_equal = actual == expected

    prune_checks = 0
    prune_equal = 0
    for rows in actual.values():
        for limit in (1, 5, 100):
            prune_checks += 2
            desc = sorted(rows, key=lambda r: (-r.count, r.key))[:limit]
            if prune(rows, limit, ORDER_COUNT_DESC) == desc:
                prune_equal += 1
            by_key = sorted(rows, key=lambda r: (r.key, -r.count))[:limit]
            if prune(rows, limit, ORDER_KEY_ASC) == by_key:
                prune_equal += 1

    ok = analyses_equal and prune_equal == prune_checks
    report(
        9, ok,
        f"4 analyses over 1000 records match the brute-force recount exactly; "
        f"{prune_equal}/{prune_checks} prune outputs match the oracle",
    )


def test_criterion_10_runtime_budget():
    elapsed = time.monotonic() - MODULE_STARTED
    ok = elapsed < RUNTIME_BUDGET_S
    report(10, ok, f"criteria 01-09 finished in {elapsed:.1f}s (budget {RUNTIME_BUDGET_S:.0f}s)")
