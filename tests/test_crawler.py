"""Crawl loop tests: filtering, throttling, dedup, retry, file output."""

import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tweetpipe.clock import VirtualClock
from tweetpipe.codec import TweetRecord, decode_record
from tweetpipe.crawler import (
    CrawlConfig,
    FetchError,
    HourlyRecordWriter,
    SearchClient,
    SeenIds,
    filter_reason,
    parse_status,
    prefix_text,
    run_crawl,
    throttle,
)
from tweetpipe.firehose import (
    AuthError,
    Credentials,
    FirehoseEngine,
    MockFirehoseServer,
    RATE_LIMIT_CAPACITY,
    RATE_WINDOW_MS,
    RateWindow,
    RawTweet,
)

T0 = 1_567_888_000_000


def make_tweet(**overrides):
    base = dict(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id=1170447725900742656,
        lang="en",
        location="Delhi, India",
        name="Asha Rao",
        username="asha_rao",
        text="morning chai",
        is_retweet=False,
    )
    base.update(overrides)
    return RawTweet(**base)


# ------------------------------------------------------------------ filter


@pytest.mark.parametrize(
    "location,lang,keep",
    [
        ("Delhi, India", "en", True),
        ("", "en", False),
        ("   ", "en", False),
        ("Paris, France", "und", False),
        ("Paris, France", "", False),
        ("the moon", "hi", True),  # junk locations pass; resolution is later
    ],
)
def test_filter_tweet(location, lang, keep):
    assert (filter_reason(make_tweet(location=location, lang=lang)) is None) is keep


def test_filter_reason_prefers_location():
    assert filter_reason(make_tweet(location="", lang="und")) == "no_location"
    assert filter_reason(make_tweet(lang="und")) == "no_lang"
    assert filter_reason(make_tweet()) is None


def test_prefix_text():
    assert prefix_text(make_tweet(text="hi")) == "OT hi"
    assert prefix_text(make_tweet(text="hi", is_retweet=True)) == "RT hi"
    assert prefix_text(make_tweet(text="")) == "OT "


# ---------------------------------------------------------------- throttle


def test_throttle_zero_while_quota_remains():
    window = RateWindow(window_start_ms=T0 - T0 % RATE_WINDOW_MS, used=449)
    assert throttle(window, T0) == 0


def test_throttle_waits_out_exhausted_window():
    start = (T0 // RATE_WINDOW_MS) * RATE_WINDOW_MS
    window = RateWindow(window_start_ms=start, used=RATE_LIMIT_CAPACITY)
    five_minutes_in = start + 5 * 60 * 1000
    assert throttle(window, five_minutes_in) == 10 * 60 * 1000


def test_throttle_rolls_stale_window():
    window = RateWindow(window_start_ms=0, used=RATE_LIMIT_CAPACITY)
    assert throttle(window, RATE_WINDOW_MS + 5) == 0
    assert window.used == 0


# ------------------------------------------------------------ parse_status


def test_parse_status_round_trip():
    tweet = make_tweet()
    assert parse_status(tweet.to_status()) == tweet


@pytest.mark.parametrize(
    "mangle",
    [
        lambda s: s.pop("user"),
        lambda s: s.pop("id_str"),
        lambda s: s.__setitem__("id_str", "not-a-number"),
        lambda s: s.__setitem__("user", None),
    ],
)
def test_parse_status_rejects_malformed(mangle):
    status = make_tweet().to_status()
    mangle(status)
    assert parse_status(status) is None


# ----------------------------------------------------------------- SeenIds


def test_seen_ids_detects_duplicates():
    seen = SeenIds(capacity=100)
    assert seen.add(1) is True
    assert seen.add(1) is False
    assert len(seen) == 1


def test_seen_ids_evicts_oldest_first():
    seen = SeenIds(capacity=2)
    seen.add(1)
    seen.add(2)
    seen.add(3)  # evicts 1
    assert seen.add(1) is True
    assert seen.add(3) is False


def test_seen_ids_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SeenIds(capacity=0)


# ------------------------------------------------------------------ writer


def make_record(i, text="OT hello"):
    return TweetRecord(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id=str(1170447725900742656 + i),
        lang="en",
        location="Delhi, India",
        name="Asha Rao",
        username="asha_rao",
        text=text,
    )


def test_writer_groups_pages_by_fetch_hour(tmp_path):
    hour_ms = 3_600_000
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page([make_record(1), make_record(2)], T0)
        writer.write_page([make_record(3)], T0 + hour_ms)
    assert writer.paths_written == [
        str(tmp_path / "09-07-2019" / "tweets-20 PM.txt"),
        str(tmp_path / "09-07-2019" / "tweets-21 PM.txt"),
    ]
    first = (tmp_path / "09-07-2019" / "tweets-20 PM.txt").read_text(encoding="utf-8")
    assert len(first.splitlines()) == 2
    for line in first.splitlines():
        decode_record(line)


def test_writer_skips_empty_pages(tmp_path):
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page([], T0)
    assert writer.paths_written == []
    assert list(tmp_path.iterdir()) == []


def test_writer_appends_on_reopen(tmp_path):
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page([make_record(1)], T0)
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page([make_record(2)], T0)
    path = tmp_path / "09-07-2019" / "tweets-20 PM.txt"
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


# ------------------------------------------------------------ SearchClient


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Responds with a scripted sequence of status codes, then a fixed page."""

    script: list[int] = []
    calls = 0
    page: dict = {"statuses": [], "next": "tok"}

    def do_GET(self):
        cls = type(self)
        cls.calls += 1
        if cls.script:
            code = cls.script.pop(0)
            body = b"{}"
            self.send_response(code)
        else:
            body = json.dumps(cls.page).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def scripted_server():
    handler = type("Handler", (_ScriptedHandler,), {"script": [], "calls": 0})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", handler
    finally:
        server.shutdown()
        server.server_close()


def test_client_retries_transient_errors(scripted_server):
    url, handler = scripted_server
    handler.script = [500, 503]
    client = SearchClient(url, Credentials(), VirtualClock(T0))
    statuses, token = client.search(10, None)
    client.close()
    assert (statuses, token) == ([], "tok")
    assert handler.calls == 3


def test_client_gives_up_after_retry_budget(scripted_server):
    url, handler = scripted_server
    handler.script = [500] * 10
    clock = VirtualClock(T0)
    client = SearchClient(url, Credentials(), clock)
    with pytest.raises(FetchError):
        client.search(10, None)
    client.close()
    assert handler.calls == SearchClient.MAX_RETRIES + 1
    # exponential backoff: 1 s + 2 s + 4 s of (virtual) waiting
    assert clock.now_ms() - T0 == 7000


def test_client_charges_every_wire_attempt(scripted_server):
    url, handler = scripted_server
    handler.script = [500]
    charged = []
    client = SearchClient(url, Credentials(), VirtualClock(T0), on_attempt=charged.append)
    client.search(10, None)
    client.close()
    assert len(charged) == 2


def test_client_fails_fast_when_nothing_listens():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    client = SearchClient(f"http://127.0.0.1:{port}", Credentials(), VirtualClock(T0))
    with pytest.raises(FetchError):
        client.search(10, None)
    client.close()


# --------------------------------------------------------------- run_crawl


def crawl(tmp_path, *, seed=42, duplicate_mode=False, engine_creds=None, start_ms=T0,
          **cfg_kwargs):
    engine = FirehoseEngine(
        seed=seed, credentials=engine_creds or Credentials(), duplicate_mode=duplicate_mode
    )
    with MockFirehoseServer(engine) as server:
        cfg_kwargs.setdefault("max_requests", 10)
        cfg_kwargs.setdefault("interval_ms", 2000)
        cfg = CrawlConfig(endpoint=server.url, out_dir=str(tmp_path), **cfg_kwargs)
        stats = run_crawl(cfg, clock=VirtualClock(start_ms))
    return stats


def read_crawl_lines(tmp_path):
    lines = []
    for path in sorted(tmp_path.rglob("tweets-*.txt")):
        lines.extend(path.read_text(encoding="utf-8").splitlines())
    return lines


def test_run_crawl_accounts_for_every_tweet(tmp_path):
    stats = crawl(tmp_path)
    assert stats.requests == 10
    assert stats.tweets_seen == 1000
    stats.check_identity()
    assert stats.tweets_kept == len(read_crawl_lines(tmp_path))


def test_run_crawl_output_is_clean(tmp_path):
    crawl(tmp_path)
    lines = read_crawl_lines(tmp_path)
    assert lines
    ids = set()
    for line in lines:
        rec = decode_record(line)
        assert rec.location.strip()
        assert rec.lang not in ("", "und")
        assert rec.text.startswith(("OT ", "RT "))
        assert rec.id not in ids
        ids.add(rec.id)


def test_run_crawl_drops_duplicates_without_cursor(tmp_path):
    stats = crawl(tmp_path, duplicate_mode=True, use_next=False, interval_ms=500,
                  max_requests=40)
    assert stats.duplicates_dropped > 0
    stats.check_identity()
    # every persisted id is still unique
    lines = read_crawl_lines(tmp_path)
    ids = [decode_record(line).id for line in lines]
    assert len(ids) == len(set(ids))


def test_run_crawl_cursor_avoids_duplicates(tmp_path):
    stats = crawl(tmp_path, duplicate_mode=True, use_next=True, interval_ms=2000,
                  max_requests=40)
    assert stats.duplicates_dropped == 0


def test_run_crawl_waits_out_rate_limit(tmp_path):
    # start on a window boundary so all 450 requests land in one window
    aligned = (T0 // RATE_WINDOW_MS) * RATE_WINDOW_MS
    stats = crawl(tmp_path, interval_ms=500, max_requests=RATE_LIMIT_CAPACITY + 10,
                  start_ms=aligned)
    assert stats.requests == RATE_LIMIT_CAPACITY + 10
    assert stats.rate_limit_waits >= 1
    assert stats.tweets_seen == (RATE_LIMIT_CAPACITY + 10) * 100


def test_run_crawl_rejects_bad_credentials(tmp_path):
    with pytest.raises(AuthError):
        crawl(tmp_path, engine_creds=Credentials(app_key="k", app_secret="s"))


def test_run_crawl_survives_unreachable_endpoint(tmp_path):
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    cfg = CrawlConfig(
        endpoint=f"http://127.0.0.1:{port}", out_dir=str(tmp_path), max_requests=2
    )
    stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.request_failures == 2
    assert stats.tweets_seen == 0


def test_malformed_status_log_carries_no_identifier(scripted_server, tmp_path, caplog):
    url, handler = scripted_server
    tweet = make_tweet(username="zq_hidden_handle", name="Zq Hidden Name", location="Zqville")
    status = tweet.to_status()
    del status["lang"]
    handler.page = {"statuses": [status], "next": "tok"}
    cfg = CrawlConfig(endpoint=url, out_dir=str(tmp_path), max_requests=1)
    with caplog.at_level(logging.DEBUG, logger="tweetpipe"):
        stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.tweets_seen == 0
    assert "malformed status skipped" in caplog.text
    for value in (tweet.username, tweet.name, tweet.location, str(tweet.id), tweet.text):
        assert value not in caplog.text


def test_run_crawl_respects_duration(tmp_path):
    engine = FirehoseEngine(seed=1, credentials=Credentials())
    with MockFirehoseServer(engine) as server:
        cfg = CrawlConfig(endpoint=server.url, out_dir=str(tmp_path),
                          interval_ms=2000, duration_ms=20_000)
        stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.requests == 10


def test_config_validation():
    with pytest.raises(ValueError):
        CrawlConfig(endpoint="http://x", interval_ms=0, max_requests=1)
    with pytest.raises(ValueError):
        CrawlConfig(endpoint="http://x", page_count=101, max_requests=1)
    with pytest.raises(ValueError):
        CrawlConfig(endpoint="http://x")  # no stopping condition
