"""Crawl loop tests: filtering, throttling, dedup, retry, file output."""

import json
import logging
import socket
import threading
import tracemalloc
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from tweetpipe import crawler
from tweetpipe.cli import main
from tweetpipe.clock import VirtualClock
from tweetpipe.codec import TweetRecord, decode_record, encode_record, sanitize_field
from tweetpipe.crawler import (
    CrawlConfig,
    CrawlStats,
    FetchError,
    HourlyRecordWriter,
    SearchClient,
    SeenIds,
    page_lines,
    parse_status,
    run_crawl,
    throttle,
)
from tweetpipe.firehose import (
    AuthError,
    BadTokenError,
    Credentials,
    FirehoseEngine,
    MAX_PAGE_SIZE,
    RATE_LIMIT_CAPACITY,
    RATE_WINDOW_MS,
    RateLimitError,
    RateWindow,
    RawTweet,
)
from tweetpipe.mockserver import MockFirehoseServer, _Handler, status_json

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


def status_of(tweet):
    """The status object the mock search API sends for tweet."""
    return json.loads(status_json(tweet))


def parsed_record(tweet):
    """The record parse_status makes of tweet's status."""
    values, _line = parse_status(status_of(tweet))
    return TweetRecord(*values)


# ------------------------------------------------------------------ filter


def crawl_page(scripted_server, tmp_path, statuses):
    """Crawl one page serving the statuses; (stats, stored records)."""
    url, handler = scripted_server
    handler.page = {"statuses": statuses, "next": "tok"}
    cfg = CrawlConfig(endpoint=url, out_dir=str(tmp_path), max_requests=1)
    stats = run_crawl(cfg, clock=VirtualClock(T0))
    return stats, [TweetRecord(*decode_record(line)) for line in read_crawl_lines(tmp_path)]


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
def test_filter_tweet(scripted_server, tmp_path, location, lang, keep):
    stats, records = crawl_page(scripted_server, tmp_path,
                                [status_of(make_tweet(location=location, lang=lang))])
    assert stats.tweets_seen == 1
    assert (stats.tweets_kept == 1) is keep
    assert len(records) == stats.tweets_kept


def test_filter_reason_prefers_location(scripted_server, tmp_path):
    tweets = [make_tweet(id=1, location="", lang="und"), make_tweet(id=2, lang="und"),
              make_tweet(id=3)]
    stats, records = crawl_page(scripted_server, tmp_path, [status_of(t) for t in tweets])
    assert (stats.filtered_no_location, stats.filtered_no_lang, stats.tweets_kept) == (1, 1, 1)
    assert [r.id for r in records] == ["3"]


def test_prefix_text():
    assert parsed_record(make_tweet(text="hi")).text == "OT hi"
    assert parsed_record(make_tweet(text="hi", is_retweet=True)).text == "RT hi"
    # The prefix is sanitized with the text, so its space goes when the text is empty.
    assert parsed_record(make_tweet(text="")).text == "OT"


# ------------------------------------------- one check per status, vs reference


def reference_page_lines(statuses, seen, stats):
    """The crawl's page path before each line was checked once: every
    field through sanitize_field, then encode_record on each kept record."""
    lines = []
    for status in statuses:
        try:
            user = status["user"]
            id_str, retweet = status["id_str"], status["retweeted_status_present"]
            if not (isinstance(id_str, str) and id_str.isascii() and id_str.isdigit()
                    and isinstance(retweet, bool)):
                continue
            location, lang = user["location"], status["lang"]
            record = TweetRecord(
                creation_date=sanitize_field(status["created_at"]),
                id=str(int(id_str)),
                lang=sanitize_field("" if lang is None else lang),
                location=sanitize_field("" if location is None else location),
                name=sanitize_field(user["name"]),
                username=sanitize_field(user["screen_name"]),
                text=sanitize_field(("RT " if retweet else "OT ") + status["text"]),
            )
        except (KeyError, TypeError, ValueError):
            continue
        stats.tweets_seen += 1
        if not record.location:
            stats.filtered_no_location += 1
        elif record.lang in ("", "und"):
            stats.filtered_no_lang += 1
        elif not seen.add(int(record.id)):
            stats.duplicates_dropped += 1
        else:
            lines.append(encode_record(record))
            stats.tweets_kept += 1
    return lines


# Pieces that sanitize_field changes or that sit next to what it changes:
# line breaks, the delimiter and its halves, whitespace that str.strip
# removes (tabs, the \x1c-\x1f separators, NEL, the line separator, the
# ideographic space) and plain text.
PIECES = st.sampled_from([
    "\r\n", "\r", "\n", "<8>", "<8", "8>", "<", ">", " ", "\t", "\x1c", "\x1d", "\x1e",
    "\x1f", "\x85", "\u2028", "\u3000", "\xa0", "a", "und", "é", "Delhi",
])
FIELD = st.one_of(st.sampled_from(["", "en", "und", "Delhi, India", "two words"]),
                  st.lists(PIECES, max_size=5).map("".join), st.text(max_size=4))
RARE = st.sampled_from([False] * 29 + [True])
NOT_A_STRING = st.one_of(st.none(), st.integers(), st.booleans(), st.just(["a"]), st.just({}))


@st.composite
def wire_statuses(draw):
    """A status as the API might send it: edgy field text, a null lang or
    location, now and then a field of the wrong type, a retweet flag that
    is no boolean or an id_str that is not plain digits."""

    def rarely(common, rare):
        return draw(rare if draw(RARE) else common)

    def field(nullable=False):
        return rarely(st.one_of(st.none(), FIELD) if nullable else FIELD, NOT_A_STRING)

    status = {
        "created_at": field(),
        "id_str": rarely(st.integers(0, 30).map(str),
                         st.sampled_from(["007", "-5", "", " 5", "1_0", "\u0665"])),
        "lang": field(nullable=True),
        "user": {"location": field(nullable=True), "name": field(), "screen_name": field()},
        "text": field(),
        "retweeted_status_present": rarely(st.booleans(), st.sampled_from([0, 1, None, "no"])),
    }
    if draw(RARE):
        del status[draw(st.sampled_from(sorted(status)))]
    return status


DEDUP_TEST_CAPACITY = 8  # small, so that eviction happens too


@settings(max_examples=300)
@given(st.lists(st.lists(wire_statuses(), max_size=6), max_size=4))
def test_page_lines_match_the_sanitize_then_encode_reference(pages):
    seen, stats = SeenIds(DEDUP_TEST_CAPACITY), CrawlStats()
    ref_seen, ref_stats = SeenIds(DEDUP_TEST_CAPACITY), CrawlStats()
    for statuses in pages:
        assert page_lines(statuses, seen, stats) == reference_page_lines(
            statuses, ref_seen, ref_stats)
    assert stats == ref_stats


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
    expected = TweetRecord(
        creation_date=tweet.creation_date,
        id=str(tweet.id),
        lang=tweet.lang,
        location=tweet.location,
        name=tweet.name,
        username=tweet.username,
        text="OT " + tweet.text,
    )
    assert parsed_record(tweet) == expected
    # A status that needs no sanitizing comes with its line.
    assert parse_status(status_of(tweet))[1] == encode_record(expected)


def test_parse_status_sanitizes_every_field():
    tweet = make_tweet(
        creation_date=" Sat Sep 07\n", lang="en ", location="  Delhi<8>India\r\n",
        name="Asha\nRao ", username=" asha<8>", text="two\r\nlines <8>", is_retweet=True,
    )
    assert parsed_record(tweet) == TweetRecord(
        creation_date="Sat Sep 07", id=str(tweet.id), lang="en", location="Delhi<8 >India",
        name="Asha Rao", username="asha<8 >", text="RT two lines <8 >",
    )
    # Its line is left to encode_record.
    assert parse_status(status_of(tweet))[1] is None


@pytest.mark.parametrize(
    "mangle",
    [
        lambda s: s.pop("user"),
        lambda s: s.pop("id_str"),
        lambda s: s.__setitem__("id_str", "not-a-number"),
        lambda s: s.__setitem__("user", None),
        lambda s: s.__setitem__("id_str", "-5"),
        lambda s: s.__setitem__("id_str", "1_000"),
        lambda s: s.__setitem__("id_str", "\u0665"),  # ARABIC-INDIC DIGIT FIVE
        lambda s: s.__setitem__("id_str", ""),
        lambda s: s.__setitem__("id_str", " 5"),
        lambda s: s.__setitem__("id_str", 5),
        lambda s: s.pop("retweeted_status_present"),
        lambda s: s.__setitem__("id_str", "1" * 5000),  # past int()'s digit limit
    ],
)
def test_parse_status_rejects_malformed(mangle):
    status = status_of(make_tweet())
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


class ReferenceSeenIds:
    """The OrderedDict form SeenIds replaced: the model it must match."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._seen = OrderedDict()

    def add(self, tweet_id):
        if tweet_id in self._seen:
            return False
        self._seen[tweet_id] = None
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return True

    def __len__(self):
        return len(self._seen)


@given(capacity=st.integers(1, 5),
       ids=st.lists(st.one_of(st.integers(0, 8), st.integers(2**63, 2**63 + 2)), max_size=60))
def test_seen_ids_matches_the_ordered_dict_reference(capacity, ids):
    seen, model = SeenIds(capacity), ReferenceSeenIds(capacity)
    for tweet_id in ids:
        assert seen.add(tweet_id) == model.add(tweet_id)
        assert len(seen) == len(model)


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


def lines_of(*records):
    return [encode_record(r) for r in records]


def test_writer_groups_pages_by_fetch_hour(tmp_path):
    hour_ms = 3_600_000
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page(lines_of(make_record(1), make_record(2)), T0)
        writer.write_page(lines_of(make_record(3)), T0 + hour_ms)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.txt")) == [
        "09-07-2019/tweets-20 PM.txt",
        "09-07-2019/tweets-21 PM.txt",
    ]
    first = (tmp_path / "09-07-2019" / "tweets-20 PM.txt").read_text(encoding="utf-8")
    assert [TweetRecord(*decode_record(line)).id for line in first.splitlines()] == [
        make_record(1).id, make_record(2).id]
    second = (tmp_path / "09-07-2019" / "tweets-21 PM.txt").read_text(encoding="utf-8")
    assert [TweetRecord(*decode_record(line)).id for line in second.splitlines()] == [
        make_record(3).id]


def test_writer_skips_empty_pages(tmp_path):
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page([], T0)
    assert list(tmp_path.iterdir()) == []


def test_writer_appends_on_reopen(tmp_path):
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page(lines_of(make_record(1)), T0)
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page(lines_of(make_record(2)), T0)
    path = tmp_path / "09-07-2019" / "tweets-20 PM.txt"
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


def test_resumed_crawl_cuts_a_torn_record_at_every_byte(tmp_path, caplog):
    path = tmp_path / "09-07-2019" / "tweets-20 PM.txt"
    first, second, third = make_record(1), make_record(2, text="OT café ☃ 😀"), make_record(3)
    with HourlyRecordWriter(str(tmp_path)) as writer:
        writer.write_page(lines_of(first, second), T0)
    data = path.read_bytes()
    head = data[:data.index(b"\n") + 1]
    last = data[len(head):]
    assert len(last.decode("utf-8")) < len(last)  # some cuts split a UTF-8 sequence
    for cut in range(1, len(last)):
        path.write_bytes(head + last[:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tweetpipe"):
            with HourlyRecordWriter(str(tmp_path)) as writer:
                writer.write_page(lines_of(third), T0)
        expected = f"{path}: skipping a torn final line at byte {len(head)}"
        assert [r.getMessage() for r in caplog.records] == [expected]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [TweetRecord(*decode_record(line)) for line in lines] == [first, third]


# ------------------------------------------------------------ SearchClient


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Responds with a scripted sequence of status codes, each alone (with
    body {}) or paired with a body and optionally a dict of extra response
    headers, then a fixed page."""

    script: list[int | tuple[int, bytes] | tuple[int, bytes, dict]] = []
    calls = 0
    page: dict = {"statuses": [], "next": "tok"}

    def do_GET(self):
        cls = type(self)
        cls.calls += 1
        headers: dict = {}
        if cls.script:
            step = cls.script.pop(0)
            code, body, *extra = step if isinstance(step, tuple) else (step, b"{}")
            headers = extra[0] if extra else {}
            self.send_response(code)
        else:
            body = json.dumps(cls.page).encode()
            self.send_response(200)
        for name, value in headers.items():
            self.send_header(name, value)
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
    statuses, token = client.search(None)
    client.close()
    assert (statuses, token) == ([], "tok")
    assert handler.calls == 3


def test_client_gives_up_after_retry_budget(scripted_server):
    url, handler = scripted_server
    handler.script = [500] * 10
    clock = VirtualClock(T0)
    client = SearchClient(url, Credentials(), clock)
    with pytest.raises(FetchError):
        client.search(None)
    client.close()
    assert handler.calls == SearchClient.MAX_RETRIES + 1
    # exponential backoff: 1 s + 2 s + 4 s of (virtual) waiting
    assert clock.now_ms() - T0 == 7000


def test_client_charges_every_wire_attempt(scripted_server):
    url, handler = scripted_server
    handler.script = [500]
    client = SearchClient(url, Credentials(), VirtualClock(T0))
    client.search(None)
    client.close()
    assert client.window.used == 2


@pytest.mark.parametrize("body", [b"not json", b"[]", b"null", b'{"statuses": 5}'])
def test_client_retries_a_200_that_is_not_a_search_page(scripted_server, body):
    url, handler = scripted_server
    handler.script = [(200, body)]
    clock = VirtualClock(T0)
    client = SearchClient(url, Credentials(), clock)
    assert client.search(None) == ([], "tok")
    client.close()
    assert handler.calls == 2
    assert clock.now_ms() - T0 == SearchClient.BACKOFF_START_MS


LEAKY_ERROR_BODY = b'{"error": "bad key for @pixel4242 Alice Chen"}'


@pytest.mark.parametrize("code,error", [(401, AuthError), (400, BadTokenError)])
def test_client_maps_error_status_whatever_the_body(scripted_server, code, error):
    url, handler = scripted_server
    handler.script = [(code, b"[]"), (code, LEAKY_ERROR_BODY)]
    client = SearchClient(url, Credentials(), VirtualClock(T0))
    for _ in range(2):  # one request per scripted body
        with pytest.raises(error) as exc_info:
            client.search(None)
        # The message carries the status, never the server's text.
        assert str(exc_info.value).endswith(f"(HTTP {code})")
        assert "pixel4242" not in str(exc_info.value) and "Alice" not in str(exc_info.value)
    client.close()
    assert handler.calls == 2


def test_crawl_cli_prints_no_server_text_on_a_401(scripted_server, tmp_path, capsys):
    url, handler = scripted_server
    handler.script = [(401, LEAKY_ERROR_BODY)]
    assert main(["--data-dir", str(tmp_path), "--virtual-clock", str(T0),
                 "crawl", "--endpoint", url, "--max-requests", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "401" in err
    assert "pixel4242" not in err and "Alice Chen" not in err


WINDOW_END = (T0 // RATE_WINDOW_MS + 1) * RATE_WINDOW_MS


@pytest.mark.parametrize("body,headers,reset_at", [
    (b'{"reset_at_ms": %d}' % (T0 + 5000), {}, T0 + 5000),
    (b"{}", {"x-rate-limit-reset-ms": str(T0 + 5000)}, T0 + 5000),
    (b'{"reset_at_ms": "soon"}', {"x-rate-limit-reset-ms": str(T0 + 5000)}, T0 + 5000),
    (b"{}", {}, WINDOW_END),
    (b"{}", {"x-rate-limit-reset-ms": "soon"}, WINDOW_END),
    (b"{}", {"x-rate-limit-reset-ms": "0"}, WINDOW_END),
    (b"{}", {"x-rate-limit-reset-ms": str(T0)}, WINDOW_END),
    (b'{"reset_at_ms": 0}', {"x-rate-limit-reset-ms": ""}, WINDOW_END),
    (b'{"reset_at_ms": Infinity}', {}, WINDOW_END),
    (b"[]", {"x-rate-limit-reset-ms": "1e99"}, WINDOW_END),
    (b"{}", {"x-rate-limit-reset-ms": str(T0 + 10**12)}, WINDOW_END),
    (b"{}", {"x-rate-limit-reset-ms": str(T0 + RATE_WINDOW_MS)}, T0 + RATE_WINDOW_MS),
], ids=["body", "header", "bad-body-good-header", "missing", "malformed", "zero", "now",
        "past-body-empty-header", "infinite", "not-an-object", "far-future", "one-window"])
def test_client_reset_falls_back_to_the_window_boundary(scripted_server, body, headers,
                                                        reset_at):
    url, handler = scripted_server
    handler.script = [(429, body, headers)]
    client = SearchClient(url, Credentials(), VirtualClock(T0))
    with pytest.raises(RateLimitError) as exc_info:
        client.search(None)
    client.close()
    assert exc_info.value.reset_at_ms == reset_at


@pytest.mark.parametrize("reset", ["0", "soon", str(T0 + 10**12)])
def test_run_crawl_waits_out_a_429_whose_reset_is_unusable(scripted_server, tmp_path, reset):
    url, handler = scripted_server
    handler.script = [(429, b"{}", {"x-rate-limit-reset-ms": reset})] * RATE_LIMIT_CAPACITY
    cfg = CrawlConfig(endpoint=url, out_dir=str(tmp_path), duration_ms=60_000)
    clock = VirtualClock(T0)
    stats = run_crawl(cfg, clock=clock)
    # The window ends more than 60 s after T0: one request, then one wait.
    assert WINDOW_END - T0 > cfg.duration_ms
    assert (stats.requests, stats.rate_limit_waits, handler.calls) == (1, 1, 1)
    assert clock.now_ms() == WINDOW_END


def test_client_fails_fast_when_nothing_listens():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    client = SearchClient(f"http://127.0.0.1:{port}", Credentials(), VirtualClock(T0))
    with pytest.raises(FetchError):
        client.search(None)
    client.close()


@pytest.mark.parametrize("endpoint", ["127.0.0.1:8080", "ftp://127.0.0.1", "http://"])
def test_client_rejects_endpoint_that_is_not_an_http_url(endpoint):
    with pytest.raises(ValueError):
        SearchClient(endpoint, Credentials(), VirtualClock(T0))


class _DroppingHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 server that drops each connection after its response
    without a ``Connection: close`` header, as a server reaping idle
    keep-alive connections does."""

    protocol_version = "HTTP/1.1"
    calls = 0
    dropped: threading.Semaphore

    def do_GET(self):
        type(self).calls += 1
        body = json.dumps({"statuses": [], "next": "tok"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True
        self.connection.shutdown(socket.SHUT_RDWR)
        type(self).dropped.release()

    def log_message(self, *args):
        pass


def test_client_reconnects_without_retry_when_server_dropped_idle_connection():
    handler = type("Handler", (_DroppingHandler,), {"dropped": threading.Semaphore(0)})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    clock = VirtualClock(T0)
    client = SearchClient(f"http://127.0.0.1:{server.server_address[1]}", Credentials(), clock)
    try:
        for _ in range(5):
            assert client.search(None) == ([], "tok")
            # The next page is requested on an idle connection the server
            # has already dropped.
            assert handler.dropped.acquire(timeout=5)
    finally:
        client.close()
        server.shutdown()
        server.server_close()
    assert client.window.used == 5
    assert handler.calls == 5
    assert clock.now_ms() == T0  # no backoff


@pytest.fixture()
def counted_mock(monkeypatch):
    """A MockFirehoseServer whose accepted TCP connections are counted."""
    accepted = []
    get_request = ThreadingHTTPServer.get_request

    def counting(self):
        conn = get_request(self)
        accepted.append(conn[1])
        return conn

    monkeypatch.setattr(ThreadingHTTPServer, "get_request", counting)
    engine = FirehoseEngine(seed=3)
    with MockFirehoseServer(engine) as server:
        yield server, accepted


def test_run_crawl_reuses_one_connection(counted_mock, tmp_path, monkeypatch):
    server, accepted = counted_mock
    gets = []
    do_get = _Handler.do_GET

    def counting(handler):
        gets.append(handler.path)
        do_get(handler)

    monkeypatch.setattr(_Handler, "do_GET", counting)
    cfg = CrawlConfig(endpoint=server.url, out_dir=str(tmp_path), max_requests=20)
    stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.requests == 20
    assert stats.tweets_seen == 2000
    assert len(gets) == 20
    assert len(accepted) == 1


def test_connection_survives_error_responses(counted_mock):
    server, accepted = counted_mock
    aligned = (T0 // RATE_WINDOW_MS) * RATE_WINDOW_MS
    clock = VirtualClock(aligned)
    client = SearchClient(server.url, Credentials(), clock)
    try:
        with pytest.raises(BadTokenError):
            client.search("junk")
        statuses, _ = client.search(None)
        assert len(statuses) == MAX_PAGE_SIZE

        for _ in range(RATE_LIMIT_CAPACITY - 2):
            server.engine.search(Credentials(), count=1, now_ms=aligned)
        with pytest.raises(RateLimitError) as exc_info:
            client.search(None)
        assert exc_info.value.reset_at_ms == aligned + RATE_WINDOW_MS
        clock.sleep_ms(RATE_WINDOW_MS)
        statuses, _ = client.search(None)
        assert len(statuses) == MAX_PAGE_SIZE
    finally:
        client.close()
    assert len(accepted) == 1


# --------------------------------------------------------------- run_crawl


def crawl(tmp_path, *, seed=42, duplicate_mode=False, start_ms=T0, **cfg_kwargs):
    engine = FirehoseEngine(seed=seed, duplicate_mode=duplicate_mode)
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
        rec = TweetRecord(*decode_record(line))
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
    ids = [TweetRecord(*decode_record(line)).id for line in lines]
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
        crawl(tmp_path, creds=Credentials(app_key="k", app_secret="s"))


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


@pytest.mark.parametrize("body", [b"not json", b"[]"])
def test_run_crawl_skips_a_page_whose_200_body_is_not_a_search_page(
        scripted_server, tmp_path, body):
    url, handler = scripted_server
    attempts = SearchClient.MAX_RETRIES + 1
    handler.script = [(200, body)] * (attempts + 1)
    cfg = CrawlConfig(endpoint=url, out_dir=str(tmp_path), max_requests=2)
    stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.requests == 2
    assert stats.request_failures == 1  # the second page succeeds on its retry
    assert handler.calls == attempts + 2


def test_malformed_status_log_carries_no_identifier(scripted_server, tmp_path, caplog):
    url, handler = scripted_server
    tweet = make_tweet(username="zq_hidden_handle", name="Zq Hidden Name", location="Zqville")
    status = status_of(tweet)
    del status["lang"]
    handler.page = {"statuses": [status], "next": "tok"}
    cfg = CrawlConfig(endpoint=url, out_dir=str(tmp_path), max_requests=1)
    with caplog.at_level(logging.DEBUG, logger="tweetpipe"):
        stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.tweets_seen == 0
    assert "malformed status skipped" in caplog.text
    for value in (tweet.username, tweet.name, tweet.location, str(tweet.id), tweet.text):
        assert value not in caplog.text


def test_bad_status_line_log_carries_no_wire_text(tmp_path, caplog):
    # A server that answers every request with a line that is not HTTP;
    # http.client puts that line in its BadStatusLine message.
    wire_text = "@pixel4242 Alice Chen 1000000000000000123"
    attempts = SearchClient.MAX_RETRIES + 1
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    answered = []

    def answer():
        for _ in range(attempts):  # each failed attempt reconnects
            conn, _ = listener.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(65536)
                conn.sendall(wire_text.encode() + b"\r\n")
            answered.append(request)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    cfg = CrawlConfig(endpoint=f"http://127.0.0.1:{listener.getsockname()[1]}",
                      out_dir=str(tmp_path), max_requests=1)
    try:
        with caplog.at_level(logging.DEBUG, logger="tweetpipe"):
            stats = run_crawl(cfg, clock=VirtualClock(T0))
    finally:
        listener.close()
        thread.join(timeout=5)
    assert stats.request_failures == 1
    assert len(answered) == attempts
    assert "page skipped: BadStatusLine" in caplog.text
    for value in ("pixel4242", "Alice", "Chen", "1000000000000000123"):
        assert value not in caplog.text


def test_run_crawl_skips_a_negative_id_and_goes_on(scripted_server, tmp_path):
    bad = status_of(make_tweet(id=1))
    bad["id_str"] = "-5"
    stats, records = crawl_page(scripted_server, tmp_path, [bad, status_of(make_tweet(id=2))])
    assert (stats.tweets_seen, stats.tweets_kept) == (1, 1)
    assert [r.id for r in records] == ["2"]


def test_run_crawl_skips_ids_that_int_would_accept(scripted_server, tmp_path):
    statuses = []
    for i, id_str in enumerate(["1_000", "\u0665"]):  # the latter is ARABIC-INDIC DIGIT FIVE
        status = status_of(make_tweet(id=i))
        status["id_str"] = id_str
        statuses.append(status)
    statuses.append(status_of(make_tweet(id=7)))
    stats, records = crawl_page(scripted_server, tmp_path, statuses)
    assert (stats.tweets_seen, stats.tweets_kept) == (1, 1)
    assert [r.id for r in records] == ["7"]


def test_run_crawl_filters_blank_and_padded_undetected_lang(scripted_server, tmp_path):
    tweets = [make_tweet(id=1, lang="  "), make_tweet(id=2, lang=" und")]
    stats, records = crawl_page(scripted_server, tmp_path, [status_of(t) for t in tweets])
    assert (stats.tweets_seen, stats.filtered_no_lang, stats.tweets_kept) == (2, 2, 0)
    assert records == []


def test_run_crawl_filters_null_location_and_lang(scripted_server, tmp_path):
    # The API marks both fields nullable.
    no_location, no_lang = status_of(make_tweet(id=1)), status_of(make_tweet(id=2))
    no_location["user"]["location"] = None
    no_lang["lang"] = None
    stats, records = crawl_page(scripted_server, tmp_path, [no_location, no_lang])
    assert (stats.tweets_seen, stats.filtered_no_location, stats.filtered_no_lang) == (2, 1, 1)
    assert records == []


@pytest.mark.parametrize("field,value", [
    ("created_at", None), ("text", {"x": 1}), ("text", None), ("lang", 0),
    ("user.location", 5), ("user.location", False), ("user.name", None),
    ("user.screen_name", ["a"]), ("retweeted_status_present", "no"),
    ("retweeted_status_present", 1), ("retweeted_status_present", None),
])
def test_run_crawl_skips_a_field_of_the_wrong_type(scripted_server, tmp_path, field, value):
    bad = status_of(make_tweet(id=1))
    owner = bad["user"] if field.startswith("user.") else bad
    owner[field.removeprefix("user.")] = value
    stats, records = crawl_page(scripted_server, tmp_path, [bad, status_of(make_tweet(id=2))])
    assert (stats.tweets_seen, stats.tweets_kept) == (1, 1)
    assert [r.id for r in records] == ["2"]


def traced_peak_kb(tmp_path, hours):
    """tracemalloc peak of a virtual crawl, mock server included, in KB."""
    tracemalloc.start()
    try:
        crawl(tmp_path / f"{hours}h", interval_ms=600_000, max_requests=None,
              duration_ms=hours * 3_600_000)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_crawl_memory_stays_flat_as_the_crawl_grows(tmp_path, monkeypatch):
    # A small dedup cache fills within the first hour, so what grows after
    # that is whatever the crawl or the mock keeps per tweet.
    monkeypatch.setattr(crawler, "DEDUP_CAPACITY", 1000)
    crawl(tmp_path / "warm-up", max_requests=1)  # imports and caches, untraced
    short, long = traced_peak_kb(tmp_path, 4), traced_peak_kb(tmp_path, 16)
    assert long <= 1.25 * short, f"peak {short:.0f} KB at 4 h, {long:.0f} KB at 16 h"


def test_run_crawl_respects_duration(tmp_path):
    engine = FirehoseEngine(seed=1)
    with MockFirehoseServer(engine) as server:
        cfg = CrawlConfig(endpoint=server.url, out_dir=str(tmp_path),
                          interval_ms=2000, duration_ms=20_000)
        stats = run_crawl(cfg, clock=VirtualClock(T0))
    assert stats.requests == 10


def test_config_validation():
    with pytest.raises(ValueError):
        CrawlConfig(endpoint="http://x", interval_ms=0, max_requests=1)
    with pytest.raises(ValueError):
        CrawlConfig(endpoint="http://x")  # no stopping condition
