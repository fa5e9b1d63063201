"""Mock search API tests: determinism, quota, pagination, duplicate mode."""

import datetime as dt
import http.client
import json
import socket
from urllib.parse import urlencode, urlsplit

import pytest
from hypothesis import given, strategies as st

from tweetpipe.firehose import (
    ApiPage,
    AuthError,
    BadTokenError,
    Credentials,
    EMPTY_LOCATION_RATE,
    FirehoseEngine,
    MAX_PAGE_SIZE,
    RATE_LIMIT_CAPACITY,
    RATE_WINDOW_MS,
    RateLimitError,
    RateWindow,
    RawTweet,
    TOKEN_TTL_MS,
    TweetFactory,
    UND_LANG_RATE,
    format_created_at,
)
from tweetpipe.mockserver import MockFirehoseServer, page_json, status_json

CREDS = Credentials()
T0 = 1_567_888_000_000  # some Saturday evening, UTC


def make_engine(**kwargs):
    kwargs.setdefault("seed", 42)
    return FirehoseEngine(**kwargs)


# ------------------------------------------------------------- determinism


def test_same_seed_same_stream():
    a = make_engine().search(CREDS, count=100, now_ms=T0)
    b = make_engine().search(CREDS, count=100, now_ms=T0)
    assert [t.id for t in a.tweets] == [t.id for t in b.tweets]
    assert [t.text for t in a.tweets] == [t.text for t in b.tweets]


def test_different_seed_different_stream():
    a = make_engine(seed=1).search(CREDS, count=100, now_ms=T0)
    b = make_engine(seed=2).search(CREDS, count=100, now_ms=T0)
    assert [t.text for t in a.tweets] != [t.text for t in b.tweets]


def test_ids_strictly_increase_across_pages():
    eng = make_engine()
    ids = []
    token = None
    for _ in range(5):
        page = eng.search(CREDS, count=100, next_token=token, now_ms=T0)
        ids.extend(t.id for t in page.tweets)
        token = page.next_token
    assert all(a < b for a, b in zip(ids, ids[1:]))


def test_field_rates_roughly_match_configuration():
    factory = TweetFactory(seed=7)
    tweets = [factory.make(T0) for _ in range(10_000)]
    empties = sum(1 for t in tweets if not t.location.strip())
    unds = sum(1 for t in tweets if t.lang in ("", "und"))
    # ~3 sigma for Binomial(10000, p), p = 0.15 and 0.08
    assert abs(empties - 10_000 * EMPTY_LOCATION_RATE) < 107
    assert abs(unds - 10_000 * UND_LANG_RATE) < 81
    assert any("\n" in t.text for t in tweets)
    assert any("<8>" in t.text for t in tweets)
    assert any(t.is_retweet for t in tweets)


def test_a_page_shares_one_creation_date():
    page = make_engine().search(CREDS, count=100, now_ms=T0)
    first = page.tweets[0].creation_date
    assert first == format_created_at(T0)
    assert all(t.creation_date is first for t in page.tweets)


def test_created_at_formatting():
    ts = int(dt.datetime(2019, 9, 7, 20, 14, 3, tzinfo=dt.timezone.utc).timestamp() * 1000)
    assert format_created_at(ts) == "Sat Sep 07 20:14:03 +0000 2019"


def test_status_wire_shape():
    page = make_engine().search(CREDS, count=1, now_ms=T0)
    status = json.loads(status_json(page.tweets[0]))
    assert set(status) == {
        "created_at", "id_str", "lang", "user", "text", "retweeted_status_present",
    }
    assert set(status["user"]) == {"location", "name", "screen_name"}
    assert status["id_str"].isdigit()


# ------------------------------------------------------------- rate limits


def test_quota_exhausts_at_capacity():
    eng = make_engine()
    for _ in range(RATE_LIMIT_CAPACITY):
        eng.search(CREDS, count=1, now_ms=T0)
    with pytest.raises(RateLimitError) as exc_info:
        eng.search(CREDS, count=1, now_ms=T0)
    window_start = (T0 // RATE_WINDOW_MS) * RATE_WINDOW_MS
    assert exc_info.value.reset_at_ms == window_start + RATE_WINDOW_MS


def test_quota_recovers_after_window_rolls():
    eng = make_engine()
    for _ in range(RATE_LIMIT_CAPACITY):
        eng.search(CREDS, count=1, now_ms=T0)
    later = T0 + RATE_WINDOW_MS
    page = eng.search(CREDS, count=1, now_ms=later)
    assert page.remaining == RATE_LIMIT_CAPACITY - 1


def test_rejected_requests_still_burn_quota():
    eng = make_engine()
    with pytest.raises(BadTokenError):
        eng.search(CREDS, count=1, next_token="bogus", now_ms=T0)
    assert eng.search(CREDS, count=1, now_ms=T0).remaining == RATE_LIMIT_CAPACITY - 2


def test_rate_window_rolls_to_epoch_grid():
    w = RateWindow(window_start_ms=0, used=7)
    w.roll(RATE_WINDOW_MS * 3 + 17)
    assert w.window_start_ms == RATE_WINDOW_MS * 3
    assert w.used == 0


# -------------------------------------------------------------- pagination


def test_count_bounds():
    eng = make_engine()
    assert len(eng.search(CREDS, count=500, now_ms=T0).tweets) == MAX_PAGE_SIZE
    with pytest.raises(ValueError):
        eng.search(CREDS, count=0, now_ms=T0)


def test_next_token_chains_without_overlap():
    eng = make_engine()
    first = eng.search(CREDS, count=50, now_ms=T0)
    second = eng.search(CREDS, count=50, next_token=first.next_token, now_ms=T0)
    assert not {t.id for t in first.tweets} & {t.id for t in second.tweets}


def test_tokens_expire():
    eng = make_engine()
    page = eng.search(CREDS, count=10, now_ms=T0)
    eng.search(CREDS, count=10, next_token=page.next_token, now_ms=T0 + TOKEN_TTL_MS - 1)
    stale = eng.search(CREDS, count=10, now_ms=T0)
    with pytest.raises(BadTokenError):
        eng.search(CREDS, count=10, next_token=stale.next_token, now_ms=T0 + TOKEN_TTL_MS + 1)


def test_auth_required():
    eng = make_engine()
    with pytest.raises(AuthError):
        eng.search(Credentials(app_key="nope", app_secret="nope"), count=1, now_ms=T0)


# ----------------------------------------------------------- duplicate mode


def test_duplicate_mode_overlaps_rapid_cursorless_requests():
    eng = make_engine(duplicate_mode=True)
    first = eng.search(CREDS, count=100, now_ms=T0)
    second = eng.search(CREDS, count=100, now_ms=T0 + 500)
    overlap = {t.id for t in first.tweets} & {t.id for t in second.tweets}
    assert overlap


def test_duplicate_mode_spaced_requests_are_fresh():
    eng = make_engine(duplicate_mode=True)
    first = eng.search(CREDS, count=100, now_ms=T0)
    second = eng.search(CREDS, count=100, now_ms=T0 + 2000)
    assert not {t.id for t in first.tweets} & {t.id for t in second.tweets}


def test_duplicate_mode_never_affects_token_requests():
    eng = make_engine(duplicate_mode=True)
    first = eng.search(CREDS, count=100, now_ms=T0)
    second = eng.search(CREDS, count=100, next_token=first.next_token, now_ms=T0 + 100)
    assert not {t.id for t in first.tweets} & {t.id for t in second.tweets}


def test_duplicate_mode_off_by_default():
    eng = make_engine()
    first = eng.search(CREDS, count=100, now_ms=T0)
    second = eng.search(CREDS, count=100, now_ms=T0 + 100)
    assert not {t.id for t in first.tweets} & {t.id for t in second.tweets}


# ----------------------------------------------------------- stream window


def test_reused_token_serves_the_same_tweets_after_later_pages():
    eng = make_engine()
    token = eng.search(CREDS, count=100, now_ms=T0).next_token
    first = eng.search(CREDS, count=100, next_token=token, now_ms=T0 + 2000)
    for k in range(20):
        eng.search(CREDS, count=100, now_ms=T0 + 4000 + 2000 * k)
    again = eng.search(CREDS, count=100, next_token=token, now_ms=T0 + 60_000)
    assert [t.id for t in again.tweets] == [t.id for t in first.tweets]


def test_duplicate_mode_tail_survives_trimming():
    eng = make_engine(duplicate_mode=True)
    # Ten minutes apart, each page's token outlives the next page only,
    # so the stream is trimmed as it goes.
    for k in range(6):
        last = eng.search(CREDS, count=100, now_ms=T0 + 600_000 * k)
    tail = eng.search(CREDS, count=100, now_ms=T0 + 600_000 * 5 + 500)
    assert [t.id for t in tail.tweets] == [t.id for t in last.tweets]


def test_expired_token_is_rejected_and_forgotten():
    eng = make_engine()
    token = eng.search(CREDS, count=10, now_ms=T0).next_token
    with pytest.raises(BadTokenError):
        eng.search(CREDS, count=10, next_token=token, now_ms=T0 + TOKEN_TTL_MS + 1)
    assert token not in eng._cursors


def test_window_stays_bounded_while_following_tokens():
    eng = make_engine()
    spacing_ms = 2000
    max_tweets = (TOKEN_TTL_MS // spacing_ms + 2) * MAX_PAGE_SIZE
    max_cursors = TOKEN_TTL_MS // spacing_ms + 1
    token = None
    # 500 pages span two rate windows from T0 and stay within quota.
    for k in range(500):
        token = eng.search(CREDS, count=100, next_token=token,
                           now_ms=T0 + spacing_ms * k).next_token
        assert len(eng._stream) <= max_tweets
        assert len(eng._cursors) <= max_cursors
    assert eng._base + len(eng._stream) == 500 * MAX_PAGE_SIZE  # every tweet made


# ------------------------------------------------------------- HTTP facade


@pytest.fixture()
def server():
    with MockFirehoseServer(make_engine()) as srv:
        yield srv


def auth_headers(now_ms=T0):
    return {
        "x-app-key": CREDS.app_key,
        "x-app-secret": CREDS.app_secret,
        "x-virtual-now-ms": str(now_ms),
    }


def http_get(server, path, params=None, headers=None):
    """One GET on its own connection; returns (response, parsed JSON body)."""
    url = urlsplit(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        if params:
            path += "?" + urlencode(params)
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        return resp, json.loads(resp.read())
    finally:
        conn.close()


def test_http_search_ok(server):
    resp, body = http_get(
        server, "/1.1/search/tweets.json", params={"count": "3"}, headers=auth_headers()
    )
    assert resp.status == 200
    assert len(body["statuses"]) == 3
    assert body["next"]
    assert resp.headers["x-rate-limit-remaining"] == str(RATE_LIMIT_CAPACITY - 1)
    assert "x-rate-limit-reset-ms" in resp.headers


def test_http_auth_failure(server):
    resp, _ = http_get(
        server, "/1.1/search/tweets.json",
        headers={"x-app-key": "wrong", "x-app-secret": "wrong"},
    )
    assert resp.status == 401


def test_http_bad_token(server):
    resp, _ = http_get(
        server, "/1.1/search/tweets.json", params={"next": "junk"}, headers=auth_headers()
    )
    assert resp.status == 400


def test_http_rate_limited(server):
    path = "/1.1/search/tweets.json"
    for _ in range(RATE_LIMIT_CAPACITY):
        assert http_get(
            server, path, params={"count": "1"}, headers=auth_headers()
        )[0].status == 200
    resp, _ = http_get(server, path, params={"count": "1"}, headers=auth_headers())
    assert resp.status == 429
    assert int(resp.headers["x-rate-limit-reset-ms"]) % RATE_WINDOW_MS == 0


def test_http_unknown_path(server):
    resp, _ = http_get(server, "/nope")
    assert resp.status == 404


def test_stop_after_a_served_request_ends_the_thread_and_frees_the_port():
    server = MockFirehoseServer(make_engine()).start()
    thread = server._thread
    url = urlsplit(server.url)
    assert http_get(server, "/nope")[0].status == 404
    server.stop()
    assert not thread.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((url.hostname, url.port), timeout=5).close()


# ------------------------------------------------------ page JSON vs dumps


def reference_status(tweet):
    """The status object the search API sends for tweet, as a dict."""
    return {
        "created_at": tweet.creation_date,
        "id_str": str(tweet.id),
        "lang": tweet.lang,
        "user": {
            "location": tweet.location,
            "name": tweet.name,
            "screen_name": tweet.username,
        },
        "text": tweet.text,
        "retweeted_status_present": tweet.is_retweet,
    }


def reference_page_json(page):
    return json.dumps({"statuses": [reference_status(t) for t in page.tweets],
                       "next": page.next_token})


@pytest.mark.parametrize("seed", [7, 1009])
def test_page_json_is_json_dumps_of_the_status_objects_on_seeded_pages(seed):
    engine = make_engine(seed=seed)
    token = None
    for n in range(20):
        page = engine.search(CREDS, next_token=token, now_ms=T0 + n * 64_000)
        assert page_json(page) == reference_page_json(page)
        token = page.next_token


AWKWARD = 'caf\u00e9 \u2603 \U0001f600 "quoted" back\\slash\nnew line\t\x00\u2028'


@pytest.mark.parametrize("is_retweet", [False, True])
def test_page_json_is_json_dumps_of_the_status_objects_on_awkward_text(is_retweet):
    tweet = RawTweet(AWKWARD, 10**19, AWKWARD, AWKWARD, AWKWARD, AWKWARD, AWKWARD, is_retweet)
    for tweets in ([], [tweet], [tweet, tweet]):
        page = ApiPage(tweets, next_token=AWKWARD, remaining=0, reset_at_ms=0)
        assert page_json(page) == reference_page_json(page)


@given(st.builds(RawTweet, st.text(), st.integers(0, 2**64), st.text(), st.text(), st.text(),
                 st.text(), st.text(), st.booleans()))
def test_page_json_is_json_dumps_of_the_status_objects_on_any_text(tweet):
    page = ApiPage([tweet], next_token="tok", remaining=0, reset_at_ms=0)
    assert page_json(page) == reference_page_json(page)


def test_a_served_page_is_json_dumps_of_the_status_objects(server):
    url = urlsplit(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.request("GET", "/1.1/search/tweets.json?count=100", headers=auth_headers())
        body = conn.getresponse().read()
    finally:
        conn.close()
    page = make_engine().search(CREDS, count=100, now_ms=T0)
    assert body == reference_page_json(page).encode("utf-8")
