"""Rate-limited crawl loop against the search API.

One logical loop: throttle, fetch a page, turn each status into its
record line with the text prefixed "OT " or "RT " (checked once, and
sanitized only where the check fails), filter out
records without a usable location or language, drop ids already seen,
and append delimited lines to the file for the hour the page was
fetched in.

The loop paces itself at a fixed interval and additionally throttles
against the 450-requests-per-15-minute window, computing window
boundaries exactly the way the server does so the two never disagree.
All waiting goes through an injectable clock; under a virtual clock an
8-day crawl runs in seconds.
"""

from __future__ import annotations

import json
import logging
import select
from collections import deque
from dataclasses import dataclass, field
from urllib.parse import urlencode, urlsplit

from .clock import SystemClock
from .codec import (
    FIELD_NAMES,
    FileLocator,
    TweetRecord,
    clean_line,
    crawl_file_path,
    encode_record,
    sanitize_field,
)
from .firehose import (
    MAX_PAGE_SIZE,
    RATE_LIMIT_CAPACITY,
    RATE_WINDOW_MS,
    SEARCH_PATH,
    AuthError,
    BadTokenError,
    Credentials,
    RateLimitError,
    RateWindow,
)
from .ledger import LineLog

log = logging.getLogger(__name__)

DEDUP_CAPACITY = 10_000_000  # tweet ids a crawl remembers
SEARCH_TIMEOUT_S = 10.0
_ID, _LANG, _LOCATION = map(FIELD_NAMES.index, ("id", "lang", "location"))


class FetchError(Exception):
    """Request failed after all retries; the page is skipped."""


@dataclass
class CrawlConfig:
    endpoint: str
    creds: Credentials = field(default_factory=Credentials)
    interval_ms: int = 2000
    use_next: bool = True
    duration_ms: int | None = None
    max_requests: int | None = None
    out_dir: str = "./data"

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if self.duration_ms is None and self.max_requests is None:
            raise ValueError("set duration_ms or max_requests, or the crawl never ends")


@dataclass
class CrawlStats:
    requests: int = 0
    tweets_seen: int = 0
    tweets_kept: int = 0
    duplicates_dropped: int = 0
    filtered_no_location: int = 0
    filtered_no_lang: int = 0
    rate_limit_waits: int = 0
    request_failures: int = 0

    def check_identity(self) -> None:
        """Every seen tweet lands in exactly one bucket."""
        total = (
            self.tweets_kept
            + self.duplicates_dropped
            + self.filtered_no_location
            + self.filtered_no_lang
        )
        if total != self.tweets_seen:
            raise AssertionError(
                f"stats identity broken: buckets sum to {total}, seen {self.tweets_seen}"
            )


def throttle(window: RateWindow, now_ms: int) -> int:
    """Milliseconds to wait before the next request may be issued.

    Zero while quota remains in the window containing now_ms; otherwise
    the time left until the window boundary. Never negative.
    """
    window.roll(now_ms)
    if window.used < RATE_LIMIT_CAPACITY:
        return 0
    return max(0, window.reset_at_ms() - now_ms)


def parse_status(status: dict) -> tuple[tuple[str, ...], str | None] | None:
    """The field values to store for one JSON status object, and their
    line if it needs no sanitizing; None if the status is malformed.

    The text is prefixed "OT " (original) or "RT " (retweet), and the
    line is built once from the raw values and checked once by
    clean_line. Only a status that fails the check has every field
    sanitized, and its line is left to encode_record, once the crawl
    keeps it; either way what reaches the file is encodable. The API
    marks user.location and lang nullable: null reads as empty, which the
    crawl then filters. Any other field that is not a string, a retweet
    flag that is not a boolean, or an id_str that is not a non-empty
    string of ASCII digits makes the status malformed.
    """
    try:
        user = status["user"]
        id_str, retweet = status["id_str"], status["retweeted_status_present"]
        if not (isinstance(id_str, str) and id_str.isascii() and id_str.isdigit()
                and isinstance(retweet, bool)):
            return None
        location, lang = user["location"], status["lang"]
        values = (
            status["created_at"],
            # int() drops leading zeros, as SeenIds keys ids, and raises
            # ValueError past its digit limit.
            str(int(id_str)),
            "" if lang is None else lang,
            "" if location is None else location,
            user["name"],
            user["screen_name"],
            ("RT " if retweet else "OT ") + status["text"],
        )
        # clean_line raises TypeError on any value that is not a string.
        line = clean_line(values)
    except (KeyError, TypeError, ValueError):
        return None
    if line is None:
        values = tuple(map(sanitize_field, values))
    return values, line


class SeenIds:
    """Bounded set of already-persisted tweet ids.

    When full, the oldest entries are evicted first; a very long crawl
    trades perfect global dedup for bounded memory. A set answers
    membership and a deque keeps insertion order for eviction.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._seen: set[int] = set()
        self._order: deque[int] = deque()

    def add(self, tweet_id: int) -> bool:
        """True if the id was new (and is now recorded)."""
        if tweet_id in self._seen:
            return False
        self._seen.add(tweet_id)
        self._order.append(tweet_id)
        if len(self._order) > self.capacity:
            self._seen.remove(self._order.popleft())
        return True

    def __len__(self) -> int:
        return len(self._seen)


def page_lines(statuses: list, seen: SeenIds, stats: CrawlStats) -> list[str]:
    """The lines to store for one page of statuses, in page order.

    Each well-formed status counts as seen and lands in one stats bucket:
    filtered for a blank location, then for an empty or "und" language,
    then dropped as a duplicate id, or kept.
    """
    lines: list[str] = []
    for status in statuses:
        parsed = parse_status(status)
        if parsed is None:
            # No field values: the status carries the author's identity.
            log.warning("malformed status skipped: missing or invalid field")
            continue
        values, line = parsed
        stats.tweets_seen += 1
        if not values[_LOCATION]:
            stats.filtered_no_location += 1
            continue
        if values[_LANG] in ("", "und"):
            stats.filtered_no_lang += 1
            continue
        if not seen.add(int(values[_ID])):
            stats.duplicates_dropped += 1
            continue
        lines.append(line or encode_record(TweetRecord(*values)))
        stats.tweets_kept += 1
    return lines


class HourlyRecordWriter:
    """Append encoded records to the crawl file for each page's fetch hour.

    Each hour-file is a LineLog: a page goes out as one write of whole
    lines, flushed before write_page returns, and rollover happens between
    pages only. A crash mid-write can still leave a torn last line; a
    crawl resumed into that hour cuts it, and process_file skips it. An
    hour-file that another process writes refuses the page.
    """

    def __init__(self, out_dir: str = "./data"):
        self.out_dir = out_dir
        self._log: LineLog | None = None

    def write_page(self, lines: list[str], fetched_at_ms: int) -> None:
        if not lines:
            return
        path = crawl_file_path(FileLocator.from_timestamp_ms(fetched_at_ms), root=self.out_dir)
        if self._log is None or self._log.path != path:
            self.close()
            self._log = LineLog(path)
            log.debug("writing crawl records to %s", path)
        self._log.append("".join(line + "\n" for line in lines).encode())

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "HourlyRecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SearchClient:
    """HTTP client for the search endpoint with bounded retry.

    Network failures and 5xx responses are retried up to 3 times with
    exponential backoff (1 s, 2 s, 4 s) before the page is abandoned.
    Application errors (401/429/400) map to typed exceptions and are
    never retried here; the crawl loop decides what to do with them.

    Pages are fetched over one persistent connection, reopened after a
    failure or when the server has closed it. `window` counts every wire
    attempt, retries included, as the server charges them.
    """

    MAX_RETRIES = 3
    BACKOFF_START_MS = 1000

    def __init__(self, endpoint: str, creds: Credentials, clock):
        import http.client  # here, so that importing the crawler loads no HTTP code

        url = urlsplit(endpoint.rstrip("/") + SEARCH_PATH)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL, got {endpoint!r}")
        connection = (http.client.HTTPSConnection if url.scheme == "https"
                      else http.client.HTTPConnection)
        self._conn = connection(url.hostname, url.port, timeout=SEARCH_TIMEOUT_S)
        self._path = url.path
        self._creds = creds
        self._clock = clock
        self.window = RateWindow()

    def close(self) -> None:
        self._conn.close()

    def search(self, next_token: str | None) -> tuple[list, str | None]:
        """Fetch one page of MAX_PAGE_SIZE tweets; returns (status dicts, next token)."""
        import http.client

        params: dict = {"count": MAX_PAGE_SIZE}
        if next_token is not None:
            params["next"] = next_token
        target = self._path + "?" + urlencode(params)
        backoff_ms = self.BACKOFF_START_MS
        for attempt in range(self.MAX_RETRIES + 1):
            now_ms = self._clock.now_ms()
            self.window.roll(now_ms)
            self.window.used += 1
            headers = {
                "x-app-key": self._creds.app_key,
                "x-app-secret": self._creds.app_secret,
                # Keeps a virtual-clock server in lockstep; harmless otherwise.
                "x-virtual-now-ms": str(now_ms),
            }
            sock = self._conn.sock
            if sock is not None and select.select([sock], [], [], 0)[0]:
                # An idle connection has nothing to read unless the server
                # closed it; reconnect instead of spending a retry on it.
                self._conn.close()
            try:
                self._conn.request("GET", target, headers=headers)
                resp = self._conn.getresponse()
                # Read the whole body, so the connection is free for the
                # next request.
                body = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                self._conn.close()
                # The type only: str() of some (BadStatusLine) is the server's text.
                failure = type(exc).__name__
            else:
                page = _json_object(body)
                statuses = None if page is None else page.get("statuses", [])
                if resp.status == 200 and isinstance(statuses, list):
                    return statuses, page.get("next")
                # The status only: the body's error text is the server's.
                if resp.status == 401:
                    raise AuthError("search API rejected the credentials (HTTP 401)")
                if resp.status == 429:
                    raise RateLimitError(_reset_at(resp, page, now_ms))
                if resp.status == 400:
                    raise BadTokenError("search API rejected the request (HTTP 400)")
                # A 200 lands here too when its body is not a search page.
                failure = f"server returned {resp.status} and no search page"
            if attempt < self.MAX_RETRIES:
                log.warning("search request failed (%s), retrying in %d ms", failure, backoff_ms)
                self._clock.sleep_ms(backoff_ms)
                backoff_ms *= 2
        raise FetchError(failure)


def _json_object(body: bytes) -> dict | None:
    """The body as a JSON object; None if it is not valid JSON or not an object."""
    try:
        obj = json.loads(body)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def _reset_at(resp: http.client.HTTPResponse, page: dict | None, now_ms: int) -> int:
    """The body's reset_at_ms, else the header, else the next window boundary;
    a value that is no integer in (now_ms, now_ms + RATE_WINDOW_MS] is
    passed over, never trusted."""
    for value in ((page or {}).get("reset_at_ms"), resp.getheader("x-rate-limit-reset-ms")):
        try:
            reset_at = int(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: JSON Infinity
            continue
        if now_ms < reset_at <= now_ms + RATE_WINDOW_MS:
            return reset_at
    return (now_ms // RATE_WINDOW_MS + 1) * RATE_WINDOW_MS


def run_crawl(cfg: CrawlConfig, clock=None) -> CrawlStats:
    """Run the crawl loop until the duration or request budget runs out.

    Raises AuthError if the credentials are rejected; every other error
    is survived: rate-limit responses wait out the window, failed pages
    are skipped after retries.
    """
    clock = clock or SystemClock()
    stats = CrawlStats()
    seen = SeenIds(DEDUP_CAPACITY)
    client = SearchClient(cfg.endpoint, cfg.creds, clock)
    next_token: str | None = None
    start_ms = clock.now_ms()

    try:
        with HourlyRecordWriter(cfg.out_dir) as writer:
            while True:
                if cfg.max_requests is not None and stats.requests >= cfg.max_requests:
                    break
                now = clock.now_ms()
                if cfg.duration_ms is not None and now - start_ms >= cfg.duration_ms:
                    break

                wait = throttle(client.window, now)
                if wait > 0:
                    stats.rate_limit_waits += 1
                    log.info("window exhausted, waiting %d ms", wait)
                    clock.sleep_ms(wait)
                    continue

                token = next_token if cfg.use_next else None
                stats.requests += 1
                try:
                    statuses, next_token = client.search(token)
                except RateLimitError as exc:
                    # Shouldn't happen while our window mirrors the
                    # server's, but survive it if it does.
                    stats.rate_limit_waits += 1
                    clock.sleep_ms(max(0, exc.reset_at_ms - clock.now_ms()))
                    continue
                except BadTokenError:
                    log.warning("pagination token rejected, restarting cursor")
                    next_token = None
                    clock.sleep_ms(cfg.interval_ms)
                    continue
                except FetchError as exc:
                    stats.request_failures += 1
                    log.warning("page skipped: %s", exc)
                    clock.sleep_ms(cfg.interval_ms)
                    continue

                writer.write_page(page_lines(statuses, seen, stats), now)

                clock.sleep_ms(cfg.interval_ms)
    finally:
        client.close()

    stats.check_identity()
    log.info(
        "crawl done: %d requests, %d seen, %d kept, %d dup, %d no-location, %d no-lang",
        stats.requests, stats.tweets_seen, stats.tweets_kept,
        stats.duplicates_dropped, stats.filtered_no_location, stats.filtered_no_lang,
    )
    return stats
