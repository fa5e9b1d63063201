"""Rate-limited crawl loop against the search API.

One logical loop: throttle, fetch a page, filter out tweets without a
usable location or language, drop ids already seen, prefix the text with
"OT " or "RT ", sanitize, and append delimited lines to the file for the
hour the page was fetched in.

The loop paces itself at a fixed interval and additionally throttles
against the 450-requests-per-15-minute window, computing window
boundaries exactly the way the server does so the two never disagree.
All waiting goes through an injectable clock; under a virtual clock an
8-day crawl runs in seconds.
"""

from __future__ import annotations

import logging
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import requests

from .clock import SystemClock
from .codec import (
    FileLocator,
    TweetRecord,
    crawl_file_path,
    encode_record,
    sanitize_field,
)
from .firehose import (
    MAX_PAGE_SIZE,
    RATE_WINDOW_MS,
    SEARCH_PATH,
    AuthError,
    BadTokenError,
    Credentials,
    RateLimitError,
    RateWindow,
    RawTweet,
)

log = logging.getLogger(__name__)


class FetchError(Exception):
    """Request failed after all retries; the page is skipped."""


@dataclass
class CrawlConfig:
    endpoint: str
    creds: Credentials = field(default_factory=Credentials)
    interval_ms: int = 2000
    use_next: bool = True
    page_count: int = MAX_PAGE_SIZE
    duration_ms: int | None = None
    max_requests: int | None = None
    dedup_capacity: int = 10_000_000
    out_dir: str = "./data"

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if not 1 <= self.page_count <= MAX_PAGE_SIZE:
            raise ValueError(f"page_count must be in 1..{MAX_PAGE_SIZE}")
        if self.duration_ms is None and self.max_requests is None:
            raise ValueError("set duration_ms or max_requests, or the crawl never ends")
        if self.dedup_capacity < 1:
            raise ValueError("dedup_capacity must be positive")


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


def filter_reason(t: RawTweet) -> str | None:
    """None if the tweet is usable, else which filter rejected it."""
    if not t.location.strip():
        return "no_location"
    if t.lang in ("", "und"):
        return "no_lang"
    return None


def prefix_text(t: RawTweet) -> str:
    """Mark the text as original ("OT ") or retweet ("RT ")."""
    return ("RT " if t.is_retweet else "OT ") + t.text


def throttle(window: RateWindow, now_ms: int) -> int:
    """Milliseconds to wait before the next request may be issued.

    Zero while quota remains in the window containing now_ms; otherwise
    the time left until the window boundary. Never negative.
    """
    window.roll(now_ms)
    if window.used < window.capacity:
        return 0
    return max(0, window.reset_at_ms() - now_ms)


def parse_status(status: dict) -> RawTweet | None:
    """Convert one JSON status object to a RawTweet; None if malformed."""
    try:
        user = status["user"]
        return RawTweet(
            creation_date=str(status["created_at"]),
            id=int(str(status["id_str"])),
            lang=str(status["lang"]),
            location=str(user["location"]),
            name=str(user["name"]),
            username=str(user["screen_name"]),
            text=str(status["text"]),
            is_retweet=bool(status["retweeted_status_present"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


class SeenIds:
    """Bounded set of already-persisted tweet ids.

    When full, the oldest entries are evicted first; a very long crawl
    trades perfect global dedup for bounded memory.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._seen: OrderedDict[int, None] = OrderedDict()

    def add(self, tweet_id: int) -> bool:
        """True if the id was new (and is now recorded)."""
        if tweet_id in self._seen:
            return False
        self._seen[tweet_id] = None
        while len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return True

    def __len__(self) -> int:
        return len(self._seen)


class HourlyRecordWriter:
    """Append encoded records to the crawl file for each page's fetch hour.

    Rollover happens between pages only, and the outgoing file is flushed
    at rollover and on close, so a reader never sees a torn record.
    """

    def __init__(self, out_dir: str = "./data"):
        self.out_dir = out_dir
        self._locator: FileLocator | None = None
        self._fh = None
        self.paths_written: list[str] = []

    def write_page(self, records: list[TweetRecord], fetched_at_ms: int) -> None:
        if not records:
            return
        locator = FileLocator.from_timestamp_ms(fetched_at_ms)
        if locator != self._locator:
            self._open(locator)
        for record in records:
            self._fh.write(encode_record(record) + "\n")

    def _open(self, locator: FileLocator) -> None:
        self.close()
        path = crawl_file_path(locator, root=self.out_dir)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")
        self._locator = locator
        self.paths_written.append(path)
        log.debug("writing crawl records to %s", path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
        self._locator = None

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
    """

    MAX_RETRIES = 3
    BACKOFF_START_MS = 1000

    def __init__(self, endpoint: str, creds: Credentials, clock,
                 timeout_s: float = 10.0, on_attempt=None):
        self._url = endpoint.rstrip("/") + SEARCH_PATH
        self._creds = creds
        self._clock = clock
        self._timeout_s = timeout_s
        # Called with now_ms before each wire attempt; the crawl loop
        # uses it to charge its window once per attempt, retries included.
        self._on_attempt = on_attempt
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def search(self, count: int, next_token: str | None) -> tuple[list, str | None]:
        """Fetch one page; returns (status dicts, next token)."""
        params: dict = {"count": count}
        if next_token is not None:
            params["next"] = next_token
        backoff_ms = self.BACKOFF_START_MS
        failure: Exception | None = None
        for attempt in range(self.MAX_RETRIES + 1):
            now_ms = self._clock.now_ms()
            if self._on_attempt is not None:
                self._on_attempt(now_ms)
            headers = {
                "x-app-key": self._creds.app_key,
                "x-app-secret": self._creds.app_secret,
                # Keeps a virtual-clock server in lockstep; harmless otherwise.
                "x-virtual-now-ms": str(now_ms),
            }
            try:
                resp = self._session.get(
                    self._url, params=params, headers=headers, timeout=self._timeout_s
                )
            except requests.RequestException as exc:
                failure = exc
            else:
                if resp.status_code == 200:
                    body = resp.json()
                    return body.get("statuses", []), body.get("next")
                if resp.status_code == 401:
                    raise AuthError(_body_error(resp))
                if resp.status_code == 429:
                    raise RateLimitError(_reset_at(resp, now_ms))
                if resp.status_code == 400:
                    raise BadTokenError(_body_error(resp))
                failure = FetchError(f"server returned {resp.status_code}")
            if attempt < self.MAX_RETRIES:
                log.warning("search request failed (%s), retrying in %d ms", failure, backoff_ms)
                self._clock.sleep_ms(backoff_ms)
                backoff_ms *= 2
        raise FetchError(str(failure))


def _body_error(resp) -> str:
    try:
        return str(resp.json().get("error", resp.reason))
    except ValueError:
        return str(resp.reason)


def _reset_at(resp, now_ms: int) -> int:
    try:
        return int(resp.json()["reset_at_ms"])
    except (ValueError, KeyError, TypeError):
        pass
    header = resp.headers.get("x-rate-limit-reset-ms")
    if header is not None:
        return int(header)
    return (now_ms // RATE_WINDOW_MS + 1) * RATE_WINDOW_MS


def _to_record(t: RawTweet) -> TweetRecord:
    # Sanitize at persist time, after prefixing, so whatever reaches the
    # file is always encodable.
    return TweetRecord(
        creation_date=sanitize_field(t.creation_date),
        id=str(t.id),
        lang=sanitize_field(t.lang),
        location=sanitize_field(t.location),
        name=sanitize_field(t.name),
        username=sanitize_field(t.username),
        text=sanitize_field(prefix_text(t)),
    )


def run_crawl(cfg: CrawlConfig, clock=None) -> CrawlStats:
    """Run the crawl loop until the duration or request budget runs out.

    Raises AuthError if the credentials are rejected; every other error
    is survived: rate-limit responses wait out the window, failed pages
    are skipped after retries.
    """
    clock = clock or SystemClock()
    stats = CrawlStats()
    window = RateWindow()
    seen = SeenIds(cfg.dedup_capacity)

    def charge(now_ms: int) -> None:
        window.roll(now_ms)
        window.used += 1

    client = SearchClient(cfg.endpoint, cfg.creds, clock, on_attempt=charge)
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

                wait = throttle(window, now)
                if wait > 0:
                    stats.rate_limit_waits += 1
                    log.info("window exhausted, waiting %d ms", wait)
                    clock.sleep_ms(wait)
                    continue

                token = next_token if cfg.use_next else None
                stats.requests += 1
                try:
                    statuses, next_token = client.search(cfg.page_count, token)
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

                page_records: list[TweetRecord] = []
                for status in statuses:
                    tweet = parse_status(status)
                    if tweet is None:
                        # No field values: the status carries the author's identity.
                        log.warning("malformed status skipped: missing or invalid field")
                        continue
                    stats.tweets_seen += 1
                    reason = filter_reason(tweet)
                    if reason == "no_location":
                        stats.filtered_no_location += 1
                        continue
                    if reason == "no_lang":
                        stats.filtered_no_lang += 1
                        continue
                    if not seen.add(tweet.id):
                        stats.duplicates_dropped += 1
                        continue
                    page_records.append(_to_record(tweet))
                    stats.tweets_kept += 1
                writer.write_page(page_records, now)

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
