"""Deterministic mock of a rate-limited tweet search API.

The engine reproduces the two behaviours the crawler has to survive:

* A fixed quota of 450 requests per 15-minute window. Windows are
  aligned to epoch multiples of the span, so every party computing the
  window index from the same clock lands in the same window.
* An optional duplicate pathology on the cursorless endpoint: polling
  again within ``DUPLICATE_WINDOW_MS`` of the previous cursorless
  request re-serves the tail of the stream instead of fresh tweets.
  Requests that follow the ``next`` cursor never overlap.

The engine keeps only a window of its stream: the tweets a live
pagination token can still reach, plus the duplicate-mode tail. Tokens
stay reusable until they expire, so the window spans at most one token
lifetime of pages plus one page, however long the crawl runs.

All randomness is seeded, so a given seed always yields the same stream.
``mockserver`` serves the engine over HTTP on localhost; this module
imports no HTTP code.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from datetime import datetime, timezone

from . import corpora

RATE_LIMIT_CAPACITY = 450
RATE_WINDOW_MS = 15 * 60 * 1000
MAX_PAGE_SIZE = 100
TOKEN_TTL_MS = 15 * 60 * 1000
DUPLICATE_WINDOW_MS = 1000

# Share of generated tweets with a blank location, an "und" or empty
# language, and a retweet flag.
EMPTY_LOCATION_RATE = 0.15
UND_LANG_RATE = 0.08
RETWEET_RATE = 0.30

DEFAULT_APP_KEY = "demo-key"
DEFAULT_APP_SECRET = "demo-secret"

SEARCH_PATH = "/1.1/search/tweets.json"

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class AuthError(Exception):
    """Credentials missing or wrong."""


class BadTokenError(Exception):
    """Pagination token unknown or expired."""


class RateLimitError(Exception):
    """Window quota exhausted; retry once the window resets."""

    def __init__(self, reset_at_ms: int):
        super().__init__(f"rate limit exceeded, window resets at {reset_at_ms} ms")
        self.reset_at_ms = reset_at_ms


@dataclass(frozen=True)
class Credentials:
    app_key: str = DEFAULT_APP_KEY
    app_secret: str = DEFAULT_APP_SECRET


@dataclass
class RateWindow:
    """Usage inside one fixed window. Boundaries sit at epoch multiples
    of RATE_WINDOW_MS, never at first use, so they are the same for
    everyone."""

    window_start_ms: int = 0
    used: int = 0

    def roll(self, now_ms: int) -> None:
        """Reset the counter if now_ms falls in a later window."""
        start = (now_ms // RATE_WINDOW_MS) * RATE_WINDOW_MS
        if start != self.window_start_ms:
            self.window_start_ms = start
            self.used = 0

    def reset_at_ms(self) -> int:
        return self.window_start_ms + RATE_WINDOW_MS


@dataclass
class RawTweet:
    """One synthetic tweet as the API models it, pre-serialization."""

    creation_date: str
    id: int
    lang: str
    location: str
    name: str
    username: str
    text: str
    is_retweet: bool


@dataclass
class ApiPage:
    tweets: list[RawTweet]
    next_token: str
    remaining: int
    reset_at_ms: int


def format_created_at(ts_ms: int) -> str:
    """Render a millisecond timestamp in the classic tweet date style,
    e.g. 'Sat Sep 07 20:14:03 +0000 2019'. Manual tables keep the output
    independent of the process locale."""
    dt = datetime.fromtimestamp(ts_ms / 1000.0, tz=timezone.utc)
    return (
        f"{_WEEKDAYS[dt.weekday()]} {_MONTHS[dt.month - 1]} {dt.day:02d} "
        f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} +0000 {dt.year}"
    )


class TweetFactory:
    """Seeded generator of plausible raw tweets.

    Ids increase strictly with generation order. A slice of the output
    carries the rough edges the pipeline must handle: empty locations,
    "und" languages, line breaks and even the literal field delimiter
    inside tweet text.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._next_id = 1_000_000_000_000_000_000 + self._rng.randrange(10**6)
        # The last creation date rendered: a page's tweets share one now_ms,
        # so they share one string.
        self._created_ms: int | None = None
        self._created_at = ""

    def make(self, now_ms: int) -> RawTweet:
        if now_ms != self._created_ms:
            self._created_ms, self._created_at = now_ms, format_created_at(now_ms)
        rng = self._rng
        self._next_id += rng.randrange(1, 1000)

        if rng.random() < EMPTY_LOCATION_RATE:
            # Users leave the profile field blank or fill it with blanks.
            location = rng.choice(("", " ", "   "))
        else:
            location = rng.choice(corpora.LOCATIONS)

        if rng.random() < UND_LANG_RATE:
            lang = rng.choice(("und", "und", "und", ""))
        else:
            lang = rng.choice(corpora.LANGS)

        words = rng.choices(corpora.WORDS, k=rng.randrange(5, 13))
        if rng.random() < 0.25:
            words.append("#" + rng.choice(corpora.HASHTAG_WORDS))
        if rng.random() < 0.15:
            words.insert(0, "@" + rng.choice(corpora.USERNAME_STEMS) + str(rng.randrange(100)))
        text = " ".join(words)
        if rng.random() < 0.05:
            cut = rng.randrange(1, len(text))
            text = text[:cut] + "\n" + text[cut:]
        if rng.random() < 0.02:
            text += " <8>"

        return RawTweet(
            creation_date=self._created_at,
            id=self._next_id,
            lang=lang,
            location=location,
            name=rng.choice(corpora.FIRST_NAMES) + " " + rng.choice(corpora.LAST_NAMES),
            username=rng.choice(corpora.USERNAME_STEMS) + str(rng.randrange(1, 10**4)),
            text=text,
            is_retweet=rng.random() < RETWEET_RATE,
        )


@dataclass
class _Cursor:
    position: int
    expires_at_ms: int


class FirehoseEngine:
    """In-process core of the mock API; the HTTP layer is a thin shim."""

    def __init__(self, seed: int = 0, duplicate_mode: bool = False):
        self._factory = TweetFactory(seed=seed)
        self.duplicate_mode = duplicate_mode
        # Tweets from absolute position _base on; cursor positions are
        # absolute, so trimming the front never moves what they serve.
        self._stream: list[RawTweet] = []
        self._base = 0
        self._cursors: dict[str, _Cursor] = {}
        # One window: _check_auth admits one credential pair.
        self._window = RateWindow()
        self._last_cursorless_ms: int | None = None
        self._token_counter = 0
        self._token_salt = f"{seed}:"
        self._lock = threading.Lock()

    def _check_auth(self, creds: Credentials) -> None:
        if creds != Credentials():
            raise AuthError("bad app key or secret")

    def _issue_token(self, position: int, now_ms: int) -> str:
        self._token_counter += 1
        raw = f"{self._token_salt}{self._token_counter}"
        token = hashlib.sha1(raw.encode("ascii")).hexdigest()[:20]
        self._cursors[token] = _Cursor(position=position, expires_at_ms=now_ms + TOKEN_TTL_MS)
        return token

    def _generate(self, n: int, now_ms: int) -> None:
        for _ in range(n):
            self._stream.append(self._factory.make(now_ms))

    def _trim(self, now_ms: int) -> None:
        """Drop expired cursors, then every tweet before the lowest live
        cursor and the last MAX_PAGE_SIZE tweets (the duplicate-mode tail)."""
        self._cursors = {token: cursor for token, cursor in self._cursors.items()
                         if cursor.expires_at_ms >= now_ms}
        end = self._base + len(self._stream)
        keep_from = min((c.position for c in self._cursors.values()), default=end)
        keep_from = min(keep_from, end - MAX_PAGE_SIZE)
        if keep_from > self._base:
            del self._stream[: keep_from - self._base]
            self._base = keep_from

    def search(
        self,
        credentials: Credentials,
        count: int = MAX_PAGE_SIZE,
        next_token: str | None = None,
        *,
        now_ms: int,
    ) -> ApiPage:
        """Serve one page. Quota is charged before the token is examined,
        so a bad token still burns a request, as on the real service."""
        with self._lock:
            self._check_auth(credentials)
            window = self._window
            window.roll(now_ms)
            if window.used >= RATE_LIMIT_CAPACITY:
                raise RateLimitError(window.reset_at_ms())
            window.used += 1
            if count < 1:
                raise ValueError(f"count must be positive, got {count}")
            count = min(count, MAX_PAGE_SIZE)

            end = self._base + len(self._stream)
            if next_token is not None:
                cursor = self._cursors.get(next_token)
                if cursor is None or now_ms > cursor.expires_at_ms:
                    self._cursors.pop(next_token, None)
                    raise BadTokenError("unknown or expired pagination token")
                start = cursor.position
                shortfall = start + count - end
                if shortfall > 0:
                    self._generate(shortfall, now_ms)
            else:
                stale = (
                    self.duplicate_mode
                    and self._last_cursorless_ms is not None
                    and now_ms - self._last_cursorless_ms < DUPLICATE_WINDOW_MS
                    and self._stream
                )
                if stale:
                    # Too soon: the stream has not "moved", so the caller
                    # gets the same tail it already saw.
                    start = max(0, end - count)
                else:
                    start = end
                    self._generate(count, now_ms)
                self._last_cursorless_ms = now_ms

            offset = start - self._base
            page = self._stream[offset : offset + count]
            token = self._issue_token(start + len(page), now_ms)
            self._trim(now_ms)
            return ApiPage(
                tweets=page,
                next_token=token,
                remaining=RATE_LIMIT_CAPACITY - window.used,
                reset_at_ms=window.reset_at_ms(),
            )
