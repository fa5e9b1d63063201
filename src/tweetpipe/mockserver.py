"""HTTP front of the mock search API.

Serves a ``firehose.FirehoseEngine`` on localhost for end-to-end runs.
The ``x-virtual-now-ms`` request header lets a client drive the server
from an injected clock so virtual-time runs stay in lockstep. Only the
commands that serve the mock import this module, so the rest of the
program never loads ``http.server``.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from urllib.parse import parse_qs, urlparse

from .clock import SystemClock
from .firehose import (
    MAX_PAGE_SIZE,
    SEARCH_PATH,
    ApiPage,
    AuthError,
    BadTokenError,
    Credentials,
    FirehoseEngine,
    RateLimitError,
    RawTweet,
)

log = logging.getLogger(__name__)

def page_json(page: ApiPage) -> str:
    """The search API's JSON text for one page: byte for byte what
    json.dumps writes for {"statuses": [status objects], "next": token}."""
    return (f'{{"statuses": [{", ".join(map(status_json, page.tweets))}], '
            f'"next": {encode_basestring_ascii(page.next_token)}}}')


def status_json(tweet: RawTweet) -> str:
    """The tweet as the search API serializes one status.

    The text is byte for byte what json.dumps writes for the status
    object with its default separators, filled into a template with
    json's C string encoder instead of building a dict per tweet.
    """
    enc = encode_basestring_ascii
    return (f'{{"created_at": {enc(tweet.creation_date)}, "id_str": "{tweet.id}", '
            f'"lang": {enc(tweet.lang)}, "user": {{"location": {enc(tweet.location)}, '
            f'"name": {enc(tweet.name)}, "screen_name": {enc(tweet.username)}}}, '
            f'"text": {enc(tweet.text)}, '
            f'"retweeted_status_present": {"true" if tweet.is_retweet else "false"}}}')


class _Handler(BaseHTTPRequestHandler):
    engine: FirehoseEngine  # set by the server factory

    # Keep-alive: every response carries Content-Length, so a client can
    # send its next request on the same connection.
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # second waits for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        log.debug("mock api: " + fmt, *args)

    def _send(self, status: int, text: str, headers: dict | None = None) -> None:
        """Send a JSON text, which is ASCII as json.dumps writes it."""
        body = text.encode("ascii")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _credentials(self) -> Credentials:
        return Credentials(
            app_key=self.headers.get("x-app-key", ""),
            app_secret=self.headers.get("x-app-secret", ""),
        )

    def _now_ms(self) -> int:
        virtual = self.headers.get("x-virtual-now-ms")
        return int(virtual) if virtual is not None else SystemClock().now_ms()

    def do_GET(self):  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        try:
            if parsed.path == SEARCH_PATH:
                self._do_search(parse_qs(parsed.query))
            else:
                self._send(404, json.dumps({"error": "not found"}))
        except AuthError as exc:
            self._send(401, json.dumps({"error": str(exc)}))
        except RateLimitError as exc:
            self._send(
                429,
                json.dumps({"error": str(exc), "reset_at_ms": exc.reset_at_ms}),
                headers={"x-rate-limit-remaining": "0",
                         "x-rate-limit-reset-ms": str(exc.reset_at_ms)},
            )
        except (BadTokenError, ValueError) as exc:
            self._send(400, json.dumps({"error": str(exc)}))

    def _do_search(self, params: dict) -> None:
        count = int(params.get("count", [str(MAX_PAGE_SIZE)])[0])
        token = params.get("next", [None])[0]
        page = self.engine.search(
            self._credentials(), count=count, next_token=token, now_ms=self._now_ms()
        )
        self._send(
            200,
            page_json(page),
            headers={"x-rate-limit-remaining": str(page.remaining),
                     "x-rate-limit-reset-ms": str(page.reset_at_ms)},
        )


class MockFirehoseServer:
    """Serve a FirehoseEngine on an ephemeral localhost port.

    A thread accepts connections, each served on a thread of its own,
    until stop() writes to a wake-up socket that the accepting thread
    watches beside the listening one, so stop() waits for no poll.

    Usable as a context manager:

        with MockFirehoseServer(engine) as server:
            run_crawl(CrawlConfig(endpoint=server.url, ...), clock)
    """

    def __init__(self, engine: FirehoseEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("server not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockFirehoseServer":
        handler = type("BoundHandler", (_Handler,), {"engine": self.engine})
        self._httpd = ThreadingHTTPServer((self._host, self._port), handler)
        self._wake = socket.socketpair()
        self._thread = threading.Thread(target=self._accept, args=(self._httpd, self._wake[0]),
                                        daemon=True)
        self._thread.start()
        log.info("mock api listening on %s", self.url)
        return self

    @staticmethod
    def _accept(httpd: ThreadingHTTPServer, wake: socket.socket) -> None:
        """Hand each incoming connection to httpd until wake is readable."""
        with selectors.DefaultSelector() as selector:
            selector.register(httpd, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            while all(key.fileobj is httpd for key, _ in selector.select()):
                httpd.handle_request()  # the listening socket is readable: no wait

    def stop(self) -> None:
        if self._thread is not None:
            self._wake[1].send(b"\0")
            self._thread.join(timeout=5)
            self._thread = None
        if self._wake is not None:
            for sock in self._wake:
                sock.close()
            self._wake = None
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None

    def __enter__(self) -> "MockFirehoseServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
