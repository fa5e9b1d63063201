"""Append-only compliance ledger, and the line log under it, the vault,
the directory sinks and the crawl files; and the one writer of whole
files, which replaces them.

Every data handover, erasure, consent and breach notification is one
JSON object on its own line, numbered by a gapless sequence that
survives restarts. Entries reference users only by pseudonym code; raw
identifiers must never reach this file, because the ledger is meant to
be shown around (regulators, transparency requests, post-incident
review).
"""

from __future__ import annotations

import json
import logging
import mmap
import os
from contextlib import contextmanager, suppress
from datetime import datetime, timezone

from .clock import SystemClock

log = logging.getLogger(__name__)

EVENT_DISCLOSURE = "disclosure"
EVENT_ERASURE = "erasure"
EVENT_CONSENT = "consent"
EVENT_BREACH = "breach_notice"
EVENTS = (EVENT_DISCLOSURE, EVENT_ERASURE, EVENT_CONSENT, EVENT_BREACH)

# One call of the C JSON scanner: (value, end) of the value at the start
# of a str.
_scan = json.JSONDecoder().raw_decode


class ValidationError(ValueError):
    """Entry fields do not satisfy the per-event requirements."""


def iso_utc(ts_ms: int) -> str:
    """Second-resolution ISO-8601 UTC rendering of a millisecond timestamp."""
    dt = datetime.fromtimestamp(ts_ms / 1000.0, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


class LineLog:
    """Append-only file of lines, opened on the first append.

    The newline commits a line. A final line without one is torn: a read
    skips it, and the first append finds the end of the last committed
    line from the file's tail and cuts the file back to it. Either logs
    one warning per torn tail, giving path and byte offset but no
    content; a read-only user changes nothing. Appends take whole lines
    and are flushed; sync() fsyncs. The JSON subclasses store one object
    per line, and any other committed line raises the class's `error`
    with path:line on replay.
    """

    error: type[Exception] = ValueError

    def __init__(self, path):
        self.path = str(path)
        self._fh = None
        self.torn_at: int | None = None  # committed end of the torn tail warned about

    def _error_at(self, line_num: int, message: str) -> Exception:
        return self.error(f"{self.path}:{line_num}: {message}")

    def lines(self, needle: bytes = b""):
        """Yield (line_num, line) for each committed line containing needle,
        without its newline; blocks of whole lines without it are skipped
        unsplit. A torn final line is not yielded: it sets torn_at."""
        line_num, committed, rest = 0, 0, b""
        with open(self.path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                block = rest + chunk
                end = block.rfind(b"\n") + 1
                block, rest = block[:end], block[end:]
                committed += end
                if needle not in block:
                    line_num += block.count(b"\n")
                    continue
                for line in block.split(b"\n")[:-1]:
                    line_num += 1
                    if needle in line:
                        yield line_num, line
        if rest:
            self._warn_torn(committed)

    def _replay(self, needle: bytes = b""):
        """Yield (line_num, obj) for each committed non-blank line containing
        needle, parsed as a JSON object; nothing if the file does not exist.

        One scanner call decodes a line that is exactly one JSON value. Any
        other line (blank, padded, corrupt, not UTF-8, or with more after
        the value) goes through json.loads, whose verdict and message stand.
        """
        if not os.path.exists(self.path):
            return
        for line_num, line in self.lines(needle):
            try:
                text = line.decode()
                obj, end = _scan(text)
                exact = end == len(text)
            except ValueError:
                exact = False
            if not exact:
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    raise self._error_at(line_num, f"corrupt line: {exc}")
            if not isinstance(obj, dict):
                raise self._error_at(line_num, "line is not a JSON object")
            yield line_num, obj

    def _warn_torn(self, committed: int) -> None:
        if self.torn_at != committed:
            log.warning("%s: skipping a torn final line at byte %d", self.path, committed)
            self.torn_at = committed

    def _cut_torn_tail(self) -> None:
        """Truncate the file to just past its last newline (to 0 if none)."""
        size = os.path.getsize(self.path)
        if size == 0:
            return
        with open(self.path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as m:
            committed = m.rfind(b"\n") + 1  # rfind reads from the end back
        if committed < size:
            self._warn_torn(committed)
            self._fh.truncate(committed)

    def append(self, lines: bytes) -> None:
        """Append whole lines, each ending in a newline, in one write and flush."""
        if self._fh is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._fh = open(self.path, "ab")
            self._cut_torn_tail()
        self._fh.write(lines)
        self._fh.flush()

    def _append(self, *objs: dict) -> None:
        """Append each object as one JSON line, all in one append."""
        self.append("".join([json.dumps(o, ensure_ascii=False) + "\n" for o in objs]).encode())

    def sync(self) -> None:
        """fsync every append so far; nothing to do before the first."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def replaced_text(path, newline: str):
    """A UTF-8 text handle whose contents replace the file at path.

    The text goes to path + ".tmp" in the same directory, which
    os.replace then moves over path when the block ends, so a reader
    sees the old file or the whole new one, never one cut short. On an
    error the temporary file is removed and path is left as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class ComplianceLedger(LineLog):
    """Durable audit log with per-event validation.

    Entries are flushed and fsynced before `record` or `record_breach`
    returns (set fsync=False to trade durability for bulk speed); a
    breach batch is one append and one fsync. A torn final entry
    is cut as LineLog describes. On open, an existing file is
    replayed once to resume the sequence gaplessly. No entry stays in
    memory: reports stream the file again.
    """

    error = ValidationError

    def __init__(self, path, clock=None, fsync: bool = True):
        super().__init__(path)
        self._clock = clock or SystemClock()
        self._fsync = fsync
        # iso_utc has one-second resolution, so entries written within the
        # same second share one rendering.
        self._at_second: int | None = None
        self._at = ""
        self._seq = 0  # of the last entry
        for line_num, entry in self._replay():
            if entry.get("seq") != self._seq + 1:
                raise self._error_at(
                    line_num, f"sequence gap (expected {self._seq + 1}, found {entry.get('seq')})")
            self._seq += 1

    def __len__(self) -> int:
        return self._seq

    def record(
        self,
        event: str,
        subject_code: str,
        beneficiary: str | None = None,
        purpose: str | None = None,
        retention_days: int | None = None,
        minor: bool | None = None,
    ) -> int:
        """Append one entry; returns its sequence number.

        Disclosures must name beneficiary, purpose and a positive
        retention_days. The minor flag exists only for consent entries.
        Fields that make no sense for an event are rejected rather than
        silently dropped.
        """
        self._commit([self._entry(self._seq + 1, event, subject_code, beneficiary, purpose,
                                  retention_days, minor)])
        return self._seq

    def record_breach(self, affected_codes) -> list[int]:
        """One breach_notice entry per affected code; returns their seqs.

        Every code is checked before any entry is written; then the batch
        goes out in one append and one fsync.
        """
        codes = list(affected_codes)
        if not codes:
            raise ValidationError("a breach notice needs at least one affected code")
        entries = [self._entry(self._seq + i, EVENT_BREACH, code)
                   for i, code in enumerate(codes, 1)]
        self._commit(entries)
        return [e["seq"] for e in entries]

    def _entry(self, seq: int, event: str, subject_code: str, beneficiary=None,
               purpose=None, retention_days=None, minor=None) -> dict:
        """The entry numbered seq, after the checks record describes."""
        if event not in EVENTS:
            raise ValidationError(f"unknown event type: {event!r}")
        if not subject_code or not isinstance(subject_code, str):
            raise ValidationError("subject_code is required")
        if event == EVENT_DISCLOSURE:
            if not beneficiary:
                raise ValidationError("disclosure requires a beneficiary")
            if not purpose:
                raise ValidationError("disclosure requires a purpose")
            if not isinstance(retention_days, int) or retention_days < 1:
                raise ValidationError("disclosure requires positive retention_days")
        else:
            if beneficiary is not None or retention_days is not None:
                raise ValidationError(f"{event} entries cannot carry disclosure fields")
            if purpose is not None and event != EVENT_CONSENT:
                raise ValidationError(f"{event} entries cannot carry a purpose")
        if minor is not None and event != EVENT_CONSENT:
            raise ValidationError("minor flag is only valid on consent entries")

        entry = {
            "seq": seq,
            "event": event,
            "subject_code": subject_code,
            "beneficiary": beneficiary,
            "purpose": purpose,
            "retention_days": retention_days,
            "at": self._iso_now(),
        }
        if minor is not None:
            entry["minor"] = bool(minor)
        return entry

    def _commit(self, entries: list[dict]) -> None:
        """Write the entries in one append, fsync unless turned off, and
        advance the sequence past them."""
        self._append(*entries)
        if self._fsync:
            self.sync()
        self._seq += len(entries)

    def _iso_now(self) -> str:
        second = self._clock.now_ms() // 1000
        if second != self._at_second:
            self._at_second = second
            self._at = iso_utc(second * 1000)
        return self._at

    def transparency_report(self, code: str) -> str:
        """Human-readable account of everything logged about a code."""
        found: dict[str, list[str]] = {event: [] for event in EVENTS}
        for _line_num, e in self._replay(json.dumps(code, ensure_ascii=False).encode()):
            if e["subject_code"] != code or e["event"] not in found:
                continue
            if e["event"] == EVENT_DISCLOSURE:
                what = (f"shared with {e['beneficiary']} for {e['purpose']}, "
                        f"retention {e['retention_days']} days")
            elif e["event"] == EVENT_CONSENT:
                what = "consent recorded" + (f" for {e['purpose']}" if e.get("purpose") else "")
                if e.get("minor"):
                    what += " (minor account)"
            else:
                what = "binding erased" if e["event"] == EVENT_ERASURE else "breach notification"
            found[e["event"]].append(f"  - {e['at']}: {what} (entry {e['seq']})")
        lines = [f"Transparency report for {code}"]
        for title, event in zip(("Disclosures", "Erasures", "Consents", "Breach notices"), EVENTS):
            lines += [f"{title}:", *(found[event] or ["  (none)"])]
        return "\n".join(lines) + "\n"
