"""Append-only compliance ledger, and the line log under it, the vault,
the directory sinks and the crawl files; and the one writer of whole
files, which replaces them.

Every data handover, erasure, failed delivery and breach notification
is one JSON object on its own line, numbered by a gapless sequence that
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
EVENT_BREACH = "breach_notice"
# A disclosure whose bundle the sink did not confirm; cites the disclosure.
EVENT_DELIVERY_FAILED = "delivery_failed"
EVENTS = (EVENT_DISCLOSURE, EVENT_ERASURE, EVENT_BREACH, EVENT_DELIVERY_FAILED)

# One call of the C JSON scanner: (value, end) of the value at the start
# of a str.
_scan = json.JSONDecoder().raw_decode
# The text of every JSON line the package writes, as json.dumps(obj,
# ensure_ascii=False) renders it; json.dumps builds a new encoder on each
# call that passes an option, this one is built once.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


class ValidationError(ValueError):
    """Entry fields do not satisfy the per-event requirements."""


def _decode(line: bytes) -> dict | None:
    """The JSON object on one committed line, None for a blank line; any
    other line raises ValueError, whose message follows path:line.

    One scanner call decodes a line that is exactly one JSON value. Any
    other line (blank, padded, corrupt, not UTF-8, or with more after the
    value) goes through json.loads, whose verdict and message stand.
    """
    try:
        text = line.decode()
        obj, end = _scan(text)
        exact = end == len(text)
    except ValueError:
        exact = False
    if not exact:
        if not line.strip():
            return None
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"corrupt line: {exc}")
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    return obj


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
    and are flushed; a subclass may also write lines that wait in the
    file's buffer. sync() flushes and fsyncs, and the first sync after
    the log created its file fsyncs the directory too, so that the file
    itself survives a power loss. The JSON subclasses store one object
    per line, and any other committed line raises the class's `error`
    with path:line on replay.
    """

    error: type[Exception] = ValueError

    def __init__(self, path):
        self.path = str(path)
        self._fh = None
        self._new_file = False  # created by this log, directory not yet fsynced
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
        needle, decoded by _decode; nothing if the file does not exist."""
        if not os.path.exists(self.path):
            return
        for line_num, line in self.lines(needle):
            try:
                obj = _decode(line)
            except ValueError as exc:
                raise self._error_at(line_num, str(exc))
            if obj is not None:
                yield line_num, obj

    def _warn_torn(self, committed: int) -> None:
        if self.torn_at != committed:
            log.warning("%s: skipping a torn final line at byte %d", self.path, committed)
            self.torn_at = committed

    def _committed_end(self, m: mmap.mmap) -> int:
        """The end of the last committed line of the mapped file m, searched
        from its tail; warns about a torn line after it."""
        committed = m.rfind(b"\n") + 1  # rfind reads from the end back
        if committed < len(m):
            self._warn_torn(committed)
        return committed

    def _cut_torn_tail(self) -> None:
        """Truncate the file to just past its last newline (to 0 if none)."""
        size = os.path.getsize(self.path)
        if size == 0:
            return
        with open(self.path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as m:
            committed = self._committed_end(m)
        if committed < size:
            self._fh.truncate(committed)

    def _last_line(self) -> tuple[int, bytes] | None:
        """(byte offset, line) of the last committed line that is not blank,
        found from the file's tail; None if there is none."""
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return None
        with open(self.path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as m:
            end = self._committed_end(m) - 1
            while end >= 0:
                start = m.rfind(b"\n", 0, end) + 1
                line = m[start:end]
                if line.strip():
                    return start, line
                end = start - 1
        return None

    def _line_number(self, offset: int) -> int:
        """The number of the line that starts at byte offset, counted in
        blocks up to it."""
        line_num = 1
        with open(self.path, "rb") as fh:
            while offset > 0 and (block := fh.read(min(offset, 1 << 16))):
                line_num += block.count(b"\n")
                offset -= len(block)
        return line_num

    def _write(self, lines: bytes) -> None:
        """Write whole lines, each ending in a newline, to the file's buffer;
        they reach the file when it fills, or at the next flush."""
        if self._fh is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._new_file = not os.path.exists(self.path)
            self._fh = open(self.path, "ab")
            self._cut_torn_tail()
        self._fh.write(lines)

    def append(self, lines: bytes) -> None:
        """Append whole lines, each ending in a newline, in one write and flush."""
        self._write(lines)
        self._fh.flush()

    def sync(self) -> None:
        """Flush and fsync every write so far, and after the log created its
        file, fsync its directory once; nothing to do before the first write."""
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        if self._new_file:
            fd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            self._new_file = False

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

    Entries are flushed and fsynced before `record`, `record_all` or
    `record_breach` returns (set fsync=False to trade durability for bulk
    speed); a batch, such as the disclosures of one dispatch group or a
    breach notice, is one append and one fsync. A torn final entry is
    cut as LineLog describes. Opening reads only the last committed entry,
    found from the file's tail, and resumes the sequence after its seq;
    verify() checks the whole file. No entry stays in memory: reports
    stream the file.
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
        self._seq = self._last_seq()  # of the last entry

    def _last_seq(self) -> int:
        """The seq of the last committed entry, 0 if there is none; a last
        line that is not an entry with a positive seq raises with path:line."""
        found = self._last_line()
        if found is None:
            return 0
        start, line = found
        try:
            seq = _decode(line).get("seq")
        except ValueError as exc:
            raise self._error_at(self._line_number(start), str(exc))
        if type(seq) is not int or seq < 1:
            raise self._error_at(self._line_number(start),
                                 f"last entry has no positive seq (found {seq!r})")
        return seq

    def verify(self) -> int:
        """Check the whole file: every committed line is a JSON object and
        the seqs run gaplessly from 1. Returns the number of entries; the
        first fault raises ValidationError with path:line."""
        count = 0
        for line_num, entry in self._replay():
            if entry.get("seq") != count + 1:
                raise self._error_at(
                    line_num, f"sequence gap (expected {count + 1}, found {entry.get('seq')})")
            count += 1
        return count

    def __len__(self) -> int:
        return self._seq

    def record(
        self,
        event: str,
        subject_code: str,
        beneficiary: str | None = None,
        purpose: str | None = None,
        retention_days: int | None = None,
        disclosure_seq: int | None = None,
    ) -> int:
        """Append one entry; returns its sequence number.

        Disclosures must name beneficiary, purpose and a positive
        retention_days, and only they may. disclosure_seq, the earlier
        entry it cites, exists only for delivery_failed entries, which
        must have one. Fields that make no sense for an event are
        rejected rather than silently dropped.
        """
        entry = self._entry(self._seq + 1, self._iso_now(), event, subject_code, beneficiary,
                            purpose, retention_days, disclosure_seq)
        self._commit([encode_json(entry)])
        return self._seq

    def record_all(self, entries) -> list[int]:
        """Append one entry per dict of record's keyword arguments; returns
        their seqs. Every entry is checked before any is written; then the
        batch goes out in one append and one fsync. The entries share one
        `at`, so a batch never reads as going back in time."""
        first, at = self._seq + 1, self._iso_now()
        self._commit([encode_json(self._entry(seq, at, **fields))
                      for seq, fields in enumerate(entries, first)])
        return list(range(first, self._seq + 1))

    def record_breach(self, affected_codes) -> list[int]:
        """One breach_notice entry per affected code, written as record_all
        writes them; returns their seqs."""
        codes = list(affected_codes)
        if not codes:
            raise ValidationError("a breach notice needs at least one affected code")
        return self.record_all({"event": EVENT_BREACH, "subject_code": code} for code in codes)

    def _entry(self, seq: int, at: str, event: str, subject_code: str, beneficiary=None,
               purpose=None, retention_days=None, disclosure_seq=None) -> dict:
        """The entry numbered seq and stamped at, after the checks record
        describes."""
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
        elif beneficiary is not None or purpose is not None or retention_days is not None:
            raise ValidationError(f"{event} entries cannot carry disclosure fields")
        if event == EVENT_DELIVERY_FAILED:
            if not isinstance(disclosure_seq, int) or not 1 <= disclosure_seq < seq:
                raise ValidationError("delivery_failed must cite an earlier entry's seq")
        elif disclosure_seq is not None:
            raise ValidationError("disclosure_seq is only valid on delivery_failed entries")

        entry = {
            "seq": seq,
            "event": event,
            "subject_code": subject_code,
            "beneficiary": beneficiary,
            "purpose": purpose,
            "retention_days": retention_days,
            "at": at,
        }
        if disclosure_seq is not None:
            entry["disclosure_seq"] = disclosure_seq
        return entry

    def _commit(self, lines: list[str]) -> None:
        """Write the encoded entries in one append, fsync unless turned off,
        and advance the sequence past them; no entries write nothing."""
        if not lines:
            return
        self.append("".join([line + "\n" for line in lines]).encode())
        if self._fsync:
            self.sync()
        self._seq += len(lines)

    def _iso_now(self) -> str:
        second = self._clock.now_ms() // 1000
        if second != self._at_second:
            self._at_second = second
            self._at = iso_utc(second * 1000)
        return self._at

    def transparency_report(self, code: str) -> str:
        """Human-readable account of everything logged about a code.

        Failed deliveries get their section only when the code has some,
        so a ledger without them reports as it always did.
        """
        found: dict[str, list[str]] = {event: [] for event in EVENTS}
        for _line_num, e in self._replay(json.dumps(code, ensure_ascii=False).encode()):
            if e["subject_code"] != code or e["event"] not in found:
                continue
            if e["event"] == EVENT_DISCLOSURE:
                what = (f"shared with {e['beneficiary']} for {e['purpose']}, "
                        f"retention {e['retention_days']} days")
            elif e["event"] == EVENT_DELIVERY_FAILED:
                what = f"delivery of entry {e['disclosure_seq']} failed"
            else:
                what = "binding erased" if e["event"] == EVENT_ERASURE else "breach notification"
            found[e["event"]].append(f"  - {e['at']}: {what} (entry {e['seq']})")
        lines = [f"Transparency report for {code}"]
        for title, event in (("Disclosures", EVENT_DISCLOSURE),
                             ("Failed deliveries", EVENT_DELIVERY_FAILED),
                             ("Erasures", EVENT_ERASURE), ("Breach notices", EVENT_BREACH)):
            if found[event] or event != EVENT_DELIVERY_FAILED:
                lines += [f"{title}:", *(found[event] or ["  (none)"])]
        return "\n".join(lines) + "\n"
