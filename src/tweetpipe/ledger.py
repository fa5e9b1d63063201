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

import fcntl
import json
import logging
import mmap
import os
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from json.encoder import encode_basestring

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


def _is_count(value) -> bool:
    """An int that is not a bool, which JSON would write as true or false."""
    return isinstance(value, int) and not isinstance(value, bool)


def valid_retention_days(value) -> bool:
    """A disclosure's retention_days: a count of at least one day."""
    return _is_count(value) and value >= 1


def _entry_template(event, beneficiary, purpose, retention_days, cites: bool) -> tuple[str, str]:
    """The constant text of one shape's entries, rendered by encode_json:
    what comes between seq and subject_code, and between subject_code and
    at. An entry's line is what encode_json writes for its dict, with the
    keys in this order: seq, event, subject_code, beneficiary, purpose,
    retention_days, at, and disclosure_seq when it cites one.

    The shape rules raise ValidationError: only a disclosure, and every
    disclosure, has a beneficiary and a purpose, both strings, and a
    positive retention_days; only a delivery_failed entry, and every one,
    cites a seq.
    """
    if event not in EVENTS:
        raise ValidationError(f"unknown event type: {event!r}")
    if event == EVENT_DISCLOSURE:
        if not beneficiary or not isinstance(beneficiary, str):
            raise ValidationError("disclosure requires a beneficiary")
        if not purpose or not isinstance(purpose, str):
            raise ValidationError("disclosure requires a purpose")
        if not valid_retention_days(retention_days):
            raise ValidationError("disclosure requires positive retention_days")
    elif beneficiary is not None or purpose is not None or retention_days is not None:
        raise ValidationError(f"{event} entries cannot carry disclosure fields")
    if event == EVENT_DELIVERY_FAILED and not cites:
        raise ValidationError("delivery_failed must cite an earlier entry's seq")
    if event != EVENT_DELIVERY_FAILED and cites:
        raise ValidationError("disclosure_seq is only valid on delivery_failed entries")
    return (f', "event": {encode_json(event)}, "subject_code": ',
            f', "beneficiary": {encode_json(beneficiary)}, "purpose": {encode_json(purpose)}, '
            f'"retention_days": {encode_json(retention_days)}, "at": ')


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
    """Append-only file of lines, opened by open() or the first append.

    The newline commits a line. A final line without one is torn: a read
    skips it, and the open finds the end of the last committed line
    from the file's tail and cuts the file back to it. Either logs
    one warning per torn tail, giving path and byte offset but no
    content; a read-only user changes nothing. Appends take whole lines
    and are flushed; a subclass may also write lines that wait in the
    file's buffer. sync() flushes and fsyncs, and the first sync after
    the log created its file fsyncs the directory too, so that the file
    itself survives a power loss. The JSON subclasses store one object
    per line, and any other committed line raises the class's `error`
    with path:line on replay.

    Every log has one writer. It notes the file's size and modification
    time when it is made, before a subclass reads state from the file
    (the ledger's last seq, the vault's bindings); its open takes an
    exclusive flock, held until close, and refuses to write if another
    process holds it, or if the file changed since the note.
    """

    error: type[Exception] = ValueError

    def __init__(self, path):
        self.path = str(path)
        self._fh = None
        self._new_file = False  # created by this log, directory not yet fsynced
        self.torn_at: int | None = None  # committed end of the torn tail warned about
        try:  # (size, mtime) that the open checks; (0, None) for no file
            st = os.stat(self.path)
            self._state = st.st_size, st.st_mtime_ns
        except FileNotFoundError:
            self._state = 0, None

    def _lock(self, fd: int) -> None:
        """Take the one-writer lock on fd and check the file against the
        noted state; either failure raises the class's error."""
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise self.error(f"{self.path}: in use by another process") from None
        st, (size, mtime) = os.fstat(fd), self._state
        if st.st_size != size or mtime not in (None, st.st_mtime_ns):
            raise self.error(f"{self.path}: changed by another process since it was opened")

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

    def open(self) -> None:
        """Open the file for appending, unless it is open: create its
        directory, take the one-writer lock, and cut a torn tail. The
        first write opens it; a caller opens it earlier to be refused
        before it does other work."""
        if self._fh is not None:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._new_file = not os.path.exists(self.path)
        fh = open(self.path, "ab")
        try:
            self._lock(fh.fileno())
        except BaseException:
            fh.close()
            raise
        self._fh = fh
        self._cut_torn_tail()

    def _write(self, lines: bytes) -> None:
        """Write whole lines, each ending in a newline, to the file's buffer;
        they reach the file when it fills, or at the next flush."""
        if self._fh is None:
            self.open()
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
            _fsync_directory_of(self.path)
            self._new_file = False

    def close(self) -> None:
        if self._fh is not None:
            fh, self._fh = self._fh, None
            with fh:  # note what a later open checks
                fh.flush()
                st = os.fstat(fh.fileno())
                self._state = st.st_size, st.st_mtime_ns

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fsync_directory_of(path: str) -> None:
    """fsync the directory that holds path, so that the name survives a
    power loss as well as the file's contents."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def replaced_text(path, newline: str):
    """A UTF-8 text handle whose contents replace the file at path.

    The text goes to path + ".tmp" in the same directory, created if
    missing. When the block ends it is flushed and fsynced, os.replace
    moves it over path, and the directory is fsynced, so a reader, after
    a crash or a power loss too, sees the old file or the whole new one,
    never one cut short. On an error the temporary file is removed and
    path is left as it was.
    """
    tmp = f"{path}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_directory_of(tmp)
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
        self._templates: dict[tuple, tuple[str, str]] = {}  # by entry shape; see _entry_line
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
        """Check the whole file: every committed line is a JSON object, the
        seqs run gaplessly from 1, and each entry, its seq and at set
        aside, holds only record's arguments and passes the checks record
        makes. Returns the number of entries; the first fault raises
        ValidationError with path:line."""
        count = 0
        for line_num, entry in self._replay():
            seq = entry.pop("seq", None)
            if type(seq) is not int or seq != count + 1:
                raise self._error_at(line_num, f"sequence gap (expected {count + 1}, found {seq})")
            entry.pop("at", None)
            try:
                self._entry_line(seq, "", **entry)
            except (TypeError, ValidationError) as exc:
                raise self._error_at(line_num, str(exc))
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

        Disclosures must name a beneficiary and a purpose, both strings,
        and a positive retention_days, and only they may. disclosure_seq,
        the earlier entry it cites, exists only for delivery_failed
        entries, which must have one. Fields that make no sense for an
        event are rejected rather than silently dropped.
        """
        return self.record_all([{"event": event, "subject_code": subject_code,
                                 "beneficiary": beneficiary, "purpose": purpose,
                                 "retention_days": retention_days,
                                 "disclosure_seq": disclosure_seq}])[0]

    def record_all(self, entries) -> list[int]:
        """Append one entry per dict of record's keyword arguments; returns
        their seqs. Every entry is checked before any is written; then the
        batch goes out in one append and one fsync. The entries share one
        `at`, so a batch never reads as going back in time."""
        first = self._seq + 1
        at_json = encode_basestring(iso_utc(self._clock.now_ms()))
        self._commit([self._entry_line(seq, at_json, **fields)
                      for seq, fields in enumerate(entries, first)])
        return list(range(first, self._seq + 1))

    def record_breach(self, affected_codes) -> list[int]:
        """One breach_notice entry per affected code, written as record_all
        writes them; returns their seqs."""
        codes = list(affected_codes)
        if not codes:
            raise ValidationError("a breach notice needs at least one affected code")
        return self.record_all({"event": EVENT_BREACH, "subject_code": code} for code in codes)

    def _entry_line(self, seq: int, at_json: str, event: str, subject_code: str,
                    beneficiary=None, purpose=None, retention_days=None,
                    disclosure_seq=None) -> str:
        """The line of the entry numbered seq, from record's arguments (an
        unknown or missing one raises TypeError) and the JSON string of its
        at. The entry rules run here on every entry: subject_code is a
        non-empty string, and a cited seq is an earlier entry's. The shape
        rules run in _entry_template, once per shape: event, beneficiary,
        purpose and retention_days (with its type), and whether it cites."""
        cites = disclosure_seq is not None
        shape = (event, beneficiary, purpose, retention_days, type(retention_days), cites)
        try:
            template = self._templates.get(shape)
        except TypeError:  # an unhashable field, which the shape rules refuse
            template = None
        if template is None:
            template = self._templates[shape] = _entry_template(
                event, beneficiary, purpose, retention_days, cites)
        if not subject_code or not isinstance(subject_code, str):
            raise ValidationError("subject_code is required")
        end = "}\n"
        if cites:
            if not _is_count(disclosure_seq) or not 0 < disclosure_seq < seq:
                raise ValidationError("delivery_failed must cite an earlier entry's seq")
            # int.__repr__ is how encode_json writes an int, subclasses too.
            end = f', "disclosure_seq": {int.__repr__(disclosure_seq)}}}\n'
        mid, rest = template
        return f'{{"seq": {seq}{mid}{encode_basestring(subject_code)}{rest}{at_json}{end}'

    def _commit(self, lines: list[str]) -> None:
        """Write the entries' lines, each ending in a newline, in one append,
        fsync unless turned off, and advance the sequence past them; no
        entries write nothing."""
        if not lines:
            return
        self.append("".join(lines).encode())
        if self._fsync:
            self.sync()
        self._seq += len(lines)

    def transparency_report(self, code: str) -> str:
        """Human-readable account of everything logged about a code.

        Failed deliveries get their section only when the code has some,
        so a ledger without them reports as it always did.
        """
        found: dict[str, list[str]] = {event: [] for event in EVENTS}
        for line_num, e in self._replay(json.dumps(code, ensure_ascii=False).encode()):
            try:
                if e["subject_code"] != code or e["event"] not in found:
                    continue
                if e["event"] == EVENT_DISCLOSURE:
                    what = (f"shared with {e['beneficiary']} for {e['purpose']}, "
                            f"retention {e['retention_days']} days")
                elif e["event"] == EVENT_DELIVERY_FAILED:
                    what = f"delivery of entry {e['disclosure_seq']} failed"
                else:
                    what = ("binding erased" if e["event"] == EVENT_ERASURE
                            else "breach notification")
                found[e["event"]].append(f"  - {e['at']}: {what} (entry {e['seq']})")
            except KeyError as exc:
                raise self._error_at(line_num, f"entry has no {exc.args[0]!r} field") from None
        lines = [f"Transparency report for {code}"]
        for title, event in (("Disclosures", EVENT_DISCLOSURE),
                             ("Failed deliveries", EVENT_DELIVERY_FAILED),
                             ("Erasures", EVENT_ERASURE), ("Breach notices", EVENT_BREACH)):
            if found[event] or event != EVENT_DELIVERY_FAILED:
                lines += [f"{title}:", *(found[event] or ["  (none)"])]
        return "\n".join(lines) + "\n"
