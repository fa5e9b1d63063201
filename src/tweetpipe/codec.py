"""Line codec and file naming for crawled tweet records.

A record is seven text fields joined by the literal "<8>" delimiter, one
record per line. The delimiter was chosen over comma or semicolon because
tweet bodies routinely contain those, making field boundaries ambiguous.

Field order: creation date, id, language code, location, display name,
username, tweet text. The creation date is stored verbatim as the string
the source API produced; this codec never parses it.

decode_record returns bare field values, so a reader builds the record
type it needs in one construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from datetime import date, datetime, timezone
from operator import attrgetter

DELIMITER = "<8>"

_CRAWL_PATH = re.compile(r"(\d{2})-(\d{2})-(\d{4})[/\\]tweets-(\d{2}) (AM|PM)\.txt$")


class InvalidRecordError(ValueError):
    """Record violates a codec invariant; sanitize the fields first."""


class FieldCountError(ValueError):
    """A line did not split into exactly seven fields."""

    def __init__(self, field_count: int):
        super().__init__(f"expected 7 fields, got {field_count}")
        self.field_count = field_count


@dataclass(slots=True)
class TweetRecord:
    """One crawled tweet in the seven-field on-disk schema."""

    creation_date: str
    id: str
    lang: str
    location: str
    name: str
    username: str
    text: str

    def fields(self) -> tuple[str, ...]:
        """The seven field values in on-disk order."""
        return _field_values(self)


FIELD_NAMES = tuple(f.name for f in fields(TweetRecord))
_field_values = attrgetter(*FIELD_NAMES)


def sanitize_field(raw: str) -> str:
    """Make a raw string safe to store as a record field.

    Line breaks become a single space each, any embedded "<8>" becomes
    "<8 >" (lossy but unambiguous), and surrounding whitespace is dropped
    so decoding's delimiter-space trimming cannot alter the field.
    Idempotent. Raises TypeError if raw is not a string.
    """
    if not isinstance(raw, str):
        raise TypeError(f"a field must be a string, not {type(raw).__name__}")
    # CRLF first, so that it becomes one space, not two.
    return (raw.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")
            .replace(DELIMITER, "<8 >").strip())


def clean_line(values: tuple[str, ...]) -> str | None:
    """The line for seven raw field values, if sanitize_field would leave
    every one of them as it is; None if it would change any.

    The values are joined once and the line checked once: no line break,
    exactly six delimiters (no value holds one, as encode_record's checks
    explain), and no value with whitespace that str.strip removes at
    either end, tabs and other separators as well as spaces. Such a line
    also passes encode_record's checks on the delimiter, line breaks and
    spaces. Raises TypeError if a value is not a string.
    """
    line = DELIMITER.join(values)
    if ("\n" in line or "\r" in line or line.count(DELIMITER) != len(FIELD_NAMES) - 1
            or tuple(map(str.strip, values)) != values):
        return None
    return line


def encode_record(record: TweetRecord) -> str:
    """Encode a record as a single delimited line.

    Raises InvalidRecordError if a field holds the delimiter, a line
    break or a leading or trailing space (decoding trims one space beside
    each delimiter), if the id is not a non-empty digit string or if the
    location is empty; callers run sanitize_field over untrusted values
    first. The checks run once on the joined line: no proper prefix of
    "<8>" is also its suffix, so no occurrence straddles a field edge, and
    the line holds six exactly when no field holds one.
    """
    line = DELIMITER.join(record.fields())
    if line.count(DELIMITER) != len(FIELD_NAMES) - 1:
        raise InvalidRecordError(f"a field contains the {DELIMITER!r} delimiter")
    if "\n" in line or "\r" in line:
        raise InvalidRecordError("a field contains a line break")
    if (line.startswith(" ") or line.endswith(" ")
            or " " + DELIMITER in line or DELIMITER + " " in line):
        raise InvalidRecordError("a field has leading or trailing space")
    if not record.id.isdigit():
        raise InvalidRecordError("id must be a non-empty decimal-digit string")
    if not record.location:
        raise InvalidRecordError("location must be non-empty")
    return line


def decode_record(line: str) -> list[str]:
    """Decode one line into its seven field values, in on-disk order.

    Accepts both the bare ("a<8>b") and spaced ("a <8> b") delimiter
    forms: at most one leading and one trailing space of each field
    belong to the delimiter convention, never to the field, and are
    dropped. Raises FieldCountError when the split does not yield exactly
    seven fields, which signals a corrupt input line.
    """
    parts = line.split(DELIMITER)
    if len(parts) != len(FIELD_NAMES):
        raise FieldCountError(len(parts))
    return [part.removeprefix(" ").removesuffix(" ") for part in parts]


@dataclass(frozen=True)
class FileLocator:
    """Calendar date and hour identifying one crawl file and its processed file."""

    date: date
    hour: int

    def __post_init__(self) -> None:
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour out of range: {self.hour}")

    @classmethod
    def from_timestamp_ms(cls, ts_ms: int) -> "FileLocator":
        dt = datetime.fromtimestamp(ts_ms / 1000.0, tz=timezone.utc)
        return cls(date=dt.date(), hour=dt.hour)


def _hour_token(hour: int) -> str:
    meridiem = "AM" if hour < 12 else "PM"
    return f"{hour:02d} {meridiem}"


def _date_token(d: date) -> str:
    return f"{d.month:02d}-{d.day:02d}-{d.year:04d}"


def crawl_file_path(loc: FileLocator, root: str = "./data") -> str:
    """Path of the crawl file for a date/hour: <root>/<MM-DD-YYYY>/tweets-<HH> <AM|PM>.txt"""
    return f"{root}/{_date_token(loc.date)}/tweets-{_hour_token(loc.hour)}.txt"


def processed_file_path(loc: FileLocator, root: str = "./data") -> str:
    """Path of the processed file: <root>/<MM-DD-YYYY>-tweets-<HH> <AM|PM>.json"""
    return f"{root}/{_date_token(loc.date)}-tweets-{_hour_token(loc.hour)}.json"


def parse_crawl_file_path(path: str) -> FileLocator:
    """Recover the FileLocator from a crawl file path.

    Raises ValueError if the path does not match the crawl naming scheme
    or the hour and AM/PM marker disagree.
    """
    m = _CRAWL_PATH.search(str(path))
    if m is None:
        raise ValueError(f"not a crawl file path: {path!r}")
    month, day, year, hour, meridiem = m.groups()
    hour_n = int(hour)
    if hour_n > 23:
        raise ValueError(f"hour out of range in path: {path!r}")
    if meridiem != ("AM" if hour_n < 12 else "PM"):
        raise ValueError(f"hour/meridiem mismatch in path: {path!r}")
    return FileLocator(date=date(int(year), int(month), int(day)), hour=hour_n)
