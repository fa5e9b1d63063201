"""Turn crawl files into JSON files with coarse location detection.

Each crawl file is split on newlines, every line is decoded through the
record codec (corrupt lines are counted and skipped, never fatal), the
free-text location is matched against a gazetteer of country and city
names, and the result is written as a JSON array next to the crawl tree,
named after the same date and hour.

The detector is intentionally simple dictionary matching. It mirrors the
accuracy class of off-the-shelf location taggers on profile text: wrong
or missing often, but deterministic and cheap.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import re
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from itertools import product
from json.encoder import encode_basestring
from operator import itemgetter

from .analyzer import ParseError
from .codec import (
    FIELD_NAMES,
    FieldCountError,
    TweetRecord,
    decode_record,
    parse_crawl_file_path,
    processed_file_path,
)
from .ledger import LineLog, replaced_text

log = logging.getLogger(__name__)

GAZETTEER_HEADER = ("city", "country", "aliases")
LOOKUP_MEMO_SIZE = 4096  # free-text locations whose answer a Gazetteer keeps
_LOCATION = FIELD_NAMES.index("location")


@dataclass(frozen=True)
class GazetteerEntry:
    city: str
    country: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.city or not self.country:
            raise ValueError("gazetteer entries need both city and country")


@dataclass(frozen=True)
class _Term:
    """One matchable string with everything needed to rank a hit."""

    text: str
    is_country: bool
    country: str
    city: str | None
    entry_order: int

    @cached_property
    def pattern(self) -> re.Pattern:
        """The word-bounded, case-insensitive regex of the text, compiled
        the first time a lookup probes the term: most never are."""
        return re.compile(r"(?<!\w)" + re.escape(self.text) + r"(?!\w)", re.IGNORECASE)


def _case_key(text: str) -> str:
    """Case key that is equal for any two strings re.IGNORECASE equates.

    re compares characters by their simple lowercase, and also equates
    lowercase letters that share an uppercase (s and long s, i and dotless
    i). Lowercasing and then uppercasing gives each such class one key,
    character by character. 'İ' is replaced first: str.lower() turns it into 'i' plus a combining
    dot, where re's simple lowercase is 'i'.
    """
    return text.replace("\u0130", "i").lower().upper()


class Gazetteer:
    """Prepared lookup structure over a sequence of GazetteerEntry.

    Matching is case-insensitive on word boundaries. Ranking among hits:
    longest matched string first, then earliest occurrence, then country
    terms before city terms, then gazetteer order. Duplicate aliases keep
    their first binding.

    A term regex can only match where no word character precedes it, so
    the terms are indexed by the case key of their first characters (two,
    or one if some term is that short) and a lookup probes the index only
    at those positions. Each term found there is checked exactly as a scan
    over all terms checks it, so the answer is the same.

    Free-text locations repeat, so the answers are kept in a memo of at
    most LOOKUP_MEMO_SIZE texts, emptied when full; a text not in it is
    looked up as above.
    """

    def __init__(self, entries: list[GazetteerEntry]):
        self.entries = list(entries)
        terms: dict[str, _Term] = {}
        for order, entry in enumerate(self.entries):
            country_key = entry.country.lower()
            if country_key not in terms:
                terms[country_key] = _Term(entry.country, True, entry.country, None, order)
            for alias in (entry.city, *entry.aliases):
                key = alias.lower()
                if key and key not in terms:
                    terms[key] = _Term(alias, False, entry.country, entry.city, order)
        prefix = min(2, min((len(t.text) for t in terms.values()), default=1))
        # findall yields the `prefix` characters (fewer at the end) at each
        # position no word character precedes.
        self._starts = re.compile(rf"(?<!\w)(?=(.{{1,{prefix}}}))", re.DOTALL)
        self._index: dict[str, list[tuple[str, _Term]]] = {}
        for t in sorted(terms.values(), key=lambda t: -len(t.text)):
            self._index.setdefault(_case_key(t.text[:prefix]), []).append((t.text.lower(), t))
        self._memo: dict[str, tuple[str | None, str | None]] = {}

    def lookup(self, free_text: str) -> tuple[str | None, str | None]:
        """Best (country, city) guess for a free-text location field.

        A city hit fills in its country; a country-only hit leaves city
        None; no hit at all, or blank text, yields (None, None).
        """
        answer = self._memo.get(free_text)
        if answer is None:
            answer = self._probe(free_text)
            if len(self._memo) >= LOOKUP_MEMO_SIZE:
                self._memo.clear()
            self._memo[free_text] = answer
        return answer

    def _probe(self, free_text: str) -> tuple[str | None, str | None]:
        """lookup's answer, worked out from the index."""
        if not free_text.strip():
            return None, None
        lowered = free_text.lower()
        best: tuple | None = None
        for start in self._starts.findall(free_text):
            for lower_text, term in self._index.get(_case_key(start), ()):
                if lower_text not in lowered:  # cheap prefilter before the regex
                    continue
                m = term.pattern.search(free_text)
                if m is None:
                    continue
                rank = (-len(term.text), m.start(), 0 if term.is_country else 1, term.entry_order)
                if best is None or rank < best[0]:
                    best = (rank, term)
        if best is None:
            return None, None
        term = best[1]
        return term.country, term.city


def load_gazetteer(path) -> list[GazetteerEntry]:
    """Read a gazetteer CSV with columns city,country,aliases.

    Aliases are "|"-separated in the third column. A leading header row
    matching the column names is skipped.
    """
    entries: list[GazetteerEntry] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row_num, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if row_num == 1 and tuple(c.strip().lower() for c in row) == GAZETTEER_HEADER:
                continue
            if len(row) < 2:
                raise ParseError(path, row_num, "expected city,country[,aliases]")
            aliases: tuple[str, ...] = ()
            if len(row) >= 3 and row[2].strip():
                aliases = tuple(a.strip() for a in row[2].split("|") if a.strip())
            try:
                entries.append(GazetteerEntry(row[0].strip(), row[1].strip(), aliases))
            except ValueError as exc:
                raise ParseError(path, row_num, str(exc)) from exc
    return entries


def default_gazetteer() -> Gazetteer:
    """The bundled fixture gazetteer (about 100 countries, 200 cities)."""
    ref = resources.files("tweetpipe.data").joinpath("gazetteer.csv")
    with resources.as_file(ref) as path:
        return Gazetteer(load_gazetteer(path))


@dataclass
class ProcessedTweet(TweetRecord):
    """A decoded record plus the detector's country/city verdict."""

    country: str | None = None
    city: str | None = None

    def __post_init__(self) -> None:
        if self.city is not None and self.country is None:
            raise ValueError("a city match implies its country")


# One record as json.dump(..., ensure_ascii=False, indent=2) lays it out
# inside the array, with a {} slot per field value in field order.
_RECORD_JSON = "  {{\n" + ",\n".join(
    f"    {encode_basestring(f.name)}: {{}}" for f in fields(ProcessedTweet)
) + "\n  }}"


def write_processed(records, fh) -> None:
    """Write records as a JSON array plus a newline, one record per write.

    The text is byte for byte what json.dump(..., ensure_ascii=False,
    indent=2) writes for the records' field dicts, but each string goes
    through json's C encoder in one call, where indent= would fall back to
    json's pure-Python encoder and write in small pieces.
    """
    sep = "[\n"
    for r in records:
        # vars() is the field dict in field order; every value is a str or None.
        fh.write(sep + _RECORD_JSON.format(
            *["null" if v is None else encode_basestring(v) for v in vars(r).values()]))
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")


def process_file(in_path, gazetteer, out_root: str = "./data") -> tuple[list[ProcessedTweet], int]:
    """Process one crawl file; returns (records, skipped line count).

    The output JSON array replaces, as a whole, the file at the processed
    path for the input file's date and hour, rooted at out_root.
    Undecodable lines (not seven fields, or not UTF-8) are skipped and
    counted, not fatal. The file is read as a LineLog, so a final line
    without a newline is torn, not a record: it is counted as skipped,
    with one warning that gives its byte offset.
    """
    crawl_loc = parse_crawl_file_path(in_path)
    crawl_log = LineLog(in_path)
    records: list[ProcessedTweet] = []
    skipped = 0
    for line_num, line in crawl_log.lines():
        try:
            values = decode_record(line.decode("utf-8"))
        except FieldCountError as exc:
            skipped += 1
            log.warning("%s:%d: %s", in_path, line_num, exc)
            continue
        except UnicodeDecodeError:
            # The decoder's own message quotes the bad bytes; log none.
            skipped += 1
            log.warning("%s:%d: not valid UTF-8", in_path, line_num)
            continue
        records.append(ProcessedTweet(*values, *gazetteer.lookup(values[_LOCATION])))
    if crawl_log.torn_at is not None:
        skipped += 1

    out_path = processed_file_path(crawl_loc, root=out_root)
    with replaced_text(out_path, newline="\n") as fh:
        write_processed(records, fh)
    log.info("processed %s: %d records, %d skipped -> %s",
             in_path, len(records), skipped, out_path)
    return records, skipped


_FIELDS = tuple(f.name for f in fields(ProcessedTweet))
_FIELD_SET = frozenset(_FIELDS)
_field_values = itemgetter(*_FIELDS)
# The exact types each field's value may have, in field order: the seven
# crawl fields are strings, and the detector's country and city are each
# a string or null. _VALUE_TYPES holds every allowed tuple of value types.
_FIELD_TYPES = tuple((str,) if name in FIELD_NAMES else (str, type(None)) for name in _FIELDS)
_VALUE_TYPES = frozenset(product(*_FIELD_TYPES))


def _mistyped(values: tuple) -> str:
    """Names the first field whose value has none of its allowed types."""
    name, allowed = next((name, allowed) for name, allowed, value
                         in zip(_FIELDS, _FIELD_TYPES, values) if type(value) not in allowed)
    return f"{name} is not a string" + ("" if len(allowed) == 1 else " or null")


def read_processed_file(path) -> list[ProcessedTweet]:
    """Load a processed JSON array back into ProcessedTweet objects.

    Each element is checked once: its keys are exactly ProcessedTweet's
    fields, and each value has its field's type. A malformed file raises
    ParseError with its path: with the line of a JSON syntax error, or
    with the index of the first element that is not an object of those
    fields, and the field whose value has the wrong type. No field value
    is quoted.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError:
        raise ParseError(path, None, "not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno,
                         f"{exc.msg.removesuffix(' at')} at column {exc.colno}") from None
    if not isinstance(data, list):
        raise ParseError(path, None, "not a JSON array of records")
    records = []
    for index, d in enumerate(data):
        if type(d) is not dict or d.keys() != _FIELD_SET:
            raise ParseError(path, None, f"record {index} is not an object of the fields "
                             f"{', '.join(_FIELDS)}")
        values = _field_values(d)
        # (*...,) builds the tuple at its size; tuple(map(...)) would shrink
        # a larger one, and CPython's free list would keep one spare tuple
        # per record (about 220 KB of peak RSS on a 7k-record file).
        if (*map(type, values),) not in _VALUE_TYPES:
            raise ParseError(path, None, f"record {index}: {_mistyped(values)}")
        try:
            records.append(ProcessedTweet(*values))
        except ValueError as exc:  # ProcessedTweet's own check, which quotes no value
            raise ParseError(path, None, f"record {index}: {exc}") from None
    return records


def find_crawl_files(root) -> list[str]:
    """All files under root that follow the crawl naming scheme, sorted."""
    found: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            try:
                parse_crawl_file_path(path)
            except ValueError:
                continue
            found.append(path)
    return sorted(found)
