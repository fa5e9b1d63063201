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
from dataclasses import dataclass
from importlib import resources

from .codec import (
    KIND_PROCESSED,
    FieldCountError,
    FileLocator,
    TweetRecord,
    decode_record,
    parse_crawl_file_path,
    processed_file_path,
)

log = logging.getLogger(__name__)

GAZETTEER_HEADER = ("city", "country", "aliases")


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


class Gazetteer:
    """Prepared lookup structure over a sequence of GazetteerEntry.

    Matching is case-insensitive on word boundaries. Ranking among hits:
    longest matched string first, then earliest occurrence, then country
    terms before city terms, then gazetteer order. Duplicate aliases keep
    their first binding.
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
        self._prepared = [
            (
                t.text.lower(),
                re.compile(r"(?<!\w)" + re.escape(t.text) + r"(?!\w)", re.IGNORECASE),
                t,
            )
            for t in sorted(terms.values(), key=lambda t: -len(t.text))
        ]

    def lookup(self, free_text: str) -> tuple[str | None, str | None]:
        lowered = free_text.lower()
        best: tuple | None = None
        for lower_text, pattern, term in self._prepared:
            if lower_text not in lowered:  # cheap prefilter before the regex
                continue
            m = pattern.search(free_text)
            if m is None:
                continue
            rank = (-len(term.text), m.start(), 0 if term.is_country else 1, term.entry_order)
            if best is None or rank < best[0]:
                best = (rank, term)
        if best is None:
            return None, None
        term = best[1]
        return term.country, term.city


def detect_location(free_text: str, gazetteer: Gazetteer) -> tuple[str | None, str | None]:
    """Best (country, city) guess for a free-text location field.

    A city hit fills in its country; a country-only hit leaves city None;
    no hit at all yields (None, None).
    """
    if not free_text.strip():
        return None, None
    return gazetteer.lookup(free_text)


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
                raise ValueError(f"{path}:{row_num}: expected city,country[,aliases]")
            aliases: tuple[str, ...] = ()
            if len(row) >= 3 and row[2].strip():
                aliases = tuple(a.strip() for a in row[2].split("|") if a.strip())
            entries.append(GazetteerEntry(row[0].strip(), row[1].strip(), aliases))
    return entries


def default_gazetteer() -> Gazetteer:
    """The bundled fixture gazetteer (about 100 countries, 200 cities)."""
    ref = resources.files("tweetpipe.data").joinpath("gazetteer.csv")
    with resources.as_file(ref) as path:
        return Gazetteer(load_gazetteer(path))


@dataclass(frozen=True)
class ProcessedTweet:
    """A decoded record plus the detector's country/city verdict."""

    creation_date: str
    id: str
    lang: str
    location: str
    name: str
    username: str
    text: str
    country: str | None = None
    city: str | None = None

    def __post_init__(self) -> None:
        if self.city is not None and self.country is None:
            raise ValueError("a city match implies its country")

    @classmethod
    def from_record(cls, record: TweetRecord, gazetteer: Gazetteer) -> "ProcessedTweet":
        country, city = detect_location(record.location, gazetteer)
        return cls(*record.fields(), country=country, city=city)


def process_file(in_path, gazetteer, out_root: str = "./data") -> tuple[list[ProcessedTweet], int]:
    """Process one crawl file; returns (records, skipped line count).

    The output JSON array lands at the processed path for the input
    file's date and hour, rooted at out_root. Undecodable lines are
    skipped and counted, not fatal.
    """
    crawl_loc = parse_crawl_file_path(in_path)
    with open(in_path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    records: list[ProcessedTweet] = []
    skipped = 0
    for line_num, line in enumerate(lines, start=1):
        try:
            record = decode_record(line)
        except FieldCountError as exc:
            skipped += 1
            log.warning("%s:%d: %s", in_path, line_num, exc)
            continue
        records.append(ProcessedTweet.from_record(record, gazetteer))

    out_loc = FileLocator(date=crawl_loc.date, hour=crawl_loc.hour, kind=KIND_PROCESSED)
    out_path = processed_file_path(out_loc, root=out_root)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        # vars() is the field dict in field order; dataclasses.asdict would
        # deep-copy every record at over a hundred times the cost.
        json.dump([vars(r) for r in records], fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    log.info("processed %s: %d records, %d skipped -> %s",
             in_path, len(records), skipped, out_path)
    return records, skipped


def read_processed_file(path) -> list[ProcessedTweet]:
    """Load a processed JSON array back into ProcessedTweet objects."""
    with open(path, encoding="utf-8") as fh:
        return [ProcessedTweet(**d) for d in json.load(fh)]


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
