"""Count-based analyses over processed tweets, written as CSV files.

An analysis is a name plus a key function, which yields the keys a batch
of records adds to the table. Four are built in: records per language,
records per detected country, hashtag occurrences and mention
occurrences. Further analyses come from a file of named regular
expressions; each counts the records whose text matches, keyed by the
first matched text so the CSV stays inspectable.
"""

from __future__ import annotations

import csv
import os
import re
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .ledger import replaced_text
from .pruner import by_count

HASHTAG_RE = re.compile(r"#\w+")
MENTION_RE = re.compile(r"@\w+")

# Analysis names double as output file names, so keep them path-safe.
_NAME_RE = re.compile(r"^[\w.-]+$")


class ParseError(ValueError):
    """A line of a user-written input file is malformed."""

    def __init__(self, path, line_num: int, message: str):
        super().__init__(f"{path}:{line_num}: {message}")
        self.path = path
        self.line_num = line_num


class RegexError(ParseError):
    """A regex-spec pattern does not compile."""


def read_entries(path, form: str, keys=None):
    """Yield (line_num, key, value) for each "key: value" line of a file.

    form names the line shape for error messages ("name: pattern"); its
    part before the colon names the key. Blank lines and lines starting
    with "#" are skipped, and a line splits at its first colon, so a value
    may hold colons (URLs do). Key and value are stripped; the value may
    be empty. Raises ParseError for a line without a colon, an empty key,
    a key outside keys (when given) or a key seen before.
    """
    noun = form[:form.index(":")]
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            key = key.strip()
            if not sep or not key:
                raise ParseError(path, line_num, f"expected '{form}'")
            if keys is not None and key not in keys:
                raise ParseError(path, line_num, f"unknown {noun} {key}")
            if key in seen:
                raise ParseError(path, line_num, f"duplicate {noun} {key}")
            seen.add(key)
            yield line_num, key, value.strip()


@dataclass(frozen=True)
class AnalysisSpec:
    """One table: its name, and keys(records), which yields every key those
    records add to the table (a key yielded twice counts twice)."""

    name: str
    keys: Callable[[Sequence], Iterable[str]]

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"analysis name not usable as a file name: {self.name!r}")


@dataclass(frozen=True)
class AnalysisRow:
    key: str
    count: int


# The builtin tables' key functions: each record's language, its country
# when it has one, and every hashtag and mention in its text.
def languages(records) -> Iterable[str]:
    return (r.lang for r in records)


def countries(records) -> Iterable[str]:
    return (r.country for r in records if r.country is not None)


def hashtags(records) -> Iterable[str]:
    return chain.from_iterable(HASHTAG_RE.findall(r.text) for r in records)


def mentions(records) -> Iterable[str]:
    return chain.from_iterable(MENTION_RE.findall(r.text) for r in records)


def _first_matches(pattern: re.Pattern, records) -> Iterable[str]:
    """The first match of pattern in each record's text that has one."""
    matches = (pattern.search(r.text) for r in records)
    return (m.group(0) for m in matches if m is not None)


def regex_spec(name: str, pattern: str) -> AnalysisSpec:
    """A table of the records whose text matches pattern, keyed by the
    first match's text. Raises re.error for a pattern that does not
    compile, ValueError for a name not usable as a file name."""
    return AnalysisSpec(name, partial(_first_matches, re.compile(pattern)))


BUILTIN_SPECS = (
    AnalysisSpec("builtin_lang", languages),
    AnalysisSpec("builtin_country", countries),
    AnalysisSpec("builtin_hashtag", hashtags),
    AnalysisSpec("builtin_mention", mentions),
)


def load_regex_specs(path) -> list[AnalysisSpec]:
    """Parse a regex-spec file: one "name: pattern" per line.

    The lines follow read_entries. Raises ParseError (with line number)
    for malformed lines, duplicate names (a builtin table's name counts
    as taken) and unusable names, RegexError for patterns that do not
    compile.
    """
    form = "name: pattern"
    taken = {spec.name for spec in BUILTIN_SPECS}
    specs: list[AnalysisSpec] = []
    for line_num, name, pattern in read_entries(path, form):
        if not pattern:
            raise ParseError(path, line_num, f"expected '{form}'")
        if name in taken:
            raise ParseError(path, line_num, f"duplicate name {name}")
        try:
            specs.append(regex_spec(name, pattern))
        except re.error as exc:
            raise RegexError(path, line_num, f"bad pattern: {exc}") from exc
        except ValueError as exc:
            raise ParseError(path, line_num, str(exc)) from exc
    return specs


def sort_rows(counter: Counter) -> list[AnalysisRow]:
    """Counter to rows in by_count order."""
    return sorted((AnalysisRow(key=k, count=n) for k, n in counter.items()), key=by_count)


def analyze(records, specs) -> dict[str, Counter]:
    """Count each spec's keys over the records; returns name -> key counts.

    Keys with zero count never appear. Unsorted, so the counts of several
    calls add up before sort_rows.
    """
    return {spec.name: Counter(spec.keys(records)) for spec in specs}


def write_rows(path, rows) -> str:
    """Write rows to one CSV file with a "key,count" header.

    Standard CSV quoting, so keys containing commas or quotes stay
    parseable. The new file replaces any old one as a whole.
    """
    with replaced_text(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "count"])
        for row in rows:
            writer.writerow([row.key, row.count])
    return str(path)


def write_csv(name: str, rows, out_dir) -> str:
    """Write one analysis as <out_dir>/<name>.csv and return the path."""
    os.makedirs(out_dir, exist_ok=True)
    return write_rows(os.path.join(out_dir, f"{name}.csv"), rows)


def read_rows_csv(path) -> list[AnalysisRow]:
    """Read rows back from an analysis CSV (header required).

    Raises ParseError (with line number) for a row without a key and a
    count, or whose count is not an integer.
    """
    rows: list[AnalysisRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["key", "count"]:
            raise ValueError(f"{path}: not an analysis CSV (bad header {header!r})")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ParseError(path, reader.line_num, "expected 'key,count'")
            try:
                count = int(row[1])
            except ValueError:
                raise ParseError(path, reader.line_num,
                                 f"count is not an integer: {row[1]!r}") from None
            rows.append(AnalysisRow(key=row[0], count=count))
    return rows
