"""Location detection and processed-file tests."""

import io
import json
import logging
import re
import sys
import tracemalloc
from dataclasses import asdict, fields

import pytest
from hypothesis import given, strategies as st

from tweetpipe.analyzer import ParseError
from tweetpipe.codec import FIELD_NAMES, TweetRecord, encode_record
from tweetpipe.processor import (
    LOOKUP_MEMO_SIZE,
    Gazetteer,
    GazetteerEntry,
    ProcessedTweet,
    default_gazetteer,
    find_crawl_files,
    load_gazetteer,
    process_file,
    read_processed_file,
    write_processed,
)

WORLD = default_gazetteer()


# ---------------------------------------------------------------- detection


@pytest.mark.parametrize(
    "free_text,country,city",
    [
        ("Delhi, India", "India", "Delhi"),
        ("delhi", "India", "Delhi"),
        ("DELHI!!!", "India", "Delhi"),
        ("living in Mumbai these days", "India", "Mumbai"),
        ("Bombay", "India", "Mumbai"),  # alias resolves to canonical city
        ("NYC", "United States", "New York"),
        ("São Paulo", "Brazil", "Sao Paulo"),
        ("France", "France", None),  # country-only hit
        ("", None, None),
        ("   ", None, None),
        ("the moon", None, None),
        ("127.0.0.1", None, None),
        ("Indiana", None, None),  # no partial-word match on "India"
        ("park bench", None, None),  # "par" is not Paris
    ],
)
def test_detect_location(free_text, country, city):
    assert WORLD.lookup(free_text) == (country, city)


def test_longest_match_wins():
    # "Mexico City" beats the bare country "Mexico"
    assert WORLD.lookup("Mexico City") == ("Mexico", "Mexico City")


def test_earlier_occurrence_breaks_length_ties():
    entries = [
        GazetteerEntry(city="Aaaa", country="Xland"),
        GazetteerEntry(city="Bbbb", country="Yland"),
    ]
    assert Gazetteer(entries).lookup("Bbbb then Aaaa") == ("Yland", "Bbbb")


def test_country_beats_city_at_same_position():
    entries = [
        GazetteerEntry(city="Quux", country="Fooland"),
        GazetteerEntry(city="Fooland", country="Barland"),
    ]
    # "Fooland" is both a country and a city name; the country reading wins
    assert Gazetteer(entries).lookup("Fooland") == ("Fooland", None)


def test_duplicate_aliases_keep_first_binding():
    entries = [
        GazetteerEntry(city="Alpha", country="Xland", aliases=("twin",)),
        GazetteerEntry(city="Beta", country="Yland", aliases=("twin",)),
    ]
    assert Gazetteer(entries).lookup("twin") == ("Xland", "Alpha")


# ------------------------------------------------- indexed lookup vs scan


class ReferenceGazetteer:
    """The linear scan the index replaced, kept as the reference.

    Every term is tried, longest first: a str.lower() substring prefilter,
    then its word-bounded case-insensitive regex. The prefilter and the
    regex disagree on some non-ASCII text ('İ'.lower() is two characters,
    re equates 'ſ' with 's'); the reference pins today's answers there.
    """

    def __init__(self, entries):
        terms = {}
        for order, entry in enumerate(entries):
            if entry.country.lower() not in terms:
                terms[entry.country.lower()] = (entry.country, True, entry.country, None, order)
            for alias in (entry.city, *entry.aliases):
                if alias.lower() and alias.lower() not in terms:
                    terms[alias.lower()] = (alias, False, entry.country, entry.city, order)
        self.prepared = [
            (text.lower(),
             re.compile(r"(?<!\w)" + re.escape(text) + r"(?!\w)", re.IGNORECASE),
             (text, is_country, country, city, order))
            for text, is_country, country, city, order in sorted(
                terms.values(), key=lambda t: -len(t[0]))
        ]

    def lookup(self, free_text):
        lowered = free_text.lower()
        best = None
        for lower_text, pattern, term in self.prepared:
            if lower_text not in lowered:
                continue
            m = pattern.search(free_text)
            if m is None:
                continue
            text, is_country, country, city, order = term
            rank = (-len(text), m.start(), 0 if is_country else 1, order)
            if best is None or rank < best[0]:
                best = (rank, (country, city))
        return (None, None) if best is None else best[1]


WORLD_REFERENCE = ReferenceGazetteer(WORLD.entries)
WORLD_TERMS = sorted({t for e in WORLD.entries for t in (e.country, e.city, *e.aliases)})

# Characters where str.lower() and re.IGNORECASE disagree or that fold to
# several characters: dotted and dotless i, long s, the Kelvin sign, sharp
# s, final sigma, a combining mark re equates with iota, a ligature.
TRICKY = "\u0130\u0131\u017f\u212a\u00df\u1e9e\u03a3\u03c2\u0345\ufb05\ufb06"
FILLER = st.text(
    st.one_of(st.sampled_from("abklsfiz _-.,2" + TRICKY),
              st.characters(categories=("Lu", "Ll", "Lt", "Lo", "Mn", "Nd", "Po", "Zs"))),
    max_size=6,
)


@st.composite
def location_texts(draw, terms):
    """Terms in any case, random words, punctuation, digits, '_' and
    non-ASCII letters, joined with or without separators."""
    term = st.sampled_from(terms)
    pieces = draw(st.lists(st.one_of(
        term, term.map(str.upper), term.map(str.swapcase), FILLER,
    ), max_size=6))
    return draw(st.sampled_from(["", " ", ", ", "_"])).join(pieces)


@pytest.mark.parametrize(
    "free_text,expected",
    [
        ("\u0130stanbul", (None, None)),  # 'İ'.lower() is two characters
        ("\u0130stanbul istanbul", ("Turkey", "Istanbul")),
        # The prefilter passes on a match inside a word; the regex hit is the
        # word whose first letter str.lower() and re fold differently.
        ("xistanbul \u0130stanbul", ("Turkey", "Istanbul")),
        ("xsf \u017ff", ("United States", "San Francisco")),
        ("xkl \u212aL", ("Malaysia", "Kuala Lumpur")),
        ("la_la", (None, None)),
        ("LA2", (None, None)),
        ("la", ("United States", "Los Angeles")),
        ("KL", ("Malaysia", "Kuala Lumpur")),
        ("\u212aL", ("Malaysia", "Kuala Lumpur")),  # Kelvin sign lowercases to k
        ("sf", ("United States", "San Francisco")),
        ("\u017ff", (None, None)),  # long s: re matches, the lower() prefilter does not
        ("\u017ff la sf", ("United States", "San Francisco")),  # ...but then its regex hit counts
        ("LA SF", ("United States", "Los Angeles")),
        ("Z\u00dcRICH", ("Switzerland", "Zurich")),
    ],
)
def test_lookup_edge_cases_keep_the_reference_answer(free_text, expected):
    assert WORLD_REFERENCE.lookup(free_text) == expected
    assert WORLD.lookup(free_text) == expected


@given(location_texts(WORLD_TERMS))
def test_indexed_lookup_matches_the_scan(free_text):
    assert WORLD.lookup(free_text) == WORLD_REFERENCE.lookup(free_text)


SHORT_TERMS = ["k", "K", "\u212a", "s", "\u017f", "\u0130", "i", "_", "-", "ab", "\u00df", "x-y"]


@given(st.data())
def test_indexed_lookup_matches_the_scan_on_short_terms(data):
    # One-character terms shrink the index key to one character.
    names = st.sampled_from(SHORT_TERMS)
    entries = data.draw(st.lists(st.builds(
        lambda city, country, aliases: GazetteerEntry(city, country, tuple(aliases)),
        names, names, st.lists(names, max_size=2),
    ), min_size=1, max_size=4))
    terms = sorted({t for e in entries for t in (e.country, e.city, *e.aliases)})
    text = data.draw(location_texts(terms))
    assert Gazetteer(entries).lookup(text) == ReferenceGazetteer(entries).lookup(text)


def test_lookup_memo_stays_within_its_cap_and_keeps_the_reference_answers():
    # More distinct texts than the memo holds, each asked twice in a row,
    # then the first ones again after the memo has been emptied.
    gazetteer = default_gazetteer()
    texts = [f"{WORLD_TERMS[i % len(WORLD_TERMS)]} {i}" for i in range(LOOKUP_MEMO_SIZE + 500)]
    answers = {}
    for text in texts:
        answers[text] = WORLD_REFERENCE.lookup(text)
        assert gazetteer.lookup(text) == answers[text]
        assert gazetteer.lookup(text) == answers[text]
        assert len(gazetteer._memo) <= LOOKUP_MEMO_SIZE
    for text in texts[:100]:
        assert gazetteer.lookup(text) == answers[text]


def test_entry_validation():
    with pytest.raises(ValueError):
        GazetteerEntry(city="", country="India")
    with pytest.raises(ValueError):
        GazetteerEntry(city="Delhi", country="")


def test_load_gazetteer(tmp_path):
    csv_path = tmp_path / "places.csv"
    csv_path.write_text(
        "city,country,aliases\n"
        "Delhi,India,\n"
        "Mumbai,India,Bombay|BOM\n",
        encoding="utf-8",
    )
    entries = load_gazetteer(csv_path)
    assert entries == [
        GazetteerEntry(city="Delhi", country="India"),
        GazetteerEntry(city="Mumbai", country="India", aliases=("Bombay", "BOM")),
    ]


def test_load_gazetteer_rejects_short_rows(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("city,country,aliases\nonlyone\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_gazetteer(csv_path)


@pytest.mark.parametrize("row", ["Delhi,,", ",India,Bharat", "  ,India"])
def test_load_gazetteer_rejects_an_empty_city_or_country_at_its_row(tmp_path, row):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(f"city,country,aliases\nMumbai,India,\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(csv_path))}:3: ") as exc_info:
        load_gazetteer(csv_path)
    assert exc_info.value.line_num == 3


def test_default_gazetteer_is_usable():
    gaz = default_gazetteer()
    assert gaz.entries
    assert gaz.lookup("Paris")[0] == "France"


# ------------------------------------------------------------ ProcessedTweet


def make_record(**overrides):
    base = dict(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id="1170447725900742656",
        lang="en",
        location="Delhi, India",
        name="Asha Rao",
        username="asha_rao",
        text="OT morning chai",
    )
    base.update(overrides)
    return TweetRecord(**base)


def test_process_file_attaches_verdict(tmp_path):
    in_path = write_crawl_file(tmp_path, [encode_record(make_record())])
    [pt], _ = process_file(in_path, WORLD, out_root=str(tmp_path))
    assert (pt.country, pt.city) == ("India", "Delhi")
    assert pt.id == "1170447725900742656"
    assert pt.text == "OT morning chai"


def test_processed_fields_are_the_record_fields_then_the_verdict():
    # The processed JSON lays out its keys in this order.
    assert FIELD_NAMES == ("creation_date", "id", "lang", "location", "name", "username", "text")
    assert [f.name for f in fields(ProcessedTweet)] == [*FIELD_NAMES, "country", "city"]


def test_city_without_country_is_invalid():
    with pytest.raises(ValueError):
        ProcessedTweet(
            creation_date="x", id="1", lang="en", location="y",
            name="n", username="u", text="t", country=None, city="Delhi",
        )


# ----------------------------------------------------------------- file I/O


def write_crawl_file(tmp_path, lines, name="tweets-06 AM.txt", day="09-08-2019"):
    folder = tmp_path / day
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_process_file_writes_sibling_json(tmp_path):
    lines = [encode_record(make_record(id=str(100 + i))) for i in range(3)]
    in_path = write_crawl_file(tmp_path, lines)
    records, skipped = process_file(in_path, WORLD, out_root=str(tmp_path))
    assert (len(records), skipped) == (3, 0)

    out_path = tmp_path / "09-08-2019-tweets-06 AM.json"
    assert out_path.exists()
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert [d["id"] for d in payload] == ["100", "101", "102"]
    assert payload[0]["country"] == "India"


def test_process_file_failing_halfway_keeps_the_old_json(tmp_path, monkeypatch):
    in_path = write_crawl_file(tmp_path, [encode_record(make_record())])
    process_file(in_path, WORLD, out_root=str(tmp_path))
    out_path = tmp_path / "09-08-2019-tweets-06 AM.json"
    old = out_path.read_bytes()

    def write_half(records, fh):
        fh.write("[\n")
        raise OSError("disk full")

    monkeypatch.setattr("tweetpipe.processor.write_processed", write_half)
    with pytest.raises(OSError):
        process_file(in_path, WORLD, out_root=str(tmp_path))
    assert out_path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["09-08-2019", out_path.name]


def test_process_file_counts_corrupt_lines(tmp_path):
    lines = [
        encode_record(make_record(id="101")),
        "only<8>three<8>fields",
        encode_record(make_record(id="102")),
    ]
    in_path = write_crawl_file(tmp_path, lines)
    records, skipped = process_file(in_path, WORLD, out_root=str(tmp_path))
    assert (len(records), skipped) == (2, 1)


def test_process_file_preserves_base_fields(tmp_path):
    original = make_record(location="Paris, France", text="OT a, b; c")
    in_path = write_crawl_file(tmp_path, [encode_record(original)])
    records, _ = process_file(in_path, WORLD, out_root=str(tmp_path))
    pt = records[0]
    assert TweetRecord(
        creation_date=pt.creation_date, id=pt.id, lang=pt.lang, location=pt.location,
        name=pt.name, username=pt.username, text=pt.text,
    ) == original


def test_process_file_rejects_foreign_paths(tmp_path):
    stray = tmp_path / "notes.txt"
    stray.write_text("hello\n", encoding="utf-8")
    with pytest.raises(ValueError):
        process_file(stray, WORLD, out_root=str(tmp_path))


def test_read_processed_file_round_trip(tmp_path):
    lines = [encode_record(make_record(id=str(i))) for i in (1, 2)]
    in_path = write_crawl_file(tmp_path, lines)
    records, _ = process_file(in_path, WORLD, out_root=str(tmp_path))
    loaded = read_processed_file(tmp_path / "09-08-2019-tweets-06 AM.json")
    assert loaded == records


def test_dict_round_trip_keeps_nulls(tmp_path):
    in_path = write_crawl_file(tmp_path, [encode_record(make_record(location="the moon"))])
    records, _ = process_file(in_path, WORLD, out_root=str(tmp_path))
    out_path = tmp_path / "09-08-2019-tweets-06 AM.json"
    (d,) = json.loads(out_path.read_text(encoding="utf-8"))
    assert d["country"] is None and d["city"] is None
    assert read_processed_file(out_path) == records


def test_records_hold_no_dict_and_a_run_of_equal_dates_shares_one_string(tmp_path):
    dates = ["Sat Sep 07 20:14:03 +0000 2019"] * 2 + ["Sat Sep 07 20:14:05 +0000 2019"] * 2
    lines = [encode_record(make_record(id=str(i), creation_date=d)) for i, d in enumerate(dates)]
    records, _ = process_file(write_crawl_file(tmp_path, lines), WORLD, out_root=str(tmp_path))
    loaded = read_processed_file(tmp_path / "09-08-2019-tweets-06 AM.json")
    for got in (records, loaded):
        assert not any(hasattr(r, "__dict__") for r in got)
        assert [r.creation_date for r in got] == dates
        assert got[0].creation_date is got[1].creation_date
        assert got[2].creation_date is got[3].creation_date


def test_reading_a_processed_file_holds_its_text_and_its_records_only(tmp_path):
    path = tmp_path / "feed.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_processed((ProcessedTweet(
            creation_date=f"Sat Sep 07 20:{n // 600:02d}:{n // 10 % 60:02d} +0000 2019",
            id=str(10**18 + n), lang="en", location="Delhi, India", name=f"Person {n}",
            username=f"user{n}", text=f"OT tweet number {n} about lunch and a flight",
            country="India", city="Delhi") for n in range(4000)), fh)
    text_size = sys.getsizeof(path.read_text(encoding="utf-8"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = read_processed_file(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 4000
    # A list of parsed dicts beside the records would add about 480 KB.
    assert peak - before <= text_size + (held - before) + 64 * 1024


# Quotes, backslashes, control characters, U+2028/U+2029, the field
# delimiter and a non-BMP character, besides any text at all.
FIELD_TEXT = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028",
                              "\u2029", "<8>", "\U0001f600", "\u00e9", " "]),
             max_size=6).map("".join),
)


@st.composite
def processed_tweets(draw):
    country = draw(st.none() | FIELD_TEXT)
    city = None if country is None else draw(st.none() | FIELD_TEXT)
    return ProcessedTweet(*(draw(FIELD_TEXT) for _ in range(7)), country=country, city=city)


@given(st.lists(processed_tweets(), max_size=4))
def test_write_processed_matches_json_dump(records):
    out = io.StringIO()
    write_processed(records, out)
    expected = json.dumps([asdict(r) for r in records], ensure_ascii=False, indent=2) + "\n"
    assert out.getvalue() == expected


@pytest.mark.parametrize("lines", [[], ["only<8>three<8>fields", "garbage"]])
def test_process_file_without_records_writes_an_empty_array(tmp_path, lines):
    in_path = write_crawl_file(tmp_path, lines)
    records, skipped = process_file(in_path, WORLD, out_root=str(tmp_path))
    assert (records, skipped) == ([], len(lines))
    out_path = tmp_path / "09-08-2019-tweets-06 AM.json"
    assert out_path.read_bytes() == b"[]\n"


def test_process_file_skips_a_torn_record_at_every_byte(tmp_path, caplog):
    first = make_record(id="1170447725900742101")
    second = make_record(id="1170447725900742999", name="Ravi Kumar", username="ravi_k",
                         location="Mumbai", text="OT café ☃ 😀")
    in_path = write_crawl_file(tmp_path, [encode_record(first), encode_record(second)])
    data = in_path.read_bytes()
    head = data[:data.index(b"\n") + 1]
    last = data[len(head):]
    assert len(last.decode("utf-8")) < len(last)  # some cuts split a UTF-8 sequence
    for cut in range(1, len(last)):
        in_path.write_bytes(head + last[:cut])
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="tweetpipe"):
            records, skipped = process_file(in_path, WORLD, out_root=str(tmp_path))
        assert [r.id for r in records] == [first.id]
        assert skipped == 1
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == [f"{in_path}: skipping a torn final line at byte {len(head)}"]
        for value in set(second.fields()) - set(first.fields()):
            assert value not in caplog.text


def test_process_file_skips_a_line_that_is_not_utf8(tmp_path, caplog):
    in_path = write_crawl_file(tmp_path, [])
    good = encode_record(make_record(id="102")).encode()
    in_path.write_bytes(b"a<8>1<8>en<8>x<8>n<8>u<8>t\xff\n" + good + b"\n")
    with caplog.at_level(logging.DEBUG, logger="tweetpipe"):
        records, skipped = process_file(in_path, WORLD, out_root=str(tmp_path))
    assert ([r.id for r in records], skipped) == (["102"], 1)
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [f"{in_path}:1: not valid UTF-8"]


def test_find_crawl_files(tmp_path):
    a = write_crawl_file(tmp_path, [], name="tweets-06 AM.txt", day="09-08-2019")
    b = write_crawl_file(tmp_path, [], name="tweets-20 PM.txt", day="09-07-2019")
    (tmp_path / "README.txt").write_text("not a crawl file", encoding="utf-8")
    found = find_crawl_files(str(tmp_path))
    assert found == sorted([str(a), str(b)])
