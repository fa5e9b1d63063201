"""Location detection and processed-file tests."""

import json

import pytest

from tweetpipe.codec import TweetRecord, encode_record
from tweetpipe.processor import (
    Gazetteer,
    GazetteerEntry,
    ProcessedTweet,
    default_gazetteer,
    detect_location,
    find_crawl_files,
    load_gazetteer,
    process_file,
    read_processed_file,
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
    assert detect_location(free_text, WORLD) == (country, city)


def test_longest_match_wins():
    # "Mexico City" beats the bare country "Mexico"
    assert detect_location("Mexico City", WORLD) == ("Mexico", "Mexico City")


def test_earlier_occurrence_breaks_length_ties():
    entries = [
        GazetteerEntry(city="Aaaa", country="Xland"),
        GazetteerEntry(city="Bbbb", country="Yland"),
    ]
    assert detect_location("Bbbb then Aaaa", Gazetteer(entries)) == ("Yland", "Bbbb")


def test_country_beats_city_at_same_position():
    entries = [
        GazetteerEntry(city="Quux", country="Fooland"),
        GazetteerEntry(city="Fooland", country="Barland"),
    ]
    # "Fooland" is both a country and a city name; the country reading wins
    assert detect_location("Fooland", Gazetteer(entries)) == ("Fooland", None)


def test_duplicate_aliases_keep_first_binding():
    entries = [
        GazetteerEntry(city="Alpha", country="Xland", aliases=("twin",)),
        GazetteerEntry(city="Beta", country="Yland", aliases=("twin",)),
    ]
    assert detect_location("twin", Gazetteer(entries)) == ("Xland", "Alpha")


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


def test_default_gazetteer_is_usable():
    gaz = default_gazetteer()
    assert gaz.entries
    assert detect_location("Paris", gaz)[0] == "France"


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


def test_from_record_attaches_verdict():
    pt = ProcessedTweet.from_record(make_record(), WORLD)
    assert (pt.country, pt.city) == ("India", "Delhi")
    assert pt.id == "1170447725900742656"
    assert pt.text == "OT morning chai"


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


def test_find_crawl_files(tmp_path):
    a = write_crawl_file(tmp_path, [], name="tweets-06 AM.txt", day="09-08-2019")
    b = write_crawl_file(tmp_path, [], name="tweets-20 PM.txt", day="09-07-2019")
    (tmp_path / "README.txt").write_text("not a crawl file", encoding="utf-8")
    found = find_crawl_files(str(tmp_path))
    assert found == sorted([str(a), str(b)])
