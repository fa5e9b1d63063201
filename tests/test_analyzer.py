"""Counting, spec parsing, and CSV output tests."""

from collections import Counter

import pytest

from tweetpipe.analyzer import (
    AnalysisRow,
    AnalysisSpec,
    BUILTIN_SPECS,
    KIND_COUNTRY,
    KIND_HASHTAG,
    KIND_LANG,
    KIND_MENTION,
    KIND_REGEX,
    ParseError,
    RegexError,
    analyze,
    load_regex_specs,
    read_rows_csv,
    sort_rows,
    write_csv,
)
from tweetpipe.processor import ProcessedTweet


def make_pt(text="OT hello", lang="en", country="India", city=None, id="1"):
    return ProcessedTweet(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id=id,
        lang=lang,
        location="somewhere",
        name="Asha Rao",
        username="asha_rao",
        text=text,
        country=country,
        city=city,
    )


# ------------------------------------------------------------------- specs


def test_builtin_specs_cover_all_kinds():
    kinds = {s.kind for s in BUILTIN_SPECS}
    assert kinds == {KIND_LANG, KIND_COUNTRY, KIND_HASHTAG, KIND_MENTION}


def test_spec_validation():
    AnalysisSpec(name="greets", kind=KIND_REGEX, pattern="hel+o")
    with pytest.raises(ValueError):
        AnalysisSpec(name="x", kind=KIND_REGEX, pattern=None)
    with pytest.raises(ValueError):
        AnalysisSpec(name="x", kind=KIND_LANG, pattern="a")
    with pytest.raises(ValueError):
        AnalysisSpec(name="bad/name", kind=KIND_LANG, pattern=None)


def test_load_regex_specs(tmp_path):
    spec_file = tmp_path / "extra.txt"
    spec_file.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        "greets: (?i)h[ae]llo\n"
        "laughs: l(o+)l\n",
        encoding="utf-8",
    )
    specs = load_regex_specs(spec_file)
    assert [s.name for s in specs] == ["greets", "laughs"]
    assert all(s.kind == KIND_REGEX for s in specs)


def test_load_regex_specs_rejects_duplicates(tmp_path):
    spec_file = tmp_path / "dup.txt"
    spec_file.write_text("a: x\na: y\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_regex_specs(spec_file)


def test_load_regex_specs_rejects_missing_colon(tmp_path):
    spec_file = tmp_path / "bad.txt"
    spec_file.write_text("no separator here\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc_info:
        load_regex_specs(spec_file)
    assert exc_info.value.line_num == 1


def test_load_regex_specs_rejects_bad_pattern(tmp_path):
    spec_file = tmp_path / "bad.txt"
    spec_file.write_text("ok: fine\nbroken: (\n", encoding="utf-8")
    with pytest.raises(RegexError) as exc_info:
        load_regex_specs(spec_file)
    assert exc_info.value.line_num == 2


# ---------------------------------------------------------------- counting


def test_lang_counts_records():
    records = [make_pt(lang=lang) for lang in ("en", "en", "hi")]
    rows = analyze(records, BUILTIN_SPECS)["builtin_lang"]
    assert rows == [AnalysisRow("en", 2), AnalysisRow("hi", 1)]


def test_country_skips_unresolved():
    records = [make_pt(country="India"), make_pt(country=None), make_pt(country="India")]
    rows = analyze(records, BUILTIN_SPECS)["builtin_country"]
    assert rows == [AnalysisRow("India", 2)]


def test_hashtags_count_occurrences():
    records = [make_pt(text="OT go #a #a #b")]
    rows = analyze(records, BUILTIN_SPECS)["builtin_hashtag"]
    assert rows == [AnalysisRow("#a", 2), AnalysisRow("#b", 1)]


def test_mentions_count_occurrences():
    records = [make_pt(text="OT hi @bob"), make_pt(text="RT @bob again @ann")]
    rows = analyze(records, BUILTIN_SPECS)["builtin_mention"]
    assert rows == [AnalysisRow("@bob", 2), AnalysisRow("@ann", 1)]


def test_regex_counts_matching_records_once():
    spec = AnalysisSpec(name="greets", kind=KIND_REGEX, pattern="(?i)hello")
    records = [make_pt(text="OT hello hello HELLO"), make_pt(text="OT bye")]
    rows = analyze(records, [spec])["greets"]
    assert rows == [AnalysisRow("hello", 1)]  # one record, keyed by first match


def test_empty_input_gives_empty_tables():
    result = analyze([], BUILTIN_SPECS)
    assert set(result) == {s.name for s in BUILTIN_SPECS}
    assert all(rows == [] for rows in result.values())


def test_lang_counts_sum_to_record_count(rng):
    records = [make_pt(lang=rng.choice(["en", "hi", "pt", "und"]), id=str(i))
               for i in range(500)]
    rows = analyze(records, BUILTIN_SPECS)["builtin_lang"]
    assert sum(r.count for r in rows) == 500
    # cross-check against an independent tally
    expected = Counter(r.lang for r in records)
    assert {row.key: row.count for row in rows} == dict(expected)


def test_sort_rows_orders_by_count_then_key():
    assert sort_rows(Counter({"b": 1, "a": 1, "c": 9})) == [
        AnalysisRow("c", 9), AnalysisRow("a", 1), AnalysisRow("b", 1),
    ]


# --------------------------------------------------------------------- CSV


def test_write_csv_body(tmp_path):
    rows = [AnalysisRow("en", 2), AnalysisRow("hi", 1)]
    path = write_csv("builtin_lang", rows, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    assert content == "key,count\nen,2\nhi,1\n"


def test_write_csv_quotes_embedded_commas(tmp_path):
    path = write_csv("t", [AnalysisRow("a,b", 1)], str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == 'key,count\n"a,b",1\n'


def test_csv_round_trip(tmp_path):
    rows = [AnalysisRow("x", 3), AnalysisRow("a,b", 2), AnalysisRow("z", 1)]
    path = write_csv("t", rows, str(tmp_path))
    assert read_rows_csv(path) == rows


def test_read_rows_csv_checks_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\na,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_rows_csv(path)
