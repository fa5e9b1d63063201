"""Counting, spec parsing, and CSV output tests."""

import re
from collections import Counter

import pytest

from tweetpipe.analyzer import (
    AnalysisRow,
    AnalysisSpec,
    BUILTIN_SPECS,
    ParseError,
    RegexError,
    analyze,
    load_regex_specs,
    read_rows_csv,
    regex_spec,
    sort_rows,
    write_csv,
)
from tweetpipe.gateway import (
    CATEGORIES,
    CategoryRules,
    NoServiceForCategoryError,
    ServiceRegistry,
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
    names = {s.name for s in BUILTIN_SPECS}
    assert names == {"builtin_lang", "builtin_country", "builtin_hashtag", "builtin_mention"}
    # Each rule is a named function, so a spec's repr names it.
    assert [s.keys.__name__ for s in BUILTIN_SPECS] == [
        "languages", "countries", "hashtags", "mentions"]


def test_spec_validation():
    assert "re.compile('hel+o')" in repr(regex_spec("greets", "hel+o"))
    with pytest.raises(re.error):
        regex_spec("x", "(")
    with pytest.raises(ValueError):
        AnalysisSpec("bad/name", BUILTIN_SPECS[0].keys)


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
    assert [s.keys.args[0].pattern for s in specs] == ["(?i)h[ae]llo", "l(o+)l"]


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


def test_load_regex_specs_rejects_unusable_name(tmp_path):
    spec_file = tmp_path / "bad.txt"
    spec_file.write_text("ok: fine\nno/slash: x\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(spec_file))}:2: ") as exc_info:
        load_regex_specs(spec_file)
    assert exc_info.value.line_num == 2


def test_load_regex_specs_rejects_bad_pattern(tmp_path):
    spec_file = tmp_path / "bad.txt"
    spec_file.write_text("ok: fine\nbroken: (\n", encoding="utf-8")
    with pytest.raises(RegexError) as exc_info:
        load_regex_specs(spec_file)
    assert exc_info.value.line_num == 2


# --------------------------------------------------------- name: value files


def regex_entries(path):
    return {s.name: s.keys.args[0].pattern for s in load_regex_specs(path)}


def rules_entries(path):
    return {cat: "|".join(words) for cat, words in CategoryRules.load(path).rules.items()}


def registry_entries(path):
    entries = {}
    with ServiceRegistry.load(path, base_dir=str(path.parent)) as registry:
        for category in CATEGORIES:
            try:
                entries[category] = registry.route(category)[1]
            except NoServiceForCategoryError:
                pass
    return entries


LOADERS = {"regex": regex_entries, "rules": rules_entries, "registry": registry_entries}
ALL = tuple(LOADERS)


@pytest.mark.parametrize("text, line_num, loaders", [
    ("food: soup\nno colon here\n", 2, ALL),
    ("food: soup\n  : soup\n", 2, ALL),
    ("food: soup\n\n# again\nfood: stew\n", 4, ALL),
    ("# caterers\ncatering: buffet\n", 2, ("rules", "registry")),
    ("greets: hello\nbuiltin_lang: \\w+\n", 2, ("regex",)),
], ids=["missing-colon", "empty-key", "repeated-key", "unknown-category", "builtin-name"])
def test_loaders_reject_a_bad_line_at_its_number(tmp_path, text, line_num, loaders):
    path = tmp_path / "entries.txt"
    path.write_text(text, encoding="utf-8")
    for loader in loaders:
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line_num}: ") as exc_info:
            LOADERS[loader](path)
        assert exc_info.value.line_num == line_num


@pytest.mark.parametrize("text, entries", [
    ("travel: http://h:1/x\n", {"travel": "http://h:1/x"}),
    ("# comment\n\n   \n  # indented comment\n food :  soup \n", {"food": "soup"}),
], ids=["colon-in-value", "comments-and-blanks"])
def test_loaders_read_the_same_entries(tmp_path, text, entries):
    path = tmp_path / "entries.txt"
    path.write_text(text, encoding="utf-8")
    for loader in ALL:
        assert LOADERS[loader](path) == entries


# ---------------------------------------------------------------- counting


def test_lang_counts_records():
    records = [make_pt(lang=lang) for lang in ("en", "en", "hi")]
    assert analyze(records, BUILTIN_SPECS)["builtin_lang"] == Counter(en=2, hi=1)


def test_country_skips_unresolved():
    records = [make_pt(country="India"), make_pt(country=None), make_pt(country="India")]
    assert analyze(records, BUILTIN_SPECS)["builtin_country"] == Counter(India=2)


def test_hashtags_count_occurrences():
    records = [make_pt(text="OT go #a #a #b")]
    assert analyze(records, BUILTIN_SPECS)["builtin_hashtag"] == Counter({"#a": 2, "#b": 1})


def test_mentions_count_occurrences():
    records = [make_pt(text="OT hi @bob"), make_pt(text="RT @bob again @ann")]
    assert analyze(records, BUILTIN_SPECS)["builtin_mention"] == Counter({"@bob": 2, "@ann": 1})


def test_regex_counts_matching_records_once():
    spec = regex_spec("greets", "(?i)hello")
    records = [make_pt(text="OT hello hello HELLO"), make_pt(text="OT bye")]
    # one record, keyed by first match
    assert analyze(records, [spec])["greets"] == Counter(hello=1)


def test_empty_input_gives_empty_tables():
    result = analyze([], BUILTIN_SPECS)
    assert set(result) == {s.name for s in BUILTIN_SPECS}
    assert all(not counts for counts in result.values())


def test_lang_counts_sum_to_record_count(rng):
    records = [make_pt(lang=rng.choice(["en", "hi", "pt", "und"]), id=str(i))
               for i in range(500)]
    counts = analyze(records, BUILTIN_SPECS)["builtin_lang"]
    assert sum(counts.values()) == 500
    # cross-check against an independent tally
    assert counts == Counter(r.lang for r in records)


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


def test_write_csv_failing_halfway_keeps_the_old_file(tmp_path):
    path = write_csv("t", [AnalysisRow("a", 1)], str(tmp_path))
    old = tmp_path.joinpath("t.csv").read_bytes()

    def rows():
        yield AnalysisRow("b", 2)
        raise OSError("disk full")

    with pytest.raises(OSError):
        write_csv("t", rows(), str(tmp_path))
    assert tmp_path.joinpath("t.csv").read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert read_rows_csv(path) == [AnalysisRow("a", 1)]


def test_csv_round_trip(tmp_path):
    rows = [AnalysisRow("x", 3), AnalysisRow("a,b", 2), AnalysisRow("z", 1)]
    path = write_csv("t", rows, str(tmp_path))
    assert read_rows_csv(path) == rows


@pytest.mark.parametrize("text, line_num", [
    ("key,count\na,1\nonly\n", 3),
    ("key,count\na,1\n\nb,many\n", 4),
], ids=["one-cell", "count-not-integer"])
def test_read_rows_csv_rejects_a_bad_row_at_its_line(tmp_path, text, line_num):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line_num}: ") as exc_info:
        read_rows_csv(path)
    assert exc_info.value.line_num == line_num


def test_read_rows_csv_checks_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\na,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_rows_csv(path)
