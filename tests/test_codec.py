"""Record codec and file-naming tests."""

import datetime as dt
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from tweetpipe.codec import (
    DELIMITER,
    FieldCountError,
    FileLocator,
    FIELD_NAMES,
    InvalidRecordError,
    TweetRecord,
    crawl_file_path,
    decode_record,
    encode_record,
    parse_crawl_file_path,
    processed_file_path,
    sanitize_field,
)


def make_record(**overrides):
    base = dict(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id="1170447725900742656",
        lang="en",
        location="Delhi, India",
        name="Asha Rao",
        username="asha_rao",
        text="OT morning chai, then work; no complaints",
    )
    base.update(overrides)
    return TweetRecord(**base)


# ---------------------------------------------------------------- sanitize


def test_sanitize_replaces_newlines_with_spaces():
    assert sanitize_field("a\nb") == "a b"
    assert sanitize_field("a\r\nb") == "a b"
    assert sanitize_field("a\rb") == "a b"
    assert sanitize_field("a\r\r\nb") == "a  b"
    assert sanitize_field("a\n\rb") == "a  b"


def test_sanitize_breaks_up_delimiter():
    assert sanitize_field("x<8>y") == "x<8 >y"
    assert DELIMITER not in sanitize_field("<8><8>")
    assert sanitize_field("<8><8>") == "<8 ><8 >"
    assert sanitize_field("<<8>>") == "<<8 >>"
    assert sanitize_field("<8\n>") == "<8 >"


def test_sanitize_strips_outer_whitespace():
    assert sanitize_field("  padded  ") == "padded"


def test_sanitize_keeps_inner_punctuation():
    assert sanitize_field("a, b; c") == "a, b; c"


@given(st.text(max_size=200))
def test_sanitize_is_idempotent(raw):
    once = sanitize_field(raw)
    assert sanitize_field(once) == once


@given(st.text(max_size=200))
def test_sanitize_output_is_always_encodable(raw):
    clean = sanitize_field(raw)
    assert DELIMITER not in clean
    assert "\n" not in clean and "\r" not in clean
    assert clean == clean.strip()


def reference_sanitize(raw: str) -> str:
    """The regex form sanitize_field replaced: the model its chain must match."""
    out = re.sub(r"\r\n|[\r\n]", " ", raw)
    out = out.replace(DELIMITER, "<8 >")
    return out.strip()


# Line breaks, the delimiter's characters, whitespace the regex ignores but
# strip() drops (U+0085, U+2028), and one plain letter.
SANITIZE_ALPHABET = st.sampled_from(["\r", "\n", "<", "8", ">", " ", "\t", "\x85", "\u2028", "a"])


@given(st.text(alphabet=SANITIZE_ALPHABET, max_size=40))
@example("\r\r\n")
@example("\n\r")
@example("<8\n>")
@example("<<8>>")
@example("<8><8>")
def test_sanitize_matches_the_regex_reference(raw):
    assert sanitize_field(raw) == reference_sanitize(raw)


@pytest.mark.parametrize("value", [None, 5, b"bytes", ["a"], {"x": 1}])
def test_sanitize_rejects_a_value_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        sanitize_field(value)


# ------------------------------------------------------------ encode/decode


def test_encode_joins_seven_fields():
    rec = make_record()
    line = encode_record(rec)
    assert line.count(DELIMITER) == 6
    assert line.startswith("Sat Sep 07 20:14:03 +0000 2019<8>1170447725900742656<8>")


def test_round_trip_preserves_all_fields():
    rec = make_record()
    assert TweetRecord(*decode_record(encode_record(rec))) == rec


def test_decode_trims_one_space_around_each_field():
    line = "a <8> 1 <8> en <8> x <8> n <8> u <8> t"
    assert decode_record(line) == ["a", "1", "en", "x", "n", "u", "t"]


def test_decode_trims_at_most_one_space():
    line = "a<8>1<8>en<8>x<8>n<8>u<8>  t "
    assert decode_record(line)[-1] == " t"


def test_decode_wrong_field_count():
    with pytest.raises(FieldCountError) as exc_info:
        decode_record("a<8>b<8>c")
    assert exc_info.value.field_count == 3
    assert "expected 7 fields, got 3" in str(exc_info.value)
    with pytest.raises(FieldCountError):
        decode_record("<8>".join("abcdefgh"))


def reference_trim(field: str) -> str:
    """The decode trim rule field by field, as decode_record once applied
    it: at most one leading and one trailing space belong to the delimiter."""
    if field.startswith(" "):
        field = field[1:]
    if field.endswith(" "):
        field = field[:-1]
    return field


def reference_decode(line: str) -> list[str]:
    parts = line.split(DELIMITER)
    if len(parts) != len(FIELD_NAMES):
        raise FieldCountError(len(parts))
    return [reference_trim(part) for part in parts]


@st.composite
def padded_lines(draw):
    """Fields joined by "<8>" with 0-2 spaces on either side of each
    delimiter and at both line ends; mostly seven fields, sometimes not."""
    count = draw(st.one_of(st.just(len(FIELD_NAMES)), st.integers(1, 9)))
    pad = st.integers(0, 2).map(" ".__mul__)
    return DELIMITER.join(
        draw(pad) + draw(st.text(alphabet="a <8>", max_size=4)) + draw(pad)
        for _ in range(count))


@settings(max_examples=300)
@given(line=padded_lines())
@example(line="  <8>  <8> <8><8>  a <8>   <8>  ")
def test_decode_agrees_with_the_reference_trim(line):
    try:
        expected = reference_decode(line)
    except FieldCountError as exc:
        with pytest.raises(FieldCountError) as got:
            decode_record(line)
        assert got.value.field_count == exc.field_count
    else:
        assert decode_record(line) == expected


def test_encode_rejects_delimiter_in_field():
    rec = make_record(text="bad<8>field")
    with pytest.raises(InvalidRecordError):
        encode_record(rec)


def test_encode_rejects_line_breaks():
    with pytest.raises(InvalidRecordError):
        encode_record(make_record(text="two\nlines"))


def test_encode_rejects_outer_whitespace():
    with pytest.raises(InvalidRecordError):
        encode_record(make_record(name=" padded"))


def test_encode_rejects_bad_id():
    with pytest.raises(InvalidRecordError):
        encode_record(make_record(id=""))
    with pytest.raises(InvalidRecordError):
        encode_record(make_record(id="12x4"))


def test_encode_rejects_empty_location():
    with pytest.raises(InvalidRecordError):
        encode_record(make_record(location=""))


def test_text_commas_and_semicolons_survive():
    rec = make_record(text="OT a, b; c")
    assert TweetRecord(*decode_record(encode_record(rec))).text == "OT a, b; c"


field_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=60
).map(sanitize_field).filter(lambda s: s)


@given(
    creation_date=field_text,
    id=st.integers(min_value=1, max_value=10**19).map(str),
    lang=st.sampled_from(["en", "und", "hi", "pt"]),
    location=field_text,
    name=field_text,
    username=field_text,
    text=field_text,
)
def test_round_trip_on_sanitized_fields(**fields):
    rec = TweetRecord(**fields)
    assert TweetRecord(*decode_record(encode_record(rec))) == rec


def reference_validate(record: TweetRecord) -> None:
    """The codec invariants checked field by field, as encode_record
    once did; encode_record now checks them on the joined line."""
    for field_name, value in zip(FIELD_NAMES, record.fields()):
        if DELIMITER in value:
            raise InvalidRecordError(f"{field_name} contains the {DELIMITER!r} delimiter")
        if "\n" in value or "\r" in value:
            raise InvalidRecordError(f"{field_name} contains a line break")
        if value.startswith(" ") or value.endswith(" "):
            raise InvalidRecordError(f"{field_name} has leading or trailing space")
    if not record.id or not record.id.isdigit():
        raise InvalidRecordError("id must be a non-empty decimal-digit string")
    if not record.location:
        raise InvalidRecordError("location must be non-empty")


# Ways to spoil a field: each breaks one rule, or half-builds a delimiter
# that a neighbouring field may complete.
_SPOILERS = (
    lambda v: " " + v, lambda v: v + " ", lambda v: " ", lambda v: "",
    lambda v: v + "<8>", lambda v: "<8>" + v, lambda v: v + "<8", lambda v: "8>" + v,
    lambda v: v + "<", lambda v: v + "8", lambda v: ">" + v,
    lambda v: v[:1] + "\r" + v[1:], lambda v: v + "\n", lambda v: "\r\n" + v,
)


@st.composite
def edge_records(draw):
    """A valid record with one to three spoilers applied to its fields, so
    that a record often breaks one rule alone, at either end of the line or
    beside a delimiter, and sometimes several."""
    fields = [draw(st.text(alphabet="a9<>", min_size=1, max_size=4)) for _ in FIELD_NAMES]
    fields[FIELD_NAMES.index("id")] = draw(st.text(alphabet="0123456789", min_size=1))
    spoils = st.tuples(st.integers(0, len(FIELD_NAMES) - 1), st.sampled_from(_SPOILERS))
    for i, spoil in draw(st.lists(spoils, min_size=1, max_size=3)):
        fields[i] = spoil(fields[i])
    return TweetRecord(*fields)


def assert_encode_agrees_with_reference(record: TweetRecord) -> None:
    try:
        reference_validate(record)
    except InvalidRecordError:
        with pytest.raises(InvalidRecordError):
            encode_record(record)
    else:
        assert TweetRecord(*decode_record(encode_record(record))) == record


@settings(max_examples=300)
@given(record=edge_records())
# Half delimiters on both sides of a field edge make no delimiter.
@example(record=make_record(lang="<8", location="8>"))
def test_encode_rejects_exactly_what_the_field_checks_reject(record):
    assert_encode_agrees_with_reference(record)


def test_encode_agrees_with_the_field_checks_on_every_single_spoil():
    valid = make_record(text="OT a")
    for name in FIELD_NAMES:
        for spoil in _SPOILERS:
            record = replace(valid, **{name: spoil(getattr(valid, name))})
            assert_encode_agrees_with_reference(record)


# ----------------------------------------------------------------- paths


def test_crawl_path_evening():
    loc = FileLocator(date=dt.date(2019, 9, 7), hour=20)
    assert crawl_file_path(loc) == "./data/09-07-2019/tweets-20 PM.txt"


def test_processed_path_morning():
    loc = FileLocator(date=dt.date(2019, 9, 8), hour=6)
    assert processed_file_path(loc) == "./data/09-08-2019-tweets-06 AM.json"


def test_paths_accept_custom_root():
    loc = FileLocator(date=dt.date(2019, 9, 7), hour=20)
    assert crawl_file_path(loc, root="/tmp/x") == "/tmp/x/09-07-2019/tweets-20 PM.txt"


@pytest.mark.parametrize(
    "hour,expect",
    [(0, "00 AM"), (11, "11 AM"), (12, "12 PM"), (23, "23 PM")],
)
def test_hour_formatting_and_meridiem(hour, expect):
    loc = FileLocator(date=dt.date(2020, 1, 2), hour=hour)
    assert crawl_file_path(loc).endswith(f"tweets-{expect}.txt")


def test_locator_from_timestamp_uses_utc():
    ts = int(dt.datetime(2019, 9, 7, 20, 14, 3, tzinfo=dt.timezone.utc).timestamp() * 1000)
    loc = FileLocator.from_timestamp_ms(ts)
    assert loc.date == dt.date(2019, 9, 7)
    assert loc.hour == 20


def test_locator_rejects_bad_hour():
    with pytest.raises(ValueError):
        FileLocator(date=dt.date(2020, 1, 1), hour=24)


def test_parse_crawl_file_path_round_trip():
    loc = FileLocator(date=dt.date(2019, 9, 7), hour=20)
    parsed = parse_crawl_file_path(crawl_file_path(loc, root="/srv/data"))
    assert parsed == loc


def test_parse_crawl_file_path_rejects_mismatched_meridiem():
    with pytest.raises(ValueError):
        parse_crawl_file_path("./data/09-07-2019/tweets-20 AM.txt")
    with pytest.raises(ValueError):
        parse_crawl_file_path("./data/09-07-2019/tweets-06 PM.txt")


def test_parse_crawl_file_path_rejects_other_files():
    with pytest.raises(ValueError):
        parse_crawl_file_path("./data/09-07-2019/notes.txt")
