"""Compliance ledger tests: validation, gapless sequence, durability."""

import json
import logging
import os
import re
import stat
import tempfile
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import tweetpipe.ledger
from tweetpipe.cli import main
from tweetpipe.clock import VirtualClock
from tweetpipe.gateway import CategoryRules, DirectorySink, PrivacyGateway, Vault
from tweetpipe.ledger import (
    ComplianceLedger,
    EVENT_BREACH,
    EVENT_DELIVERY_FAILED,
    EVENT_DISCLOSURE,
    EVENT_ERASURE,
    ValidationError,
    encode_json,
    iso_utc,
    replaced_text,
)
from tweetpipe.processor import ProcessedTweet

T0 = 1_567_888_000_000
CODE = "a" * 32
OTHER = "b" * 32


@pytest.fixture()
def ledger(tmp_path):
    led = ComplianceLedger(tmp_path / "ledger.jsonl", clock=VirtualClock(T0))
    yield led
    led.close()


def read_entries(path):
    """Every entry in the ledger file, oldest first; none before the first."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def disclose(led, code=CODE, beneficiary="svc-food", purpose="recommendation",
             retention_days=30):
    return led.record(EVENT_DISCLOSURE, code, beneficiary=beneficiary,
                      purpose=purpose, retention_days=retention_days)


# ------------------------------------------------------------- validation


def test_first_entry_gets_seq_one(ledger):
    assert disclose(ledger) == 1
    assert disclose(ledger) == 2
    assert len(ledger) == 2


def test_disclosure_requires_all_fields(ledger):
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DISCLOSURE, CODE, purpose="p", retention_days=30)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DISCLOSURE, CODE, beneficiary="b", retention_days=30)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DISCLOSURE, CODE, beneficiary="b", purpose="p")
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DISCLOSURE, CODE, beneficiary="b", purpose="p",
                      retention_days=0)


def test_non_disclosures_reject_disclosure_fields(ledger):
    with pytest.raises(ValidationError):
        ledger.record(EVENT_ERASURE, CODE, beneficiary="b")
    with pytest.raises(ValidationError):
        ledger.record(EVENT_BREACH, CODE, retention_days=3)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_ERASURE, CODE, purpose="p")


def test_unknown_event_and_empty_code(ledger):
    with pytest.raises(ValidationError):
        ledger.record("subpoena", CODE)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_ERASURE, "")


def test_delivery_failed_must_cite_an_earlier_entry(ledger):
    disclose(ledger)
    for cited in (None, 0, 2, "1"):
        with pytest.raises(ValidationError):
            ledger.record(EVENT_DELIVERY_FAILED, CODE, disclosure_seq=cited)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_BREACH, CODE, disclosure_seq=1)
    assert ledger.record(EVENT_DELIVERY_FAILED, CODE, disclosure_seq=1) == 2
    assert read_entries(ledger.path)[-1]["disclosure_seq"] == 1


DISCLOSURE = {"event": EVENT_DISCLOSURE, "subject_code": CODE, "beneficiary": "svc-food",
              "purpose": "recommendation", "retention_days": 1}


@pytest.mark.parametrize("bad,error", [
    # True == 1 and 1.0 == 1, and each hashes as 1
    ({**DISCLOSURE, "retention_days": True}, ValidationError),
    ({**DISCLOSURE, "retention_days": 1.0}, ValidationError),
    ({**DISCLOSURE, "subject_code": ""}, ValidationError),
    ({**DISCLOSURE, "subject_code": 7}, ValidationError),
    ({**DISCLOSURE, "subject_code": None}, ValidationError),
    ({**DISCLOSURE, "beneficiary": ["svc-food"]}, ValidationError),
    ({**DISCLOSURE, "purpose": 1}, ValidationError),
    ({**DISCLOSURE, "consent": True}, TypeError),
    ({k: v for k, v in DISCLOSURE.items() if k != "subject_code"}, TypeError),
], ids=["days-true", "days-float", "code-empty", "code-int", "code-none", "beneficiary-list",
        "purpose-int", "unknown-key", "no-code"])
def test_a_known_entry_shape_admits_nothing_the_checks_refuse(ledger, bad, error):
    for _ in range(2):  # on a fresh ledger, then with DISCLOSURE's shape known
        with pytest.raises(error):
            ledger.record_all([bad])
        with pytest.raises(error):
            ledger.record_all([DISCLOSURE, bad])
        ledger.record_all([DISCLOSURE])
    assert [e["seq"] for e in read_entries(ledger.path)] == [1, 2]


def test_a_known_citing_shape_checks_every_cited_seq(ledger):
    disclose(ledger)
    failed = {"event": EVENT_DELIVERY_FAILED, "subject_code": CODE, "disclosure_seq": 1}
    assert ledger.record_all([failed]) == [2]
    for bad in (3, 4, 0, -1, True, 1.0, "1"):  # the next entry's seq is 3
        with pytest.raises(ValidationError):
            ledger.record_all([{**failed, "disclosure_seq": bad}])
    with pytest.raises(ValidationError):
        ledger.record_all([{**failed, "subject_code": ""}])
    with pytest.raises(ValidationError):  # the second entry would be seq 4
        ledger.record_all([failed, {**failed, "disclosure_seq": 4}])
    assert ledger.record_all([failed, {**failed, "disclosure_seq": 3}]) == [3, 4]
    assert [e.get("disclosure_seq") for e in read_entries(ledger.path)] == [None, 1, 1, 3]


def test_a_bool_is_not_a_number_of_days_or_a_seq(ledger):
    # bool is a subclass of int; JSON would write these as true.
    with pytest.raises(ValidationError):
        disclose(ledger, retention_days=True)
    assert disclose(ledger) == 1
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DELIVERY_FAILED, CODE, disclosure_seq=True)
    assert [e["seq"] for e in read_entries(ledger.path)] == [1]


# Characters JSON escapes, ones outside ASCII, and the braces a format
# template must not take for its own.
JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "\u2028", "é",
                                     "ſ", "İ", "\U0001f600", "{", "}", "a", " "])
                    | st.characters(blacklist_categories=("Cs",)))


@given(code=JSON_TEXT.filter(bool), beneficiary=JSON_TEXT.filter(bool),
       other=JSON_TEXT.filter(bool), purpose=JSON_TEXT.filter(bool), days=st.integers(1, 2**70),
       user_key=JSON_TEXT.filter(bool), text=JSON_TEXT, lang=JSON_TEXT,
       country=st.none() | JSON_TEXT, creation_date=JSON_TEXT)
def test_every_ledger_and_vault_line_is_what_encode_json_writes(code, beneficiary, other, purpose,
                                                                days, user_key, text, lang,
                                                                country, creation_date):
    def disclosure(to):
        return {"event": EVENT_DISCLOSURE, "subject_code": code, "beneficiary": to,
                "purpose": purpose, "retention_days": days}

    with tempfile.TemporaryDirectory() as root:
        with ComplianceLedger(os.path.join(root, "l.jsonl"), clock=VirtualClock(T0)) as led:
            # two beneficiaries in one batch, then a failure citing one of them
            led.record_all([disclosure(beneficiary), disclosure(other), disclosure(beneficiary)])
            led.record_all([{"event": EVENT_DELIVERY_FAILED, "subject_code": code,
                             "disclosure_seq": 2}])
            led.record(EVENT_DISCLOSURE, code, beneficiary=beneficiary, purpose=purpose,
                       retention_days=days)
            led.record(EVENT_DELIVERY_FAILED, code, disclosure_seq=1)
            led.record(EVENT_ERASURE, code)
            led.record_breach([code, code])
        with Vault(os.path.join(root, "v.jsonl"), clock=VirtualClock(T0)) as vault:
            vault.register(user_key)
            vault.erase(user_key)
        for name, count in (("l.jsonl", 9), ("v.jsonl", 2)):
            with open(os.path.join(root, name), "rb") as fh:
                lines = fh.read().decode().split("\n")[:-1]
            assert len(lines) == count
            for line in lines:
                assert encode_json(json.loads(line)) == line
        entries = read_entries(os.path.join(root, "l.jsonl"))
        assert [e.get("beneficiary") for e in entries[:4]] == [beneficiary, other, beneficiary, None]
        assert [e.get("disclosure_seq") for e in entries] == [None] * 3 + [2, None, 1] + [None] * 3

    # No identifier is registered, so the text leaves unscrubbed.
    gw = PrivacyGateway(vault=None, ledger=None, rules=CategoryRules({}))
    record = ProcessedTweet(creation_date, "1", lang, "Delhi", "Asha Rao", "asha_rao", text,
                            country, None)
    payload = {"text": text, "lang": lang, "country": country, "creation_date": creation_date}
    for bundle in gw.pseudonymize(record, code):
        assert bundle.payload_json == encode_json(payload)
        assert bundle.line() == encode_json(
            {"code": code, "category": bundle.category, "payload": payload})


def test_record_all_checks_every_entry_before_writing_any(ledger):
    good = {"event": EVENT_BREACH, "subject_code": CODE}
    with pytest.raises(ValidationError):
        ledger.record_all([good, {"event": EVENT_ERASURE, "subject_code": ""}])
    assert len(ledger) == 0
    assert not os.path.exists(ledger.path)
    assert ledger.record_all([]) == []
    assert not os.path.exists(ledger.path)
    assert ledger.record_all([good, good]) == [1, 2]


def test_a_batch_shares_one_timestamp(tmp_path):
    clock = VirtualClock(T0)

    def codes():  # the clock crosses a second boundary mid-batch
        yield CODE
        clock.sleep_ms(1_500)
        yield OTHER

    with ComplianceLedger(tmp_path / "l.jsonl", clock=clock) as led:
        led.record_all({"event": EVENT_BREACH, "subject_code": c} for c in codes())
        led.record(EVENT_BREACH, CODE)
    stamps = [e["at"] for e in read_entries(tmp_path / "l.jsonl")]
    assert stamps[0] == stamps[1] < stamps[2]


def test_failed_validation_writes_nothing(ledger):
    with pytest.raises(ValidationError):
        ledger.record(EVENT_DISCLOSURE, CODE)
    assert len(ledger) == 0
    assert disclose(ledger) == 1  # sequence unaffected by the rejected call


# ----------------------------------------------------------- file behavior


def test_entries_are_json_lines_with_iso_timestamps(tmp_path):
    with ComplianceLedger(tmp_path / "l.jsonl", clock=VirtualClock(T0)) as led:
        disclose(led)
    lines = (tmp_path / "l.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["at"] == "2019-09-07T20:26:40Z"
    assert entry["seq"] == 1


def test_sequence_survives_restart(tmp_path):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led)
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        assert disclose(led) == 3
        assert [e["seq"] for e in read_entries(path)] == [1, 2, 3]


def test_file_is_append_only(tmp_path):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
    before = path.read_bytes()
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        led.record(EVENT_ERASURE, CODE)
    assert path.read_bytes().startswith(before)


def verify(path) -> int:
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        return led.verify()


def assert_verify_fails(path, capsys, message: str) -> None:
    """verify() and `ledger verify` both reject the file with path:line message."""
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:{message}')}"):
        verify(path)
    capsys.readouterr()
    assert main(["ledger", "--ledger", str(path), "verify"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{message}")


def test_verify_rejects_sequence_gaps(tmp_path, capsys):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led)
        assert led.verify() == 2
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(lines[0] + "\n" + lines[1].replace('"seq": 2', '"seq": 5') + "\n",
                    encoding="utf-8")
    assert_verify_fails(path, capsys, "2: sequence gap (expected 2, found 5)")


def test_verify_rejects_corrupt_lines(tmp_path, capsys):
    path = tmp_path / "l.jsonl"

    def line(seq):
        return json.dumps({"seq": seq, "event": EVENT_ERASURE, "subject_code": CODE}) + "\n"

    # enough entries to fill several read blocks before the bad line
    head = "".join(line(seq) for seq in range(1, 1000))
    for bad in ("not json", "[1]", '"entry"', "null", '{"seq": 1000', "\udc80"):
        # whole, or torn: the bad line still raises, from the open once it is
        # the last committed line
        for tail in (line(1000), line(1000)[:9]):
            path.write_text(head + bad + "\n" + tail, encoding="utf-8",
                            errors="surrogateescape")
            assert_verify_fails(path, capsys, "1000: ")


def test_verify_passes_what_record_writes(tmp_path):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        led.record(EVENT_DELIVERY_FAILED, CODE, disclosure_seq=1)
        led.record(EVENT_ERASURE, CODE)
        led.record_breach([CODE, OTHER])
        assert led.verify() == 5


@pytest.mark.parametrize("bad,message", [
    ({"event": EVENT_DISCLOSURE, "subject_code": CODE, "beneficiary": "svc-food",
      "purpose": "recommendation", "retention_days": 0},
     "disclosure requires positive retention_days"),
    ({"event": EVENT_ERASURE, "subject_code": CODE, "beneficiary": "svc-food"},
     "erasure entries cannot carry disclosure fields"),
    ({"event": EVENT_DELIVERY_FAILED, "subject_code": CODE, "disclosure_seq": 2},
     "delivery_failed must cite an earlier entry's seq"),
    ({"event": "consent", "subject_code": CODE}, "unknown event type: 'consent'"),
    ({"event": EVENT_ERASURE, "subject_code": CODE, "minor": False},
     "got an unexpected keyword argument 'minor'"),
    ({"event": EVENT_ERASURE}, "missing 1 required positional argument: 'subject_code'"),
    ({"event": EVENT_BREACH, "subject_code": ""}, "subject_code is required"),
    ({"seq": 2.0, "event": EVENT_BREACH, "subject_code": CODE},
     "sequence gap (expected 2, found 2.0)"),
], ids=["days-zero", "erasure-beneficiary", "cites-itself", "unknown-event", "unknown-key",
        "no-code", "empty-code", "seq-float"])
def test_verify_applies_the_checks_record_makes(tmp_path, capsys, bad, message):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
    at = "2019-09-07T20:26:40Z"
    good = {"seq": 3, "event": EVENT_BREACH, "subject_code": CODE, "at": at}
    with open(path, "a", encoding="utf-8") as fh:  # a good last entry, so the open passes
        fh.write(json.dumps({"seq": 2, **bad, "at": at}) + "\n" + json.dumps(good) + "\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:2: ')}.*{re.escape(message)}$"):
        verify(path)
    assert main(["ledger", "--ledger", str(path), "verify"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.endswith(f"{message}\n")


@pytest.mark.parametrize("middle,message", [
    ("not json", "2: corrupt line: "),
    ('{"seq": 7, "event": "erasure", "subject_code": "ab"}',
     "2: sequence gap (expected 2, found 7)"),
])
def test_open_reads_past_a_bad_middle_line(tmp_path, capsys, middle, message):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        for _ in range(3):
            disclose(led)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], middle, lines[2]]) + "\n", encoding="utf-8")
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        assert len(led) == 3
        assert disclose(led) == 4
    assert_verify_fails(path, capsys, message)


@pytest.mark.parametrize("last,message", [
    ("not json", "corrupt line: "),
    ("[1]", "line is not a JSON object"),
    ("\udc80", "corrupt line: "),
    ('{"event": "erasure", "subject_code": "ab"}', "last entry has no positive seq (found None)"),
    ('{"seq": "2"}', "last entry has no positive seq (found '2')"),
    ('{"seq": true}', "last entry has no positive seq (found True)"),
    ('{"seq": 0}', "last entry has no positive seq (found 0)"),
])
@pytest.mark.parametrize("after", ["", "\n \t\n", '{"seq": 3'])
def test_open_rejects_a_bad_last_entry(tmp_path, last, message, after):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
    # blank lines and a torn line after the bad one do not hide it
    with open(path, "a", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(last + "\n" + after)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:2: {message}')}"):
        ComplianceLedger(path, clock=VirtualClock(T0))


@pytest.mark.parametrize("blank", ["\n", "\n\n\n", " \n\t\r\n", "\x0b\x0c\n", "\n{\"seq\": 9"])
def test_trailing_blank_lines_resolve_to_the_last_seq(tmp_path, blank):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(blank)
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        assert len(led) == 2
        assert disclose(led) == 3
        assert led.verify() == 3


def test_a_file_of_blank_lines_opens_empty(tmp_path):
    path = tmp_path / "l.jsonl"
    path.write_text("\n \n\n", encoding="utf-8")
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        assert len(led) == 0
        assert disclose(led) == 1
        assert led.verify() == 1


def test_open_reads_only_the_tail(tmp_path, monkeypatch):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0), fsync=False) as led:
        for _ in range(3000):  # several read blocks
            disclose(led)
    monkeypatch.setattr(ComplianceLedger, "lines", lambda *a: pytest.fail("whole file read"))
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        assert len(led) == 3000


def test_torn_final_entry_is_cut_at_every_byte(tmp_path, caplog):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led, OTHER, purpose="análisis ☃ 😀")
    data = path.read_bytes()
    head = data[:data.index(b"\n") + 1]
    last = data[len(head):]
    assert len(last.decode("utf-8")) < len(last)  # some cuts split a UTF-8 sequence
    for cut in range(len(last)):
        torn = head + last[:cut]
        path.write_bytes(torn)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tweetpipe.ledger"):
            with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
                assert len(led) == 1
                assert "shared with" not in led.transparency_report(OTHER)
                assert path.read_bytes() == torn  # reading leaves the file alone
                assert disclose(led, OTHER) == 2
        expected = f"{path}: skipping a torn final line at byte {len(head)}"
        assert [r.getMessage() for r in caplog.records] == ([expected] if cut else [])
        with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
            assert disclose(led) == 3
        assert [(e["seq"], e["event"]) for e in read_entries(path)] == [
            (1, EVENT_DISCLOSURE), (2, EVENT_DISCLOSURE), (3, EVENT_DISCLOSURE)]


def test_two_ledgers_on_one_path_have_one_writer(tmp_path):
    path = tmp_path / "l.jsonl"
    first, second, third = (ComplianceLedger(path, clock=VirtualClock(T0)) for _ in range(3))
    assert disclose(first) == 1
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: in use by another process$"):
        disclose(second)
    first.close()
    for stale in (second, third):  # each read the ledger before the first wrote
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: changed by another "
                                                  "process since it was opened$"):
            disclose(stale)
        stale.close()
    assert disclose(first) == 2  # what it wrote itself is no change
    first.close()
    assert verify(path) == 2


def test_a_same_size_rewrite_is_caught_by_its_mtime(tmp_path):
    # Another writer cuts the torn tail and appends an entry of the tail's
    # length: the file has the size the stale ledger noted, but a new seq 2.
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led)
    head, entry = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(head + b"x" * len(entry))
    os.utime(path, ns=(0, 0))
    stale = ComplianceLedger(path, clock=VirtualClock(T0))
    assert len(stale) == 1
    with ComplianceLedger(path, clock=VirtualClock(T0)) as other:
        assert disclose(other) == 2
    assert path.read_bytes() == head + entry
    with pytest.raises(ValidationError, match="changed by another process since it was opened$"):
        disclose(stale)
    stale.close()
    assert verify(path) == 2


def test_open_and_report_keep_no_history_in_memory(tmp_path):
    def peak(entries):
        path = tmp_path / f"{entries}.jsonl"
        path.unlink(missing_ok=True)
        with ComplianceLedger(path, clock=VirtualClock(T0), fsync=False) as led:
            for i in range(entries):
                disclose(led, code=CODE if i % 100 == 0 else f"{i:032x}")
        tracemalloc.start()
        try:
            with ComplianceLedger(path, clock=VirtualClock(T0), fsync=False) as led:
                report = led.transparency_report(CODE)
                disclose(led)
            assert report.count("shared with") == entries // 100
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # first-use allocations
    small, large = peak(400), peak(1600)
    # Both files are larger than one read block. Held as dicts, 400 entries
    # would take some 250 kB; the report's own lines grow by 12.
    assert large - small < 8_192, (small, large)


# ----------------------------------------------------------------- replay


def reference_replay(log, needle=b""):
    """The per-line rule the replay must match: skip a blank line, else
    json.loads it and require an object."""
    if not os.path.exists(log.path):
        return
    for line_num, line in log.lines(needle):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise log.error(f"{log.path}:{line_num}: corrupt line: {exc}")
        if not isinstance(obj, dict):
            raise log.error(f"{log.path}:{line_num}: line is not a JSON object")
        yield line_num, obj


def replay_outcome(replay):
    """(pairs yielded, (error type, message) or None)."""
    pairs = []
    try:
        for pair in replay:
            pairs.append(pair)
    except Exception as exc:  # the log's own error class: ValueError or VaultError
        return pairs, (type(exc), str(exc))
    return pairs, None


def line_logs(directory):
    """A ledger, a vault and a directory sink, each opened on no file."""
    os.makedirs(directory / "sink")
    return [ComplianceLedger(directory / "ledger.jsonl", clock=VirtualClock(T0)),
            Vault(directory / "vault.jsonl", clock=VirtualClock(T0)),
            DirectorySink(directory / "sink")]


def assert_replays_match(logs, data: bytes, needle=b""):
    """Each log's replay of data matches the reference rule's."""
    for log in logs:
        with open(log.path, "wb") as fh:
            fh.write(data)
        expected = replay_outcome(reference_replay(log, needle))
        assert replay_outcome(log._replay(needle)) == expected, (log.path, data)


GOOD = b'{"seq": 1, "event": "erasure", "subject_code": "ab"}'
ODD_LINES = [
    b"", b"  ", b"\t", b"\r", b"\x0b\x0c",
    b" " + GOOD, GOOD + b" ", b"\t" + GOOD + b"\r", GOOD + b"\x0c",
    GOOD + GOOD, GOOD + b" " + GOOD, b'{"seq": 1} x', b'{"seq": 1}]',
    b'{"seq": 1, "seq": 2}', b"NaN", b'{"seq": NaN}', b'{"seq": Infinity}',
    b"[1]", b"null", b'"entry"', b"1", b"{}", b"1 2",
    b"\xff", b'{"seq": "\xc3"}', b"\xef\xbb\xbf" + GOOD, b'{"seq": 1',
    b'{"s\\u00e9q": "\xc3\xa9 \xe2\x98\x83"}', b'{"seq": "\\ud800"}', b"\xc2\xa0" + GOOD,
]


@pytest.mark.parametrize("odd", ODD_LINES)
def test_replay_matches_the_reference_rule(tmp_path, odd):
    logs = line_logs(tmp_path)
    for tail in (b"", GOOD, GOOD[:9], odd):  # nothing, whole, torn, or the odd line torn
        for needle in (b"", b'"seq"', b"x"):
            assert_replays_match(logs, GOOD + b"\n" + odd + b"\n" + GOOD + b"\n" + tail,
                                 needle)


@pytest.fixture(scope="module")
def replay_logs(tmp_path_factory):
    return line_logs(tmp_path_factory.mktemp("replay"))


json_line = st.builds(
    lambda obj, pad: (pad[0] + json.dumps(obj, ensure_ascii=False) + pad[1]).encode(),
    st.one_of(st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5)
                              | st.floats() | st.none(), max_size=4),
              st.integers(), st.none(), st.lists(st.integers(), max_size=2)),
    st.tuples(st.sampled_from(["", " ", "\t", "\r"]), st.sampled_from(["", " ", "\r", "x"])),
)


@given(st.lists(json_line | st.sampled_from(ODD_LINES) | st.binary(max_size=12), max_size=8),
       st.sampled_from([b"", b"\n"]), st.sampled_from([b"", b'"', b"seq"]))
def test_replay_matches_the_reference_rule_on_any_lines(replay_logs, lines, end, needle):
    assert_replays_match(replay_logs, b"\n".join(lines) + end, needle)


# ---------------------------------------------------------------- queries


def test_record_breach_fans_out(ledger):
    seqs = ledger.record_breach([CODE, OTHER])
    assert seqs == [1, 2]
    assert [e["event"] for e in read_entries(ledger.path)] == [EVENT_BREACH, EVENT_BREACH]
    with pytest.raises(ValidationError):
        ledger.record_breach([])


def test_record_breach_checks_every_code_before_writing_any(ledger):
    with pytest.raises(ValidationError):
        ledger.record_breach([CODE, "", OTHER])
    assert len(ledger) == 0
    assert not os.path.exists(ledger.path)
    assert ledger.record_breach([OTHER]) == [1]


def test_record_breach_writes_the_batch_with_one_fsync(tmp_path, monkeypatch):
    real_os = tweetpipe.ledger.os
    fsyncs = []

    class FsyncCounter:
        def __getattr__(self, name):
            return getattr(real_os, name)

        def fsync(self, fd):
            fsyncs.append(fd)
            real_os.fsync(fd)

    codes = [f"{i:032x}" for i in range(10)]
    with ComplianceLedger(tmp_path / "one.jsonl", clock=VirtualClock(T0)) as led:
        disclose(led)
        for code in codes:  # the same entries, one record each
            led.record(EVENT_BREACH, code)
    monkeypatch.setattr(tweetpipe.ledger, "os", FsyncCounter())
    with ComplianceLedger(tmp_path / "batch.jsonl", clock=VirtualClock(T0)) as led:
        disclose(led)
        fsyncs.clear()
        assert led.record_breach(codes) == list(range(2, 12))
    assert len(fsyncs) == 1
    assert (tmp_path / "batch.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


def test_a_new_file_gets_one_directory_fsync(tmp_path, monkeypatch):
    real_os = tweetpipe.ledger.os
    synced = []

    class FsyncSpy:
        def __getattr__(self, name):
            return getattr(real_os, name)

        def fsync(self, fd):
            info = real_os.fstat(fd)
            synced.append("directory" if stat.S_ISDIR(info.st_mode) else "file")
            if stat.S_ISDIR(info.st_mode):
                assert real_os.path.samestat(info, real_os.stat(tmp_path / "new"))
            real_os.fsync(fd)

    monkeypatch.setattr(tweetpipe.ledger, "os", FsyncSpy())

    def ledger_commit(path, key):  # one fsynced entry
        with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
            led.sync()  # nothing written yet: nothing to sync
            led.record_breach([key])
            led.record_breach([key])

    def vault_commit(path, key):  # two bindings, each synced
        with Vault(path, clock=VirtualClock(T0)) as vault:
            vault.sync()
            vault.register(f"{key}:1")
            vault.sync()
            vault.register(f"{key}:2")
            vault.sync()

    for commit in (ledger_commit, vault_commit):
        path = tmp_path / "new" / "log.jsonl"
        commit(path, CODE)
        assert synced == ["file", "directory", "file"]
        commit(path, OTHER)  # reopened: its directory entry is already durable
        assert synced == ["file", "directory", "file", "file", "file"]
        synced.clear()
        os.remove(path)


def test_a_replaced_file_is_fsynced_before_its_rename_and_its_directory_after(
        tmp_path, monkeypatch):
    real_os = tweetpipe.ledger.os
    calls = []

    class Spy:
        def __getattr__(self, name):
            return getattr(real_os, name)

        def fsync(self, fd):
            info = real_os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                assert real_os.path.samestat(info, real_os.stat(tmp_path / "out"))
                calls.append("fsync directory")
            else:
                calls.append(f"fsync file of {info.st_size} bytes")
            real_os.fsync(fd)

        def replace(self, src, dst):
            calls.append("replace")
            real_os.replace(src, dst)

    monkeypatch.setattr(tweetpipe.ledger, "os", Spy())
    path = tmp_path / "out" / "table.csv"
    with replaced_text(path, newline="") as fh:
        fh.write("key,count\r\n")
        assert calls == []
    assert calls == ["fsync file of 11 bytes", "replace", "fsync directory"]
    assert path.read_bytes() == b"key,count\r\n"
    assert os.listdir(tmp_path / "out") == ["table.csv"]


# ----------------------------------------------------------------- report


def test_report_for_unknown_code_is_all_none(ledger):
    report = ledger.transparency_report("f" * 32)
    assert report.startswith(f"Transparency report for {'f' * 32}\n")
    assert report.count("(none)") == 3


def test_report_mentions_every_event(ledger):
    disclose(ledger, CODE, beneficiary="svc-food", purpose="recommendation",
             retention_days=30)
    ledger.record_breach([CODE])
    ledger.record(EVENT_ERASURE, CODE)
    report = ledger.transparency_report(CODE)
    assert "shared with svc-food for recommendation, retention 30 days" in report
    assert "breach notification" in report
    assert "binding erased" in report
    assert "(none)" not in report


def test_report_lists_failed_deliveries_after_disclosures(ledger):
    disclose(ledger, CODE)
    disclose(ledger, OTHER)
    ledger.record(EVENT_DELIVERY_FAILED, CODE, disclosure_seq=1)
    report = ledger.transparency_report(CODE)
    assert report.split("\n")[1:6] == [
        "Disclosures:",
        "  - 2019-09-07T20:26:40Z: shared with svc-food for recommendation, "
        "retention 30 days (entry 1)",
        "Failed deliveries:",
        "  - 2019-09-07T20:26:40Z: delivery of entry 1 failed (entry 3)",
        "Erasures:",
    ]
    assert "Failed deliveries:" not in ledger.transparency_report(OTHER)


def test_report_matches_raw_file_contents(tmp_path):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led, CODE, beneficiary="svc-a", purpose="pa", retention_days=3)
        disclose(led, CODE, beneficiary="svc-b", purpose="pb", retention_days=9)
        report = led.transparency_report(CODE)
    raw = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for entry in raw:
        assert f"shared with {entry['beneficiary']} for {entry['purpose']}" in report
        assert f"retention {entry['retention_days']} days" in report
    # disclosures appear in ledger order
    assert report.index("svc-a") < report.index("svc-b")


@pytest.mark.parametrize("field", ["seq", "event", "subject_code", "at"])
def test_report_names_the_line_of_an_entry_it_cannot_read(tmp_path, capsys, field):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        led.record(EVENT_ERASURE, CODE)
        led.record(EVENT_ERASURE, CODE)
    first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
    entry = json.loads(first)
    del entry[field]
    entry["note"] = CODE  # the line still holds the code
    path.write_text(json.dumps(entry) + "\n" + second, encoding="utf-8")
    message = f"{path}:1: entry has no {field!r} field"
    with ComplianceLedger(path) as led:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            led.transparency_report(CODE)
    assert main(["ledger", "--ledger", str(path), "report", "--code", CODE]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_entries_in_one_second_share_its_timestamp(tmp_path):
    clock = VirtualClock(T0 - 1)
    stamps = []
    with ComplianceLedger(tmp_path / "l.jsonl", clock=clock, fsync=False) as led:
        for step_ms in (0, 1, 1, 998, 1, 3_600_000, 0, 86_400_000 - 1):
            clock.sleep_ms(step_ms)
            led.record(EVENT_BREACH, CODE)
            stamps.append(iso_utc(clock.now_ms()))
        assert [e["at"] for e in read_entries(led.path)] == stamps
    assert stamps[:4] == ["2019-09-07T20:26:39Z"] + ["2019-09-07T20:26:40Z"] * 3
    assert stamps[-1] == "2019-09-08T21:26:40Z"


def test_iso_utc_formats():
    assert iso_utc(0) == "1970-01-01T00:00:00Z"
    assert iso_utc(T0) == "2019-09-07T20:26:40Z"
