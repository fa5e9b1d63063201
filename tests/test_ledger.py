"""Compliance ledger tests: validation, gapless sequence, durability."""

import json
import logging
import os
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import tweetpipe.ledger
from tweetpipe.clock import VirtualClock
from tweetpipe.gateway import DirectorySink, Vault
from tweetpipe.ledger import (
    ComplianceLedger,
    EVENT_BREACH,
    EVENT_CONSENT,
    EVENT_DISCLOSURE,
    EVENT_ERASURE,
    ValidationError,
    iso_utc,
)

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


def test_consent_may_carry_purpose_and_minor(ledger):
    seq = ledger.record(EVENT_CONSENT, CODE, purpose="analytics", minor=True)
    entry = read_entries(ledger.path)[-1]
    assert (entry["seq"], entry["minor"], entry["purpose"]) == (seq, True, "analytics")


def test_minor_flag_is_consent_only(ledger):
    with pytest.raises(ValidationError):
        ledger.record(EVENT_ERASURE, CODE, minor=False)
    with pytest.raises(ValidationError):
        disclose(ledger, CODE) and ledger.record(
            EVENT_DISCLOSURE, CODE, beneficiary="b", purpose="p",
            retention_days=1, minor=True,
        )


def test_unknown_event_and_empty_code(ledger):
    with pytest.raises(ValidationError):
        ledger.record("subpoena", CODE)
    with pytest.raises(ValidationError):
        ledger.record(EVENT_ERASURE, "")


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


def test_load_rejects_sequence_gaps(tmp_path):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        disclose(led)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(lines[0] + "\n" + lines[1].replace('"seq": 2', '"seq": 5') + "\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError):
        ComplianceLedger(path, clock=VirtualClock(T0))


def test_load_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "l.jsonl"

    def line(seq):
        return json.dumps({"seq": seq, "event": EVENT_ERASURE, "subject_code": CODE}) + "\n"

    # enough entries to fill several read blocks before the bad line
    head = "".join(line(seq) for seq in range(1, 1000))
    for bad in ("not json", "[1]", '"entry"', "null", '{"seq": 1000', "\udc80"):
        for tail in (line(1000), line(1000)[:9]):  # whole, or torn: the bad line still raises
            path.write_text(head + bad + "\n" + tail, encoding="utf-8",
                            errors="surrogateescape")
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:1000: "):
                ComplianceLedger(path, clock=VirtualClock(T0))


def test_torn_final_entry_is_cut_at_every_byte(tmp_path, caplog):
    path = tmp_path / "l.jsonl"
    with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
        disclose(led)
        led.record(EVENT_CONSENT, OTHER, purpose="análisis ☃ 😀")
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
                assert "consent recorded" not in led.transparency_report(OTHER)
                assert path.read_bytes() == torn  # reading leaves the file alone
                assert disclose(led, OTHER) == 2
        expected = f"{path}: skipping a torn final line at byte {len(head)}"
        assert [r.getMessage() for r in caplog.records] == ([expected] if cut else [])
        with ComplianceLedger(path, clock=VirtualClock(T0)) as led:
            assert disclose(led) == 3
        assert [(e["seq"], e["event"]) for e in read_entries(path)] == [
            (1, EVENT_DISCLOSURE), (2, EVENT_DISCLOSURE), (3, EVENT_DISCLOSURE)]


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


# ----------------------------------------------------------------- report


def test_report_for_unknown_code_is_all_none(ledger):
    report = ledger.transparency_report("f" * 32)
    assert report.startswith(f"Transparency report for {'f' * 32}\n")
    assert report.count("(none)") == 4


def test_report_mentions_every_event(ledger):
    disclose(ledger, CODE, beneficiary="svc-food", purpose="recommendation",
             retention_days=30)
    ledger.record(EVENT_CONSENT, CODE, minor=True)
    ledger.record_breach([CODE])
    ledger.record(EVENT_ERASURE, CODE)
    report = ledger.transparency_report(CODE)
    assert "shared with svc-food for recommendation, retention 30 days" in report
    assert "(minor account)" in report
    assert "breach notification" in report
    assert "binding erased" in report
    assert "(none)" not in report


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
