"""Compliance ledger tests: validation, gapless sequence, durability."""

import json
import logging
import os
import re
import tracemalloc

import pytest

from tweetpipe.clock import VirtualClock
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


# ---------------------------------------------------------------- queries


def test_record_breach_fans_out(ledger):
    seqs = ledger.record_breach([CODE, OTHER])
    assert seqs == [1, 2]
    assert [e["event"] for e in read_entries(ledger.path)] == [EVENT_BREACH, EVENT_BREACH]
    with pytest.raises(ValidationError):
        ledger.record_breach([])


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
