"""Append-only compliance ledger.

Every data handover, erasure, consent and breach notification is one
JSON object on its own line, numbered by a gapless sequence that
survives restarts. Entries reference users only by pseudonym code; raw
identifiers must never reach this file, because the ledger is meant to
be shown around (regulators, transparency requests, post-incident
review).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

from .clock import SystemClock

EVENT_DISCLOSURE = "disclosure"
EVENT_ERASURE = "erasure"
EVENT_CONSENT = "consent"
EVENT_BREACH = "breach_notice"
EVENTS = (EVENT_DISCLOSURE, EVENT_ERASURE, EVENT_CONSENT, EVENT_BREACH)


class ValidationError(ValueError):
    """Entry fields do not satisfy the per-event requirements."""


def iso_utc(ts_ms: int) -> str:
    """Second-resolution ISO-8601 UTC rendering of a millisecond timestamp."""
    dt = datetime.fromtimestamp(ts_ms / 1000.0, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


class ComplianceLedger:
    """Durable audit log with per-event validation.

    Records are flushed and fsynced before `record` returns (set
    fsync=False to trade durability for bulk speed). On open, an
    existing file is replayed to resume the sequence gaplessly.
    """

    def __init__(self, path, clock=None, fsync: bool = True):
        self.path = str(path)
        self._clock = clock or SystemClock()
        self._fsync = fsync
        self._entries: list[dict] = []
        # iso_utc has one-second resolution, so entries written within the
        # same second share one rendering.
        self._at_second: int | None = None
        self._at = ""
        self._load()
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8", newline="\n")

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for line_num, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{self.path}:{line_num}: corrupt entry: {exc}")
                if entry.get("seq") != len(self._entries) + 1:
                    raise ValidationError(
                        f"{self.path}:{line_num}: sequence gap "
                        f"(expected {len(self._entries) + 1}, found {entry.get('seq')})"
                    )
                self._entries.append(entry)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ComplianceLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[dict]:
        """Snapshot of all entries, oldest first."""
        return [dict(e) for e in self._entries]

    def record(
        self,
        event: str,
        subject_code: str,
        beneficiary: str | None = None,
        purpose: str | None = None,
        retention_days: int | None = None,
        minor: bool | None = None,
    ) -> int:
        """Append one entry; returns its sequence number.

        Disclosures must name beneficiary, purpose and a positive
        retention_days. The minor flag exists only for consent entries.
        Fields that make no sense for an event are rejected rather than
        silently dropped.
        """
        if event not in EVENTS:
            raise ValidationError(f"unknown event type: {event!r}")
        if not subject_code or not isinstance(subject_code, str):
            raise ValidationError("subject_code is required")
        if event == EVENT_DISCLOSURE:
            if not beneficiary:
                raise ValidationError("disclosure requires a beneficiary")
            if not purpose:
                raise ValidationError("disclosure requires a purpose")
            if not isinstance(retention_days, int) or retention_days < 1:
                raise ValidationError("disclosure requires positive retention_days")
        else:
            if beneficiary is not None or retention_days is not None:
                raise ValidationError(f"{event} entries cannot carry disclosure fields")
            if purpose is not None and event != EVENT_CONSENT:
                raise ValidationError(f"{event} entries cannot carry a purpose")
        if minor is not None and event != EVENT_CONSENT:
            raise ValidationError("minor flag is only valid on consent entries")

        entry = {
            "seq": len(self._entries) + 1,
            "event": event,
            "subject_code": subject_code,
            "beneficiary": beneficiary,
            "purpose": purpose,
            "retention_days": retention_days,
            "at": self._iso_now(),
        }
        if minor is not None:
            entry["minor"] = bool(minor)
        self._fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._entries.append(entry)
        return entry["seq"]

    def _iso_now(self) -> str:
        second = self._clock.now_ms() // 1000
        if second != self._at_second:
            self._at_second = second
            self._at = iso_utc(second * 1000)
        return self._at

    def record_breach(self, affected_codes) -> list[int]:
        """One breach_notice entry per affected code; returns their seqs."""
        codes = list(affected_codes)
        if not codes:
            raise ValidationError("a breach notice needs at least one affected code")
        return [self.record(EVENT_BREACH, code) for code in codes]

    def transparency_report(self, code: str) -> str:
        """Human-readable account of everything logged about a code."""
        disclosures: list[str] = []
        erasures: list[str] = []
        consents: list[str] = []
        breaches: list[str] = []
        for e in self._entries:
            if e["subject_code"] != code:
                continue
            if e["event"] == EVENT_DISCLOSURE:
                disclosures.append(
                    f"  - {e['at']}: shared with {e['beneficiary']} for {e['purpose']}, "
                    f"retention {e['retention_days']} days (entry {e['seq']})"
                )
            elif e["event"] == EVENT_ERASURE:
                erasures.append(f"  - {e['at']}: binding erased (entry {e['seq']})")
            elif e["event"] == EVENT_CONSENT:
                detail = f" for {e['purpose']}" if e.get("purpose") else ""
                if e.get("minor"):
                    detail += " (minor account)"
                consents.append(f"  - {e['at']}: consent recorded{detail} (entry {e['seq']})")
            elif e["event"] == EVENT_BREACH:
                breaches.append(f"  - {e['at']}: breach notification (entry {e['seq']})")

        def section(title: str, lines: list[str]) -> str:
            body = "\n".join(lines) if lines else "  (none)"
            return f"{title}:\n{body}"

        return "\n".join(
            [
                f"Transparency report for {code}",
                section("Disclosures", disclosures),
                section("Erasures", erasures),
                section("Consents", consents),
                section("Breach notices", breaches),
            ]
        ) + "\n"
