"""Output checks for the benchmark workloads.

Each check reads what the program wrote and raises CheckFailed when it is
wrong. Messages name files and counts, never a handle, name or tweet id
from the data. The identifier-leak scan is not a check: the caller reports
leaked bundles as their own count beside the result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter
from pathlib import Path

CATEGORIES = ("ecommerce", "demographic_social", "food", "travel")
SCRUB_MIN_LENGTH = 4


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_lines(path: Path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in read_lines(path)]


def tree_digest(root: Path) -> str:
    """sha256 over every file's path relative to root and its bytes."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _field(pattern: str, text: str, what: str) -> int:
    m = re.search(pattern, text, re.MULTILINE)
    require(m is not None, f"{what} missing from the command's output")
    return int(m.group(1))


# --- pipeline -------------------------------------------------------------

def pipeline_counts(stdout: str) -> tuple[int, int]:
    """(requests, records kept) from the ``pipeline`` command's output."""
    m = re.search(r"^crawl: (\d+) requests, (\d+) records kept$", stdout, re.MULTILINE)
    require(m is not None, "crawl summary missing from the pipeline output")
    return int(m.group(1)), int(m.group(2))


def crawl_files(data_dir: Path) -> list[Path]:
    return sorted(Path(data_dir).glob("*/tweets-*.txt"))


def processed_files(data_dir: Path) -> list[Path]:
    return sorted(Path(data_dir).glob("*-tweets-*.json"))


def read_processed(data_dir: Path) -> list[dict]:
    records: list[dict] = []
    for path in processed_files(data_dir):
        records.extend(json.loads(path.read_text(encoding="utf-8")))
    return records


def recount(records: list[dict]) -> dict[str, list[tuple[str, int]]]:
    """Brute-force count of the four builtin analyses, sorted by count then key."""
    tables = {name: Counter() for name in
              ("builtin_lang", "builtin_country", "builtin_hashtag", "builtin_mention")}
    for r in records:
        tables["builtin_lang"][r["lang"]] += 1
        if r["country"] is not None:
            tables["builtin_country"][r["country"]] += 1
        tables["builtin_hashtag"].update(re.findall(r"#\w+", r["text"]))
        tables["builtin_mention"].update(re.findall(r"@\w+", r["text"]))
    return {name: sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            for name, counts in tables.items()}


def read_table(path: Path) -> list[tuple[str, int]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[:1] == [["key", "count"]], f"{Path(path).name}: bad header")
    return [(key, int(count)) for key, count in rows[1:]]


def check_pipeline(data_dir: Path, stdout: str, requests: int, hours: int,
                   limit: int = 100) -> None:
    """Requests, crawl lines, processed records, analyses and pruned tables."""
    made, kept = pipeline_counts(stdout)
    require(made == requests, f"pipeline made {made} requests, expected {requests}")
    files = crawl_files(data_dir)
    require(len(files) == hours, f"{len(files)} crawl files, expected one per hour ({hours})")
    lines = sum(len(read_lines(p)) for p in files)
    require(lines == kept, f"crawl files hold {lines} lines, the crawl kept {kept}")
    records = read_processed(data_dir)
    require(len(records) == kept, f"{len(records)} processed records, the crawl kept {kept}")
    processed = _field(r"^process: \d+ files, (\d+) records$", stdout, "process summary")
    require(processed == kept, f"process reported {processed} records, the crawl kept {kept}")
    for name, rows in recount(records).items():
        table = read_table(Path(data_dir) / "analysis" / f"{name}.csv")
        require(table == rows, f"analysis/{name}.csv differs from the brute-force recount")
        top = read_table(Path(data_dir) / "pruned" / f"{name}.csv")
        require(top == rows[:limit], f"pruned/{name}.csv is not the top {limit} of its table")


# --- gateway --------------------------------------------------------------

def sink_bundles(out_dir: Path) -> list[dict]:
    bundles: list[dict] = []
    for category in CATEGORIES:
        path = Path(out_dir) / "sinks" / category / "bundles.jsonl"
        if path.exists():
            bundles.extend(read_jsonl(path))
    return bundles


def check_gateway(feed: Path, out_dir: Path, stdout: str) -> list[dict]:
    """Ledger, sinks and vault agree; returns the delivered bundles."""
    from tweetpipe.gateway import UnknownCodeError, Vault

    records = _field(r"^records=(\d+)$", stdout, "records count")
    dispatched = _field(r"^bundles_dispatched=(\d+)$", stdout, "bundles_dispatched")
    fed = len(json.loads(Path(feed).read_text(encoding="utf-8")))
    require(records == fed, f"gateway read {records} records, the feed holds {fed}")
    ledger = read_jsonl(Path(out_dir) / "ledger.jsonl")
    require(len(ledger) == dispatched,
            f"ledger holds {len(ledger)} entries, gateway dispatched {dispatched}")
    require([e["seq"] for e in ledger] == list(range(1, len(ledger) + 1)),
            "ledger sequence numbers are not gapless from 1")
    bundles = sink_bundles(out_dir)
    require(len(bundles) == dispatched,
            f"sinks hold {len(bundles)} bundles, gateway dispatched {dispatched}")
    logged = Counter((e["event"], e["subject_code"], e["beneficiary"]) for e in ledger)
    delivered = Counter(("disclosure", b["code"], f"sinks/{b['category']}") for b in bundles)
    require(logged == delivered, "ledger disclosures do not match the delivered bundles")
    with Vault(Path(out_dir) / "vault.jsonl") as vault:
        for code in sorted({b["code"] for b in bundles}):
            try:
                vault.user_for(code)
            except UnknownCodeError:
                raise CheckFailed("a delivered bundle's code does not resolve in the vault") from None
    return bundles


def _words(text: str) -> list[str]:
    return re.findall(r"\w+", text.lower())


def count_leaked_bundles(feed_records: list[dict], bundles: list[dict]) -> int:
    """Bundles whose text contains, case-insensitively and as whole words, the
    handle, id or display name (at least SCRUB_MIN_LENGTH characters) of any
    user in the feed. A handle inside a longer one ("anna4" in "@anna42")
    names another account and is not counted."""
    terms = {" ".join(_words(ident)) for r in feed_records
             for ident in (r["username"], r["id"], r["name"]) if len(ident) >= SCRUB_MIN_LENGTH}
    longest = max((term.count(" ") + 1 for term in terms), default=1)
    verdicts: dict[str, bool] = {}
    leaked = 0
    for bundle in bundles:
        text = bundle["payload"]["text"]
        verdict = verdicts.get(text)
        if verdict is None:
            words = _words(text)
            verdict = verdicts[text] = any(
                " ".join(words[i:i + n]) in terms
                for n in range(1, longest + 1) for i in range(len(words) - n + 1)
            )
        leaked += verdict
    return leaked


# --- audit ----------------------------------------------------------------

_DISCLOSURE_RE = re.compile(
    r"^  - (\S+): shared with (.+) for (.+), retention (\d+) days \(entry (\d+)\)$"
)


def report_disclosures(report: str, code: str) -> list[tuple]:
    lines = report.split("\n")
    require(lines[0] == f"Transparency report for {code}", "report header names another code")
    require("Disclosures:" in lines, "report has no Disclosures section")
    found = []
    for line in lines[lines.index("Disclosures:") + 1:]:
        m = _DISCLOSURE_RE.match(line)
        if m is None:
            break
        at, beneficiary, purpose, days, seq = m.groups()
        found.append((int(seq), at, beneficiary, purpose, int(days)))
    return found


def check_report(report: str, code: str, ledger: list[dict]) -> None:
    expected = [(e["seq"], e["at"], e["beneficiary"], e["purpose"], e["retention_days"])
                for e in ledger if e["event"] == "disclosure" and e["subject_code"] == code]
    require(report_disclosures(report, code) == expected,
            "a report's disclosures differ from that code's ledger entries")


def check_breach(stdout: str, codes: list[str], ledger_len: int) -> None:
    count = _field(r"^breach_notices=(\d+)$", stdout, "breach_notices")
    m = re.search(r"^seqs=([\d,]+)$", stdout, re.MULTILINE)
    require(m is not None, "breach seqs missing from the command's output")
    seqs = [int(s) for s in m.group(1).split(",")]
    require(count == len(codes) == len(seqs), f"{count} breach notices for {len(codes)} codes")
    require(seqs == list(range(ledger_len + 1, ledger_len + 1 + len(codes))),
            "breach sequence numbers are not consecutive after the ledger's end")


def check_ledger_tail(ledger: list[dict], before: int, breach_codes: list[str],
                      erased_codes: list[str]) -> None:
    """After an audit step the ledger gained exactly its breach and erasure entries."""
    require([e["seq"] for e in ledger] == list(range(1, len(ledger) + 1)),
            "ledger sequence numbers are not gapless from 1")
    expected = ([("breach_notice", c) for c in breach_codes]
                + [("erasure", c) for c in erased_codes])
    require([(e["event"], e["subject_code"]) for e in ledger[before:]] == expected,
            "the ledger's new entries are not the breach and erasure entries")


def check_erase_remap(result: dict, erase: list[str], live: list[str],
                      binds: dict[str, str], vault_path: Path) -> None:
    """Erased codes never resolve; live codes remap to their own user."""
    from tweetpipe.gateway import UnknownCodeError, Vault

    require(result["erased"] == {u: binds[u] for u in erase},
            "erase_user returned other codes than the vault bound")
    for user in erase:
        require(result["remap"].get(binds[user], "absent") is None, "an erased code still resolves")
    for user in live:
        require(result["remap"].get(binds[user]) == user, "a live code remapped to another user")
    with Vault(vault_path) as vault:
        for user in erase:
            try:
                vault.user_for(binds[user])
            except UnknownCodeError:
                continue
            raise CheckFailed("an erased code resolves in the reopened vault")
