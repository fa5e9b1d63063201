"""Pseudonymizing gateway between processed tweets and outside services.

The gateway never lets an identity cross the boundary: each user is
replaced by a stable opaque code from a vault, payloads carry only
fields classified as invulnerable, text is scrubbed of every registered
identifier, and each delivery writes a disclosure entry to the
compliance ledger. Returned recommendations are re-mapped to the real
user inside the boundary via the same vault.
"""

from __future__ import annotations

import json
import logging
import os
import re
import secrets
import threading
from dataclasses import dataclass
from importlib import resources

import requests

from .clock import SystemClock
from .ledger import EVENT_DISCLOSURE, EVENT_ERASURE, ComplianceLedger
from .processor import ProcessedTweet

log = logging.getLogger(__name__)

VULNERABLE = "vulnerable"
INVULNERABLE = "invulnerable"

VULNERABLE_FIELDS = frozenset({"name", "username", "id", "location", "city"})
# Exactly these fields leave the gateway, as payload keys in this order; a
# tuple, because a frozenset's order changes between processes.
INVULNERABLE_FIELDS = ("text", "lang", "country", "creation_date")

THREAT_INTELLIGENCE = "threat_intelligence"
TARGETED_ADVERTISING = "targeted_advertising"
PREFERENCE_MANIPULATION = "preference_manipulation"
THREATS = (THREAT_INTELLIGENCE, TARGETED_ADVERTISING, PREFERENCE_MANIPULATION)
DEFAULT_THREAT = TARGETED_ADVERTISING

CATEGORY_ECOMMERCE = "ecommerce"
CATEGORY_DEMOGRAPHIC = "demographic_social"
CATEGORY_FOOD = "food"
CATEGORY_TRAVEL = "travel"
CATEGORIES = (CATEGORY_ECOMMERCE, CATEGORY_DEMOGRAPHIC, CATEGORY_FOOD, CATEGORY_TRAVEL)
DEFAULT_CATEGORY = CATEGORY_DEMOGRAPHIC

CODE_HEX_LENGTH = 32  # 128 bits
SCRUB_MIN_LENGTH = 4
SCRUB_REPLACEMENT = "***"


class UnknownFieldError(KeyError):
    """Field name outside the processed-record schema."""


class UnknownCodeError(KeyError):
    """Code not bound in the vault (never issued, or erased)."""


class UnknownUserError(KeyError):
    """No binding for this user key."""


class NoServiceForCategoryError(KeyError):
    """The registry has no sink for the bundle's category."""


class VaultError(Exception):
    """Vault storage corrupt or code minting failed."""


@dataclass(frozen=True)
class SensitivityLabel:
    field_name: str
    label: str
    threat: str | None = None

    def __post_init__(self) -> None:
        if (self.threat is not None) and self.label != VULNERABLE:
            raise ValueError("threat tags apply to vulnerable fields only")


def classify_sensitivity(field_name: str, threat_policy: dict | None = None) -> SensitivityLabel:
    """Label one processed-record field as vulnerable or invulnerable.

    Vulnerable fields carry a threat tag: targeted_advertising unless a
    policy mapping overrides it.
    """
    if field_name in VULNERABLE_FIELDS:
        threat = (threat_policy or {}).get(field_name, DEFAULT_THREAT)
        if threat not in THREATS:
            raise ValueError(f"unknown threat tag: {threat!r}")
        return SensitivityLabel(field_name, VULNERABLE, threat)
    if field_name in INVULNERABLE_FIELDS:
        return SensitivityLabel(field_name, INVULNERABLE)
    raise UnknownFieldError(field_name)


@dataclass(frozen=True)
class CategoryBundle:
    code: str
    category: str
    payload: dict

    def to_dict(self) -> dict:
        return {"code": self.code, "category": self.category, "payload": dict(self.payload)}


@dataclass(frozen=True)
class Recommendation:
    code: str
    category: str
    item: str


@dataclass(frozen=True)
class DeliveryReceipt:
    code: str
    category: str
    beneficiary: str
    ledger_seq: int


@dataclass(frozen=True)
class ErasureReport:
    user_key: str
    code: str
    ledger_seq: int


def _fold(text: str) -> str:
    """Lowercase without changing the string's length.

    str.lower() expands a few unicode characters (e.g. 'İ'); scrubbing
    scans the folded text by index, so every position must line up with
    the original.
    """
    lowered = text.lower()
    if len(lowered) == len(text):
        return lowered
    return "".join(lc if len(lc := c.lower()) == 1 else c for c in text)


def user_key_for(username: str, user_id: str) -> str:
    """Stable vault key for one account: handle plus numeric id."""
    return f"{username}:{user_id}"


class Vault:
    """Append-only pseudonym store with an in-memory index.

    The file holds bind and erase operations, one JSON object per line;
    replaying it rebuilds the live mapping, so erased bindings stay
    unreadable forever while the history remains auditable. Codes come
    from a cryptographically strong source unless a seeded generator is
    injected for reproducible runs.
    """

    def __init__(self, path, rng=None, clock=None):
        self.path = str(path)
        self._rng = rng
        self._clock = clock or SystemClock()
        self._by_key: dict[str, str] = {}
        self._by_code: dict[str, str] = {}
        self._lock = threading.Lock()
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
                    op = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise VaultError(f"{self.path}:{line_num}: corrupt vault line: {exc}")
                if op.get("op") == "bind":
                    self._by_key[op["user_key"]] = op["code"]
                    self._by_code[op["code"]] = op["user_key"]
                elif op.get("op") == "erase":
                    user_key = self._by_code.pop(op["code"], None)
                    if user_key is None:
                        raise VaultError(f"{self.path}:{line_num}: erase of unknown code")
                    del self._by_key[user_key]
                else:
                    raise VaultError(f"{self.path}:{line_num}: unknown vault op {op.get('op')!r}")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Vault":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._by_key)

    def _mint_code(self, avoid: tuple[str, ...]) -> str:
        for _ in range(256):
            if self._rng is not None:
                code = f"{self._rng.getrandbits(128):0{CODE_HEX_LENGTH}x}"
            else:
                code = secrets.token_hex(CODE_HEX_LENGTH // 2)
            if code in self._by_code:
                continue
            if any(ident in code for ident in avoid):
                continue
            return code
        raise VaultError("could not mint a collision-free code")

    def _append(self, op: dict) -> None:
        self._fh.write(json.dumps(op, ensure_ascii=False) + "\n")
        self._fh.flush()

    def register(self, user_key: str, identifiers=()) -> str:
        """Bind user_key to a fresh code, or return the existing one.

        identifiers lists strings (handle, display name, id) the minted
        code must not contain; hex codes collide with them essentially
        never, but the check makes the guarantee unconditional.
        """
        if not user_key:
            raise ValueError("user_key must be non-empty")
        with self._lock:
            existing = self._by_key.get(user_key)
            if existing is not None:
                return existing
            avoid = tuple(
                i.lower() for i in identifiers if len(i) >= SCRUB_MIN_LENGTH
            )
            code = self._mint_code(avoid)
            created_at = self._clock.now_ms()
            self._append(
                {"op": "bind", "user_key": user_key, "code": code, "created_at": created_at}
            )
            self._by_key[user_key] = code
            self._by_code[code] = user_key
            return code

    def erase(self, user_key: str) -> str:
        """Tombstone the binding; returns the code that was bound."""
        with self._lock:
            code = self._by_key.get(user_key)
            if code is None:
                raise UnknownUserError(user_key)
            self._append({"op": "erase", "code": code, "at": self._clock.now_ms()})
            del self._by_key[user_key]
            del self._by_code[code]
            return code

    def user_for(self, code: str) -> str:
        user_key = self._by_code.get(code)
        if user_key is None:
            raise UnknownCodeError(code)
        return user_key

    def code_for(self, user_key: str) -> str | None:
        return self._by_key.get(user_key)


class CategoryRules:
    """Keyword rules assigning text to recommendation-service categories.

    File format: one "category: keyword|keyword|..." line per category.
    Matching is case-insensitive on word boundaries; text matching no
    rule falls back to demographic_social.
    """

    def __init__(self, rules: dict):
        unknown = set(rules) - set(CATEGORIES)
        if unknown:
            raise ValueError(f"unknown categories in rules: {sorted(unknown)}")
        self.rules = {cat: tuple(words) for cat, words in rules.items()}
        self._patterns = {
            cat: re.compile(
                r"(?<!\w)(" + "|".join(re.escape(w) for w in words) + r")(?!\w)",
                re.IGNORECASE,
            )
            for cat, words in self.rules.items()
            if words
        }

    @classmethod
    def load(cls, path) -> "CategoryRules":
        rules: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line_num, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                category, sep, words = line.partition(":")
                category = category.strip()
                if not sep or not category:
                    raise ValueError(f"{path}:{line_num}: expected 'category: word|word|...'")
                keywords = tuple(w.strip() for w in words.split("|") if w.strip())
                if category in rules:
                    raise ValueError(f"{path}:{line_num}: duplicate category {category}")
                rules[category] = keywords
        return cls(rules)

    @classmethod
    def default(cls) -> "CategoryRules":
        ref = resources.files("tweetpipe.data").joinpath("category_rules.txt")
        with resources.as_file(ref) as path:
            return cls.load(path)

    def categories_for(self, text: str) -> list[str]:
        """Matched categories in canonical order; never empty."""
        matched = [
            cat for cat in CATEGORIES
            if cat in self._patterns and self._patterns[cat].search(text)
        ]
        return matched or [DEFAULT_CATEGORY]


class DirectorySink:
    """Delivers bundles by appending JSON lines under a directory.

    bundles.jsonl is opened on the first delivery and stays open until
    close(); each bundle is flushed before deliver returns, so the line
    reaches the OS before the gateway writes its ledger entry.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        self._fh = None

    def deliver(self, bundle: CategoryBundle) -> None:
        if self._fh is None:
            os.makedirs(self.directory, exist_ok=True)
            path = os.path.join(self.directory, "bundles.jsonl")
            self._fh = open(path, "a", encoding="utf-8", newline="\n")
        self._fh.write(json.dumps(bundle.to_dict(), ensure_ascii=False) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class HttpSink:
    """Delivers bundles by POSTing JSON to a service URL."""

    def __init__(self, url: str, timeout_s: float = 10.0):
        self.url = url
        self._timeout_s = timeout_s

    def deliver(self, bundle: CategoryBundle) -> None:
        resp = requests.post(self.url, json=bundle.to_dict(), timeout=self._timeout_s)
        resp.raise_for_status()

    def close(self) -> None:
        """Nothing to release; each delivery is its own request."""


class ServiceRegistry:
    """Which sink receives each category, and under what beneficiary name."""

    def __init__(self):
        self._sinks: dict[str, object] = {}
        self._beneficiaries: dict[str, str] = {}

    def add(self, category: str, sink, beneficiary: str) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown category: {category}")
        self._sinks[category] = sink
        self._beneficiaries[category] = beneficiary

    def sink_for(self, category: str):
        try:
            return self._sinks[category]
        except KeyError:
            raise NoServiceForCategoryError(category) from None

    def beneficiary_for(self, category: str) -> str:
        try:
            return self._beneficiaries[category]
        except KeyError:
            raise NoServiceForCategoryError(category) from None

    def categories(self) -> list[str]:
        return [c for c in CATEGORIES if c in self._sinks]

    def close(self) -> None:
        for sink in self._sinks.values():
            sink.close()

    def __enter__(self) -> "ServiceRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def load(cls, path, base_dir: str = ".") -> "ServiceRegistry":
        """Parse "category: sink-directory-or-URL" lines.

        http(s) targets become HTTP sinks; anything else is a directory,
        resolved against base_dir when relative. The target string as
        written becomes the beneficiary name in ledger entries.
        """
        registry = cls()
        with open(path, encoding="utf-8") as fh:
            for line_num, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                category, sep, target = line.partition(":")
                # A colon also appears in URLs, so split only on the first.
                category = category.strip()
                target = target.strip()
                if not sep or not category or not target:
                    raise ValueError(f"{path}:{line_num}: expected 'category: sink'")
                if target.startswith(("http://", "https://")):
                    sink: object = HttpSink(target)
                else:
                    directory = target if os.path.isabs(target) else os.path.join(base_dir, target)
                    sink = DirectorySink(directory)
                registry.add(category, sink, target)
        return registry


class PrivacyGateway:
    """Coordinates vault, category rules, sinks and ledger.

    Also holds the scrub list: every identifier of every registered user
    (4 characters and longer). Outgoing text is cleaned against the whole
    list, so one user's tweet cannot leak another user's handle either.
    """

    def __init__(self, vault: Vault, ledger: ComplianceLedger, rules: CategoryRules | None = None,
                 purpose: str = "recommendation", retention_days: int = 30):
        self.vault = vault
        self.ledger = ledger
        self.rules = rules or CategoryRules.default()
        self.purpose = purpose
        self.retention_days = retention_days
        # Scrub terms keyed by their folded first SCRUB_MIN_LENGTH
        # characters; each entry holds that prefix's terms and their
        # lengths, longest first. A registration touches one entry, and a
        # scrub is one left-to-right pass with one slice and one dict
        # lookup per position. (A single regex alternation would need
        # recompiling on every registration — quadratic over a large user
        # base.)
        self._scrub_index: dict[str, tuple[set[str], list[int]]] = {}
        # (user_key, identifiers) pairs whose terms are already indexed.
        self._indexed: set[tuple[str, tuple]] = set()

    def _add_scrub_terms(self, identifiers) -> None:
        for ident in identifiers:
            if len(ident) < SCRUB_MIN_LENGTH:
                continue
            term = _fold(ident)
            terms, lengths = self._scrub_index.setdefault(term[:SCRUB_MIN_LENGTH], (set(), []))
            if term not in terms:
                terms.add(term)
                if len(term) not in lengths:
                    lengths.append(len(term))
                    lengths.sort(reverse=True)

    def _scrub(self, text: str) -> str:
        """Replace every registered identifier occurrence with ***.

        Case-insensitive; at each position the longest term wins (so
        "anna_banana" is consumed whole rather than leaving "_banana"
        behind after an "anna" hit), and scanning resumes after the
        replacement.
        """
        index = self._scrub_index
        if not index:
            return text
        lowered = _fold(text)
        out: list[str] = []
        kept = 0  # text[kept:i] has been scanned and holds no term
        i = 0
        last = len(lowered) - SCRUB_MIN_LENGTH
        while i <= last:
            entry = index.get(lowered[i:i + SCRUB_MIN_LENGTH])
            if entry is not None:
                terms, lengths = entry
                # Near the end a slice comes out shorter than asked; it
                # then matches only a term of exactly that shorter length.
                for length in lengths:
                    if lowered[i:i + length] in terms:
                        out.append(text[kept:i])
                        out.append(SCRUB_REPLACEMENT)
                        i = kept = i + length
                        break
                else:
                    i += 1
            else:
                i += 1
        out.append(text[kept:])
        return "".join(out)

    def register_user(self, user_key: str, identifiers=()) -> str:
        """Vault registration plus scrub-list bookkeeping.

        The vault is asked every time, since only it knows whether an
        erasure means a fresh code; the identifiers are indexed once.
        """
        code = self.vault.register(user_key, identifiers=identifiers)
        indexed = (user_key, tuple(identifiers))
        if indexed not in self._indexed:
            self._indexed.add(indexed)
            self._add_scrub_terms(identifiers)
        return code

    def _register_author(self, t: ProcessedTweet) -> str:
        return self.register_user(user_key_for(t.username, t.id),
                                  identifiers=(t.username, t.name, t.id))

    def pseudonymize(self, t: ProcessedTweet) -> list[CategoryBundle]:
        """One bundle per matched category, identity replaced by a code.

        The payload carries only the INVULNERABLE_FIELDS, in that order;
        the text is scrubbed of all registered identifiers. Categories are
        decided on the original text, before scrubbing, so classification
        never depends on who is registered.
        """
        code = self._register_author(t)
        payload = {name: getattr(t, name) for name in INVULNERABLE_FIELDS}
        payload["text"] = self._scrub(t.text)
        return [
            CategoryBundle(code=code, category=category, payload=payload)
            for category in self.rules.categories_for(t.text)
        ]

    def dispatch_feed(self, records, registry: ServiceRegistry) -> int:
        """Pseudonymize and dispatch every record; returns the bundle count.

        Every author is registered before the first bundle leaves, so a
        mention of a user whose own tweet comes later in the feed is
        scrubbed too.
        """
        for t in records:
            self._register_author(t)
        dispatched = 0
        for t in records:
            for bundle in self.pseudonymize(t):
                self.dispatch(bundle, registry)
                dispatched += 1
        return dispatched

    def dispatch(self, bundle: CategoryBundle, registry: ServiceRegistry) -> DeliveryReceipt:
        """Deliver to the category's sink and log exactly one disclosure.

        The ledger entry is written only after the sink accepted the
        bundle, so the log never claims a delivery that did not happen.
        """
        sink = registry.sink_for(bundle.category)
        beneficiary = registry.beneficiary_for(bundle.category)
        sink.deliver(bundle)
        seq = self.ledger.record(
            EVENT_DISCLOSURE,
            subject_code=bundle.code,
            beneficiary=beneficiary,
            purpose=self.purpose,
            retention_days=self.retention_days,
        )
        return DeliveryReceipt(
            code=bundle.code, category=bundle.category,
            beneficiary=beneficiary, ledger_seq=seq,
        )

    def remap(self, rec: Recommendation) -> tuple[str, str]:
        """Resolve a recommendation back to (user_key, item).

        Raises UnknownCodeError for stale or erased codes; such
        recommendations are dropped by the caller.
        """
        return self.vault.user_for(rec.code), rec.item

    def erase_user(self, user_key: str) -> ErasureReport:
        """Forget the user: tombstone the vault binding, log the erasure."""
        code = self.vault.erase(user_key)
        seq = self.ledger.record(EVENT_ERASURE, subject_code=code)
        log.info("erased binding for code %s", code)
        return ErasureReport(user_key=user_key, code=code, ledger_seq=seq)
