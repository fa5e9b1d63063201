"""Pseudonymizing gateway between processed tweets and outside services.

The gateway never lets an identity cross the boundary: each user is
replaced by a stable opaque code from a vault, payloads carry only
fields classified as invulnerable, text is scrubbed of every registered
identifier, and every bundle's disclosure entry is committed to the
compliance ledger before the bundle leaves. Returned recommendations are
re-mapped to the real user inside the boundary via the same vault.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
from dataclasses import dataclass, field
from importlib import resources

from .analyzer import ParseError, read_entries
from .clock import SystemClock
from .ledger import (
    EVENT_DELIVERY_FAILED,
    EVENT_DISCLOSURE,
    EVENT_ERASURE,
    ComplianceLedger,
    LineLog,
    encode_json,
)
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

CODE_BITS = 128
CODE_HEX_LENGTH = CODE_BITS // 4
SCRUB_MIN_LENGTH = 4
SCRUB_REPLACEMENT = "***"

PURPOSE = "recommendation"  # of every disclosure the gateway logs
SINK_TIMEOUT_S = 10.0
# Records per dispatch group in dispatch_feed: each group's disclosures
# are one ledger append and fsync, and each sink gets one delivery.
DISPATCH_GROUP = 32


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
    # encode_json(payload), encoded here unless given: the bundles of one
    # record share the payload and its encoding. A cache, not part of the
    # bundle's value.
    payload_json: str = field(default="", compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.payload_json:
            object.__setattr__(self, "payload_json", encode_json(self.payload))

    def to_dict(self) -> dict:
        # Not copied: the bundles of one record share the payload, and
        # every caller only serializes the result.
        return {"code": self.code, "category": self.category, "payload": self.payload}

    def line(self) -> str:
        """encode_json(self.to_dict()), with the payload's encoding spliced in."""
        return (f'{{"code": {encode_json(self.code)}, "category": {encode_json(self.category)}, '
                f'"payload": {self.payload_json}}}')


@dataclass(frozen=True)
class Recommendation:
    code: str
    category: str
    item: str


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


class Vault(LineLog):
    """Append-only pseudonym store with an in-memory index.

    The file is a LineLog of JSON bind and erase operations; replaying it
    rebuilds the live mapping, so erased bindings stay unreadable forever
    while the history remains auditable. erase fsyncs its tombstone before
    it returns; new bindings wait in the file's buffer for sync(), which
    flushes and fsyncs them, and which the gateway calls before the first
    disclosure cites them. Codes come from a
    cryptographically strong source unless a seeded generator is injected
    for reproducible runs; an injected generator first skips one draw per
    bind in the file, so a run over a vault that a run with the same seed
    filled goes on with the stream rather than restart it on codes the
    vault holds. One thread owns a vault; it takes no lock.
    """

    error = VaultError

    def __init__(self, path, rng=None, clock=None):
        super().__init__(path)
        self._rng = random.SystemRandom() if rng is None else rng
        self._clock = clock or SystemClock()
        self._by_key: dict[str, str] = {}
        self._by_code: dict[str, str] = {}
        binds = 0
        for line_num, op in self._replay():
            kind, code, user_key = op.get("op"), op.get("code"), op.get("user_key")
            if kind == "bind" and isinstance(code, str) and isinstance(user_key, str):
                self._by_key[user_key] = code
                self._by_code[code] = user_key
                binds += 1
            elif kind == "erase" and isinstance(code, str) and code in self._by_code:
                del self._by_key[self._by_code.pop(code)]
            else:
                raise self._error_at(line_num, f"vault op {kind!r} is neither a bind of a code "
                                     "to a user_key nor the erase of a bound code")
        if rng is not None:
            for _ in range(binds):  # one draw each, as _mint_code draws
                rng.getrandbits(CODE_BITS)

    def __len__(self) -> int:
        return len(self._by_key)

    def _mint_code(self, avoid: tuple[str, ...]) -> str:
        for _ in range(256):
            code = f"{self._rng.getrandbits(CODE_BITS):0{CODE_HEX_LENGTH}x}"
            if code in self._by_code:
                continue
            if any(ident in code for ident in avoid):
                continue
            return code
        raise VaultError("could not mint a collision-free code")

    def register(self, user_key: str, avoid: tuple[str, ...] = ()) -> str:
        """Bind user_key to a fresh code, or return the existing one.

        avoid lists strings the minted code must not contain: the user's
        folded identifiers, as PrivacyGateway.register_user passes them.
        Hex codes contain them essentially never, but the check makes the
        guarantee unconditional.
        """
        if not user_key:
            raise ValueError("user_key must be non-empty")
        existing = self._by_key.get(user_key)
        if existing is not None:
            return existing
        code = self._mint_code(avoid)
        created_at = self._clock.now_ms()
        self._write((encode_json({"op": "bind", "user_key": user_key, "code": code,
                                  "created_at": created_at}) + "\n").encode())
        self._by_key[user_key] = code
        self._by_code[code] = user_key
        return code

    def erase(self, user_key: str) -> str:
        """Tombstone the binding durably; returns the code that was bound."""
        code = self._by_key.get(user_key)
        if code is None:
            raise UnknownUserError(user_key)
        self.append((encode_json({"op": "erase", "code": code, "at": self._clock.now_ms()})
                     + "\n").encode())
        self.sync()
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
        """Parse the rules file; its lines follow read_entries, and an
        empty keyword list is allowed."""
        return cls({
            category: tuple(w.strip() for w in words.split("|") if w.strip())
            for _line_num, category, words in read_entries(
                path, "category: word|word|...", CATEGORIES)
        })

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


class DirectorySink(LineLog):
    """Delivers bundles by appending JSON lines under a directory.

    bundles.jsonl is opened on the first delivery and stays open until
    close(). A delivery is one write and one flush of all its bundles'
    lines, made after the gateway committed their ledger entries; it
    confirms all of them or, if it raises, none. A torn final line left
    by a crash is cut on the first delivery.
    """

    def __init__(self, directory):
        super().__init__(os.path.join(directory, "bundles.jsonl"))

    def deliver(self, bundles: list[CategoryBundle]) -> None:
        self.append("".join([b.line() + "\n" for b in bundles]).encode())


class HttpSink:
    """Delivers bundles by POSTing JSON to a service URL."""

    def __init__(self, url: str):
        self.url = url

    def deliver(self, bundles: list[CategoryBundle]) -> None:
        """POST each bundle in order, one request each. A failed request
        (a non-2xx response raises urllib's HTTPError) propagates with a
        `delivered` attribute: the number of bundles posted before it."""
        from urllib.request import Request, urlopen  # only HTTP sinks load it

        for delivered, bundle in enumerate(bundles):
            request = Request(
                self.url,
                data=json.dumps(bundle.to_dict(), allow_nan=False).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urlopen(request, timeout=SINK_TIMEOUT_S):
                    pass
            except Exception as exc:
                exc.delivered = delivered
                raise

    def close(self) -> None:
        """Nothing to release; each delivery opens and closes its own
        connection."""


class ServiceRegistry:
    """Which sink receives each category, and under what beneficiary name."""

    def __init__(self):
        self._routes: dict[str, tuple[object, str]] = {}

    def add(self, category: str, sink, beneficiary: str) -> None:
        if category not in CATEGORIES:
            raise ValueError(f"unknown category: {category}")
        self._routes[category] = (sink, beneficiary)

    def route(self, category: str) -> tuple[object, str]:
        """(sink, beneficiary) for the category."""
        try:
            return self._routes[category]
        except KeyError:
            raise NoServiceForCategoryError(category) from None

    def close(self) -> None:
        for sink, _beneficiary in self._routes.values():
            sink.close()

    def __enter__(self) -> "ServiceRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def load(cls, path, base_dir: str = ".") -> "ServiceRegistry":
        """Parse "category: sink-directory-or-URL" lines (see read_entries).

        http(s) targets become HTTP sinks; anything else is a directory,
        resolved against base_dir when relative. The target string as
        written becomes the beneficiary name in ledger entries.
        """
        form = "category: sink"
        registry = cls()
        for line_num, category, target in read_entries(path, form, CATEGORIES):
            if not target:
                raise ParseError(path, line_num, f"expected '{form}'")
            if target.startswith(("http://", "https://")):
                sink: object = HttpSink(target)
            else:
                sink = DirectorySink(os.path.join(base_dir, target))
            registry.add(category, sink, target)
        return registry


class PrivacyGateway:
    """Coordinates vault, category rules, sinks and ledger.

    Also holds the scrub list: every identifier of every registered user
    (4 characters and longer). Outgoing text is cleaned against the whole
    list, so one user's tweet cannot leak another user's handle either.
    """

    def __init__(self, vault: Vault, ledger: ComplianceLedger, rules: CategoryRules | None = None,
                 retention_days: int = 30):
        # Checked here too, so no record is enrolled or delivered before
        # the ledger would refuse to record the disclosure.
        if retention_days < 1:
            raise ValueError("retention_days must be at least 1")
        self.vault = vault
        self.ledger = ledger
        self.rules = rules or CategoryRules.default()
        self.retention_days = retention_days
        # Scrub terms keyed by their folded first SCRUB_MIN_LENGTH
        # characters; each entry holds that prefix's terms and their
        # lengths, longest first. A new term touches one entry, and a
        # scrub is one left-to-right pass with one slice and one dict
        # lookup per position. (A single regex alternation would need
        # recompiling on every registration — quadratic over a large user
        # base.)
        self._scrub_index: dict[str, tuple[set[str], list[int]]] = {}

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
        """Enrol one user: bind a code and add the identifiers to the scrub list.

        Each identifier of SCRUB_MIN_LENGTH characters or more is folded
        once; the folded terms are both what the minted code must not
        contain and what the scrub replaces. The vault is asked every
        time, since only it knows whether an erasure means a fresh code;
        a term already on the scrub list is left as it is.
        """
        terms = tuple(_fold(i) for i in identifiers if len(i) >= SCRUB_MIN_LENGTH)
        code = self.vault.register(user_key, avoid=terms)
        for term in terms:
            known, lengths = self._scrub_index.setdefault(term[:SCRUB_MIN_LENGTH], (set(), []))
            if term not in known:
                known.add(term)
                if len(term) not in lengths:
                    lengths.append(len(term))
                    lengths.sort(reverse=True)
        return code

    def pseudonymize(self, t: ProcessedTweet, code: str) -> list[CategoryBundle]:
        """One bundle per matched category, identity replaced by code, the
        code register_user returned for t's author.

        The payload carries only the INVULNERABLE_FIELDS, in that order;
        the text is scrubbed of all registered identifiers. Categories are
        decided on the original text, before scrubbing, so classification
        never depends on who is registered.
        """
        payload = {name: getattr(t, name) for name in INVULNERABLE_FIELDS}
        payload["text"] = self._scrub(t.text)
        payload_json = encode_json(payload)
        return [
            CategoryBundle(code=code, category=category, payload=payload, payload_json=payload_json)
            for category in self.rules.categories_for(t.text)
        ]

    def dispatch_feed(self, records, registry: ServiceRegistry) -> int:
        """Enrol every author, fsync the vault, then pseudonymize and
        dispatch the records in groups of DISPATCH_GROUP; returns the
        bundle count.

        Every author is enrolled before the first bundle leaves, so a
        mention of a user whose own tweet comes later in the feed is
        scrubbed too, and the new bindings are on disk before any
        disclosure cites them.
        """
        codes = [self.register_user(user_key_for(t.username, t.id), (t.username, t.name, t.id))
                 for t in records]
        self.vault.sync()
        dispatched = 0
        for start in range(0, len(records), DISPATCH_GROUP):
            group = zip(records[start:start + DISPATCH_GROUP], codes[start:start + DISPATCH_GROUP])
            dispatched += len(self.dispatch(
                [bundle for t, code in group for bundle in self.pseudonymize(t, code)], registry))
        return dispatched

    def dispatch(self, bundles: list[CategoryBundle], registry: ServiceRegistry) -> list[int]:
        """Log one disclosure per bundle, then deliver them; returns the
        entries' ledger sequence numbers, in bundle order.

        Every bundle is routed first, so a category without a service
        fails before anything is logged. The disclosures are committed in
        one ledger append (and fsync) before any sink sees a bundle, so a
        crash can leave a disclosure without its delivery, never a
        delivery the ledger does not know. Each sink then gets its bundles,
        in order, in one deliver call. If a sink raises, every bundle it
        did not confirm, and every bundle of a sink not yet reached, gets
        a delivery_failed entry citing its disclosure; those are committed
        and the error propagates. The disclosures stay: a disclosure log
        may over-report, never under-report. The codes must already be
        synced in the vault, as dispatch_feed does before its first group.
        """
        routes = [registry.route(b.category) for b in bundles]
        seqs = self.ledger.record_all(
            {"event": EVENT_DISCLOSURE, "subject_code": b.code, "beneficiary": beneficiary,
             "purpose": PURPOSE, "retention_days": self.retention_days}
            for b, (_sink, beneficiary) in zip(bundles, routes))
        by_sink: dict[object, list[int]] = {}
        for i, (sink, _beneficiary) in enumerate(routes):
            by_sink.setdefault(sink, []).append(i)
        unconfirmed = set(range(len(bundles)))
        for sink, indices in by_sink.items():
            try:
                sink.deliver([bundles[i] for i in indices])
            except Exception as exc:
                unconfirmed.difference_update(indices[:getattr(exc, "delivered", 0)])
                self.ledger.record_all(
                    {"event": EVENT_DELIVERY_FAILED, "subject_code": bundles[i].code,
                     "disclosure_seq": seqs[i]}
                    for i in sorted(unconfirmed))
                raise
            unconfirmed.difference_update(indices)
        return seqs

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
