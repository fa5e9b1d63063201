"""Pseudonymizing gateway between processed tweets and outside services.

The gateway never lets an identity cross the boundary: each user is
replaced by a stable opaque code from a vault, payloads carry only the
record's non-identifying fields (text, lang, country and creation_date),
text is scrubbed of every registered identifier, and every bundle's
disclosure entry is committed to the compliance ledger before the bundle
leaves. Returned recommendations are re-mapped to the real user inside
the boundary via the same vault.
"""

from __future__ import annotations

import logging
import os
import random
import re
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring
from typing import NamedTuple

from .analyzer import ParseError, read_entries
from .clock import SystemClock
from .ledger import (
    EVENT_DELIVERY_FAILED,
    EVENT_DISCLOSURE,
    EVENT_ERASURE,
    ComplianceLedger,
    LineLog,
    valid_retention_days,
)
from .processor import ProcessedTweet

log = logging.getLogger(__name__)

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


class UnknownCodeError(KeyError):
    """Code not bound in the vault (never issued, or erased)."""


class UnknownUserError(KeyError):
    """No binding for this user key."""


class NoServiceForCategoryError(KeyError):
    """The registry has no sink for the bundle's category."""


class VaultError(Exception):
    """Vault storage corrupt or code minting failed."""


class CategoryBundle(NamedTuple):
    """One category's copy of a pseudonymized record: the author's code
    and the JSON object of the record's payload fields (see
    PrivacyGateway.pseudonymize), which the bundles of one record share."""

    code: str
    category: str
    payload_json: str

    def line(self) -> str:
        """The bundle as one JSON object, its payload spliced in: the
        bytes every sink receives, UTF-8 encoded."""
        return (f'{{"code": {encode_basestring(self.code)}, '
                f'"category": {encode_basestring(self.category)}, "payload": {self.payload_json}}}')


@dataclass(frozen=True)
class Recommendation:
    code: str
    category: str
    item: str


@dataclass(frozen=True)
class ErasureReport:
    user_key: str
    code: str


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
    vault holds. One thread owns a vault, and one process writes it: its
    open, at its first write, takes LineLog's one-writer lock.
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
        # The line encode_json writes for the bind's dict; a minted code is
        # hex, which JSON writes between quotes as it is.
        self._write(f'{{"op": "bind", "user_key": {encode_basestring(user_key)}, "code": "{code}", '
                    f'"created_at": {self._clock.now_ms()}}}\n'.encode())
        self._by_key[user_key] = code
        self._by_code[code] = user_key
        return code

    def erase(self, user_key: str) -> str:
        """Tombstone the binding durably; returns the code that was bound."""
        code = self._by_key.get(user_key)
        if code is None:
            raise UnknownUserError(user_key)
        self.append(f'{{"op": "erase", "code": {encode_basestring(code)}, '
                    f'"at": {self._clock.now_ms()}}}\n'.encode())
        self.sync()
        del self._by_key[user_key]
        del self._by_code[code]
        return code

    def user_for(self, code: str) -> str:
        user_key = self._by_code.get(code)
        if user_key is None:
            raise UnknownCodeError(code)
        return user_key


_ASCII_WORD = re.compile(r"[A-Za-z0-9_]+")
# The words of a lower-cased ASCII text: its runs of \w characters.
_LOWER_WORDS = re.compile(r"[a-z0-9_]+").findall


class CategoryRules:
    """Keyword rules assigning text to recommendation-service categories.

    File format: one "category: keyword|keyword|..." line per category.
    Matching is case-insensitive on word boundaries; text matching no
    rule falls back to demographic_social.

    When every keyword is one ASCII word ([A-Za-z0-9_]+), as the bundled
    rules are, an ASCII text is classified by its set of lower-cased
    words: a category matches when its keyword set shares one. On ASCII
    text that is exactly what the per-category patterns match. Any other
    text or rule set goes through the patterns, whose case-insensitive
    matching also covers letters such as 'ſ' (which matches 's') and the
    Kelvin sign (which matches 'k').
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
        self._word_sets: list[tuple[str, frozenset[str]]] | None = None
        if all(_ASCII_WORD.fullmatch(w) for words in self.rules.values() for w in words):
            self._word_sets = [(cat, frozenset(w.lower() for w in self.rules[cat]))
                               for cat in CATEGORIES if cat in self._patterns]

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
        if self._word_sets is not None and text.isascii():
            words = _LOWER_WORDS(text.lower())
            matched = [cat for cat, keywords in self._word_sets if not keywords.isdisjoint(words)]
        else:
            matched = [cat for cat in CATEGORIES
                       if cat in self._patterns and self._patterns[cat].search(text)]
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
    """Delivers bundles by POSTing each one's line to a service URL."""

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
                data=bundle.line().encode(),
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
        resolved against base_dir when relative. Categories whose targets
        resolve to one directory share one sink, the one writer of its
        file. The target string as written becomes the beneficiary name in
        ledger entries.
        """
        form = "category: sink"
        registry = cls()
        sinks: dict[str, DirectorySink] = {}  # by the directory's real path
        for line_num, category, target in read_entries(path, form, CATEGORIES):
            if not target:
                raise ParseError(path, line_num, f"expected '{form}'")
            if target.startswith(("http://", "https://")):
                sink: object = HttpSink(target)
            else:
                directory = os.path.join(base_dir, target)
                key = os.path.realpath(directory)
                if key not in sinks:
                    sinks[key] = DirectorySink(directory)
                sink = sinks[key]
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
        if not valid_retention_days(retention_days):
            raise ValueError("retention_days must be at least 1")
        self.vault = vault
        self.ledger = ledger
        self.rules = rules or CategoryRules.default()
        self.retention_days = retention_days
        # Scrub terms keyed by the tuple of their folded first
        # SCRUB_MIN_LENGTH characters; each entry holds that key's terms and
        # their lengths, longest first. A new term touches one entry. A
        # scrub finds the keys among the text's SCRUB_MIN_LENGTH-grams in
        # one C-level set intersection, whose cost grows with the text, not
        # with the users enrolled, and tries terms only where a found key
        # starts. (A regex over the keys would need recompiling on every
        # registration. On a synthetic index of 20k distinct keys and the
        # seed-7 feed's texts, Python 3.11 on a 2-core VM, a prefix-trie
        # regex took 73 ms to compile and 15 µs per text just to search, a
        # flat alternation 3 ms per text.)
        self._scrub_index: dict[tuple[str, ...], tuple[set[str], list[int]]] = {}

    def _scrub(self, text: str) -> str:
        """Replace every registered identifier occurrence with ***.

        Case-insensitive; at each position the longest term wins (so
        "anna_banana" is consumed whole rather than leaving "_banana"
        behind after an "anna" hit), and scanning resumes after the
        replacement.
        """
        index = self._scrub_index
        lowered = _fold(text)
        # The keys among the text's runs of SCRUB_MIN_LENGTH (4) characters.
        found = index.keys() & zip(lowered, lowered[1:], lowered[2:], lowered[3:])
        if not found:
            return text
        # Every start of a found key, overlaps included, with its entry.
        # Two keys never start at one position, so the sort compares
        # positions only.
        starts = []
        for key in found:
            needle, entry = "".join(key), index[key]
            i = lowered.find(needle)
            while i >= 0:
                starts.append((i, entry))
                i = lowered.find(needle, i + 1)
        starts.sort()
        out: list[str] = []
        kept = 0  # text[:kept] is done; a start before it was replaced
        for i, (terms, lengths) in starts:
            if i < kept:
                continue
            # Near the end a slice comes out shorter than asked; it then
            # matches only a term of exactly that shorter length.
            for length in lengths:
                if lowered[i:i + length] in terms:
                    out.append(text[kept:i])
                    out.append(SCRUB_REPLACEMENT)
                    kept = i + length
                    break
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
            key = tuple(term[:SCRUB_MIN_LENGTH])
            entry = self._scrub_index.get(key)
            if entry is None:
                entry = self._scrub_index[key] = (set(), [])
            known, lengths = entry
            if term not in known:
                known.add(term)
                if len(term) not in lengths:
                    lengths.append(len(term))
                    lengths.sort(reverse=True)
        return code

    def pseudonymize(self, t: ProcessedTweet, code: str) -> list[CategoryBundle]:
        """One bundle per matched category, identity replaced by code, the
        code register_user returned for t's author.

        The payload is the allow-list: exactly text, lang, country and
        creation_date leave the gateway, as keys in that order, and no
        identity field does. The text is scrubbed of all registered
        identifiers; the others go as they are. Categories are decided on
        the original text, before scrubbing, so classification never
        depends on who is registered.
        """
        country = "null" if t.country is None else encode_basestring(t.country)
        # What encode_json writes for the payload's dict.
        payload_json = (f'{{"text": {encode_basestring(self._scrub(t.text))}, '
                        f'"lang": {encode_basestring(t.lang)}, "country": {country}, '
                        f'"creation_date": {encode_basestring(t.creation_date)}}}')
        return [CategoryBundle(code, category, payload_json)
                for category in self.rules.categories_for(t.text)]

    def dispatch_feed(self, records, registry: ServiceRegistry) -> int:
        """Open the ledger and the vault, enrol every author, fsync the
        vault, then pseudonymize and dispatch the records in groups of
        DISPATCH_GROUP; returns the bundle count.

        When there are records, the ledger and the vault are opened
        first, whichever file exists first: a file another process holds
        always exists, so it refuses the run before either file is made
        and before anyone is bound. The vault is opened even when every
        author is enrolled already, so a vault that another process holds,
        or changed since it was loaded, refuses a run whose disclosures
        would cite the codes loaded from it. Every author is enrolled before the
        first bundle leaves, so a mention of a user whose own tweet comes
        later in the feed is scrubbed too, and the new bindings are on
        disk before any disclosure cites them.
        """
        if records:
            for line_log in sorted((self.ledger, self.vault),
                                   key=lambda line_log: not os.path.exists(line_log.path)):
                line_log.open()
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

        Each category among the bundles is routed once, first, so a
        category without a service fails before anything is logged. The
        disclosures are committed in one ledger append (and fsync) before
        any sink sees a bundle, so a crash can leave a disclosure without
        its delivery, never a delivery the ledger does not know. Each sink
        then gets its bundles, in order, in one deliver call. If a sink raises, every bundle it
        did not confirm, and every bundle of a sink not yet reached, gets
        a delivery_failed entry citing its disclosure; those are committed
        and the error propagates. The disclosures stay: a disclosure log
        may over-report, never under-report. The codes must already be
        synced in the vault, as dispatch_feed does before its first group.
        """
        categories = [b.category for b in bundles]
        routes = {category: registry.route(category) for category in dict.fromkeys(categories)}
        days = self.retention_days
        seqs = self.ledger.record_all(
            {"event": EVENT_DISCLOSURE, "subject_code": b.code,
             "beneficiary": routes[b.category][1], "purpose": PURPOSE, "retention_days": days}
            for b in bundles)
        by_sink: dict[object, list[int]] = {}
        for i, category in enumerate(categories):
            by_sink.setdefault(routes[category][0], []).append(i)
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
        self.ledger.record(EVENT_ERASURE, subject_code=code)
        log.info("erased binding for code %s", code)
        return ErasureReport(user_key=user_key, code=code)
