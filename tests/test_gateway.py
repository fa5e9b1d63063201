"""Pseudonymization, scrubbing, routing, and erasure tests."""

import dataclasses
import json
import logging
import os
import random
import re
import stat
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError

import pytest
from hypothesis import given, settings, strategies as st

import tweetpipe.gateway
import tweetpipe.ledger
from tweetpipe.clock import VirtualClock
from tweetpipe.gateway import (
    CATEGORIES,
    CODE_HEX_LENGTH,
    CategoryBundle,
    CategoryRules,
    DEFAULT_CATEGORY,
    DISPATCH_GROUP,
    PURPOSE,
    SCRUB_MIN_LENGTH,
    SCRUB_REPLACEMENT,
    DirectorySink,
    HttpSink,
    NoServiceForCategoryError,
    PrivacyGateway,
    Recommendation,
    ServiceRegistry,
    UnknownCodeError,
    UnknownUserError,
    Vault,
    VaultError,
    _fold,
    user_key_for,
)
from tweetpipe.ledger import ComplianceLedger
from tweetpipe.processor import ProcessedTweet

T0 = 1_567_888_000_000


def read_entries(path):
    """Every entry in the ledger file, oldest first; none before the first."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def make_pt(text="OT hello there", username="asha_rao", name="Asha Rao",
            id="1170447725900742656", lang="en", country="India"):
    return ProcessedTweet(
        creation_date="Sat Sep 07 20:14:03 +0000 2019",
        id=id,
        lang=lang,
        location="Delhi, India",
        name=name,
        username=username,
        text=text,
        country=country,
        city=None,
    )


@pytest.fixture()
def gateway(tmp_path):
    vault = Vault(tmp_path / "vault.jsonl", clock=VirtualClock(T0))
    ledger = ComplianceLedger(tmp_path / "ledger.jsonl", clock=VirtualClock(T0))
    gw = PrivacyGateway(vault, ledger)
    yield gw
    vault.close()
    ledger.close()


def enrol(gateway, pt):
    """Enrol pt's author as dispatch_feed does; returns the author's code."""
    return gateway.register_user(user_key_for(pt.username, pt.id),
                                 identifiers=(pt.username, pt.name, pt.id))


def bundles_for(gateway, pt):
    """Enrol pt's author, then pseudonymize pt under the returned code."""
    return gateway.pseudonymize(pt, enrol(gateway, pt))


def payload_of(bundle):
    return json.loads(bundle.payload_json)


# ------------------------------------------------------------------ schema


# The paper's identity fields: who wrote a record, and where they are.
VULNERABLE_FIELDS = frozenset({"name", "username", "id", "location", "city"})
# The fields a payload carries, as keys in this order (the sink format).
INVULNERABLE_FIELDS = ("text", "lang", "country", "creation_date")


def test_every_record_field_is_classified():
    # A field added to the record must be placed on one side of the
    # boundary: in the payload's allow-list or among the identity fields.
    names = [f.name for f in dataclasses.fields(ProcessedTweet)]
    assert sorted(names) == sorted(VULNERABLE_FIELDS | set(INVULNERABLE_FIELDS))
    assert VULNERABLE_FIELDS.isdisjoint(INVULNERABLE_FIELDS)


# ------------------------------------------------------------------- vault


class FakeRng:
    """getrandbits stub yielding a scripted sequence of code values."""

    def __init__(self, values):
        self._values = [int(v, 16) for v in values]

    def getrandbits(self, bits):
        assert bits == 128
        return self._values.pop(0)


def test_register_is_idempotent(tmp_path):
    with Vault(tmp_path / "v.jsonl") as vault:
        code = vault.register("asha_rao:1")
        assert vault.register("asha_rao:1") == code
        assert len(vault) == 1


def test_codes_are_32_hex_and_unique(tmp_path):
    with Vault(tmp_path / "v.jsonl") as vault:
        codes = {vault.register(f"user{i}:{i}") for i in range(200)}
    assert len(codes) == 200
    assert all(len(c) == 32 and set(c) <= set("0123456789abcdef") for c in codes)


def test_minting_retries_on_collision(tmp_path):
    dup = "aa" * 16
    fresh = "bb" * 16
    with Vault(tmp_path / "v.jsonl", rng=FakeRng([dup, dup, fresh])) as vault:
        assert vault.register("first:1") == dup
        assert vault.register("second:2") == fresh


def test_minting_avoids_identifier_substrings(tmp_path):
    # the identifier is folded before the check: "ABCDEF12" rules out "abcdef12"
    handle = "ABCDEF12"
    tainted = handle.lower() + "0" * 24
    clean = "c" * 32
    with Vault(tmp_path / "v.jsonl", rng=FakeRng([tainted, clean])) as vault:
        gateway = PrivacyGateway(vault, ledger=None, rules=CategoryRules({}))
        assert gateway.register_user("x:1", identifiers=(handle,)) == clean


def test_short_identifiers_do_not_constrain_minting(tmp_path):
    # below 4 chars an avoid-check would reject almost every hex string
    tainted = "abc" + "0" * 29
    with Vault(tmp_path / "v.jsonl", rng=FakeRng([tainted])) as vault:
        gateway = PrivacyGateway(vault, ledger=None, rules=CategoryRules({}))
        assert gateway.register_user("x:1", identifiers=("abc",)) == tainted


def test_vault_survives_reopen(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        code = vault.register("asha_rao:1")
    with Vault(path) as vault:
        assert vault.user_for(code) == "asha_rao:1"
        assert vault.register("asha_rao:1") == code


def test_erase_tombstones_binding(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        code = vault.register("asha_rao:1")
        assert vault.erase("asha_rao:1") == code
        with pytest.raises(UnknownCodeError):
            vault.user_for(code)
        assert len(vault) == 0
    # the tombstone holds across restarts too
    with Vault(path) as vault:
        with pytest.raises(UnknownCodeError):
            vault.user_for(code)


def test_erase_requires_known_user(tmp_path):
    with Vault(tmp_path / "v.jsonl") as vault:
        with pytest.raises(UnknownUserError):
            vault.erase("ghost:0")


def test_vault_file_is_append_only(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        vault.register("a:1")
    before = path.read_bytes()
    with Vault(path) as vault:
        vault.register("b:2")
        vault.erase("a:1")
    assert path.read_bytes().startswith(before)


def test_vault_rejects_corrupt_history(tmp_path):
    path = tmp_path / "v.jsonl"
    bind = '{"op": "bind", "user_key": "a:1", "code": "aa"}\n'
    for bad in ('{"op": "erase", "code": "ff"}', "not json", "[1]", "null", '{"op": "bind"}',
                '{"op": "bind", "code": "bb"}', '{"op": "bind", "user_key": "b:2"}',
                '{"op": "erase"}', '{"op": "erase", "code": ["aa"]}', '{"op": "rename"}'):
        path.write_text(bind + bad + "\n" + bind, encoding="utf-8")
        with pytest.raises(VaultError, match=f"^{re.escape(str(path))}:2: "):
            Vault(path)


def test_torn_final_binding_is_cut_at_every_byte(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        first = vault.register("asha_rao:1")
        vault.register("zoë_ñandú:2")
    data = path.read_bytes()
    head = data[:data.index(b"\n") + 1]
    last = data[len(head):]
    assert len(last.decode("utf-8")) < len(last)  # some cuts split a UTF-8 sequence
    for cut in range(len(last)):
        torn = head + last[:cut]
        path.write_bytes(torn)
        with Vault(path) as vault:
            assert path.read_bytes() == torn  # reading leaves the file alone
            assert len(vault) == 1  # only asha_rao:1 is bound
            code = vault.register("bena_kapoor:3")
            vault.erase("asha_rao:1")
        with Vault(path) as vault:
            assert vault.user_for(code) == "bena_kapoor:3"
            with pytest.raises(UnknownCodeError):
                vault.user_for(first)


def test_binding_records_creation_time(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path, clock=VirtualClock(T0)) as vault:
        code = vault.register("a:1")
    (op,) = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert op == {"op": "bind", "user_key": "a:1", "code": code, "created_at": T0}


def test_user_key_format():
    assert user_key_for("asha_rao", "123") == "asha_rao:123"


# ---------------------------------------------------------- category rules


def test_category_keywords():
    rules = CategoryRules.default()
    assert rules.categories_for("OT great deal on shoes") == ["ecommerce"]
    assert rules.categories_for("OT sushi tonight") == ["food"]
    assert rules.categories_for("OT flight booked, sushi at the airport") == [
        "food", "travel",
    ]


def test_unmatched_text_falls_back_to_default_category():
    rules = CategoryRules.default()
    assert rules.categories_for("OT zzz nothing here") == [DEFAULT_CATEGORY]


def test_keywords_match_whole_words_case_insensitively():
    rules = CategoryRules.default()
    assert rules.categories_for("OT DEAL of the day") == ["ecommerce"]
    assert rules.categories_for("OT pricey district") == [DEFAULT_CATEGORY]


def reference_categories(rules, text):
    """The categories' own patterns: any keyword, case-insensitively,
    with no word character on either side."""
    matched = [cat for cat in CATEGORIES if rules.get(cat) and re.search(
        r"(?<!\w)(" + "|".join(re.escape(w) for w in rules[cat]) + r")(?!\w)", text, re.IGNORECASE)]
    return matched or [DEFAULT_CATEGORY]


# ASCII of both cases, digits, '_' and punctuation, plus 'ſ' and the Kelvin
# sign (which match 's' and 'k' case-insensitively), 'İ' (which lower()
# expands) and 'ß'.
CATEGORY_ALPHABET = "abksABKS09_ .,-!\u017f\u212a\u0130\u00df"
ASCII_KEYWORDS = st.text("abksABKS09_", min_size=1, max_size=4)
OTHER_KEYWORDS = st.sampled_from(["ab ks", "k-s", "\u017fa", "\u212ab", "stra\u00dfe", "\u0130s"]) | st.text(
    CATEGORY_ALPHABET, min_size=1, max_size=4)


@st.composite
def category_rules(draw):
    """Rules of ASCII-word keywords, to which a two-word, hyphenated or
    non-ASCII keyword may be added; a category's list may be empty."""
    rules = {cat: draw(st.lists(ASCII_KEYWORDS, max_size=3))
             for cat in draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, unique=True))}
    if draw(st.booleans()):
        rules[draw(st.sampled_from(sorted(rules)))].append(draw(OTHER_KEYWORDS))
    return rules


@st.composite
def category_texts(draw, keywords):
    """Text built from keywords (in any case) and filler, or all ASCII."""
    pieces = draw(st.lists(st.one_of(
        st.sampled_from(keywords).map(str.swapcase) if keywords else st.nothing(),
        st.sampled_from(keywords).map(str.upper) if keywords else st.nothing(),
        st.sampled_from(keywords) if keywords else st.nothing(),
        st.text(CATEGORY_ALPHABET, max_size=4),
    ), max_size=8))
    text = "".join(pieces)
    return draw(st.sampled_from([text, text.encode("ascii", "ignore").decode()]))


@settings(max_examples=300)
@given(st.data())
def test_categories_match_the_per_category_patterns(data):
    rules = data.draw(category_rules())
    classifier = CategoryRules(rules)
    keywords = [w for words in rules.values() for w in words]
    for _ in range(4):
        text = data.draw(category_texts(keywords))
        assert classifier.categories_for(text) == reference_categories(rules, text)


def test_ascii_text_under_word_rules_is_classified_without_the_patterns():
    rules = CategoryRules.default()
    rules._patterns = None  # any use of the patterns would raise
    assert rules.categories_for("OT flight booked, SUSHI at the airport") == ["food", "travel"]
    assert rules.categories_for("OT deal_of_the_day, pricey") == [DEFAULT_CATEGORY]


def test_rules_reject_unknown_categories():
    with pytest.raises(ValueError):
        CategoryRules({"catering": ("soup",)})


def test_rules_load_rejects_duplicates(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("food: soup\nfood: stew\n", encoding="utf-8")
    with pytest.raises(ValueError):
        CategoryRules.load(path)


def test_rules_load_rejects_unknown_category(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("food: soup\n# caterers\ncatering: buffet\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: unknown category catering$"):
        CategoryRules.load(path)


# ------------------------------------------------------------ pseudonymize


def test_bundle_payload_has_no_identity_fields(gateway):
    pt = make_pt()
    bundles = bundles_for(gateway, pt)
    assert bundles
    for bundle in bundles:
        assert list(payload_of(bundle)) == list(INVULNERABLE_FIELDS)
        for secret in (pt.username, pt.name, pt.id, pt.location):
            assert secret not in bundle.line()
        assert gateway.vault.user_for(bundle.code) == user_key_for(pt.username, pt.id)


# Characters JSON escapes or that older encoders mishandle: quote,
# backslash, control characters, the JavaScript line separators and
# characters outside the BMP.
JSON_EDGE_CHARACTERS = st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f",
                                        "\u2028", "\u2029", "é", "☃", "😀", "\U0010ffff"])


@given(text=st.text(JSON_EDGE_CHARACTERS | st.characters(blacklist_categories=("Cs",))),
       country=st.none() | st.text(max_size=5), code=st.text(JSON_EDGE_CHARACTERS, max_size=3))
def test_spliced_sink_line_equals_the_encoded_bundle(text, country, code):
    gw = PrivacyGateway(vault=KeyVault(), ledger=None)
    pt = make_pt(text=text, country=country)
    payload = {"text": text, "lang": pt.lang, "country": country, "creation_date": pt.creation_date}
    for bundle in gw.pseudonymize(pt, "c" + code):
        reference = {"code": "c" + code, "category": bundle.category, "payload": payload}
        assert bundle.line() == json.dumps(reference, ensure_ascii=False)


def test_one_bundle_per_category(gateway):
    bundles = bundles_for(gateway, make_pt(text="OT flight booked, sushi after"))
    assert [b.category for b in bundles] == ["food", "travel"]
    assert len({b.code for b in bundles}) == 1


def test_self_mention_is_scrubbed(gateway):
    pt = make_pt(text="OT follow @asha_rao for chai takes", username="asha_rao")
    bundle = bundles_for(gateway, pt)[0]
    assert "asha_rao" not in payload_of(bundle)["text"]
    assert "***" in payload_of(bundle)["text"]


def test_other_registered_users_are_scrubbed_too(gateway):
    gateway.register_user("bena_k:77", identifiers=("bena_k", "Bena K", "77"))
    bundle = bundles_for(gateway, make_pt(text="OT lunch with @bena_k was fun"))[0]
    assert "bena_k" not in payload_of(bundle)["text"]


def test_scrubbing_is_case_insensitive_and_longest_first(gateway):
    gateway.register_user("anna:1", identifiers=("anna",))
    gateway.register_user("anna_banana:2", identifiers=("anna_banana",))
    bundle = bundles_for(gateway, make_pt(text="OT ANNA_BANANA and anna say hi"))[0]
    text = payload_of(bundle)["text"]
    assert "anna" not in text.lower()
    assert text.count("***") == 2


def test_categories_decided_before_scrubbing(gateway):
    # a registered identifier that doubles as a keyword must not change routing
    gateway.register_user("deal:9", identifiers=("deal",))
    bundles = bundles_for(gateway, make_pt(text="OT what a deal today"))
    assert [b.category for b in bundles] == ["ecommerce"]
    assert "deal" not in payload_of(bundles[0])["text"]


def recording(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def test_reenrolment_keeps_codes_and_scrubbing(gateway):
    pt = make_pt(text="OT ping @asha_rao")
    first = bundles_for(gateway, pt)[0]
    # the same author enrolled again keeps the same code
    assert bundles_for(gateway, pt)[0].code == first.code
    assert len(gateway.vault) == 1
    # an erased user comes back under a fresh code and stays scrubbed
    gateway.erase_user(user_key_for(pt.username, pt.id))
    again = bundles_for(gateway, pt)[0]
    assert again.code != first.code
    assert "asha_rao" not in payload_of(again)["text"]
    # new identifiers under a known key are scrubbed too
    assert gateway.register_user(user_key_for(pt.username, pt.id),
                                 identifiers=(pt.username, "Asha R. Rao", pt.id)) == again.code
    assert gateway._scrub("OT hi Asha R. Rao") == "OT hi ***"


def test_dispatch_feed_enrols_each_record_once(gateway, monkeypatch):
    registered, enrolled_at_pseudonymize = [], []
    monkeypatch.setattr(gateway.vault, "register", recording(registered, gateway.vault.register))
    pseudonymize = gateway.pseudonymize

    def counting_pseudonymize(t, code):
        before = len(registered)
        bundles = pseudonymize(t, code)
        assert len(registered) == before  # pseudonymize never asks the vault
        enrolled_at_pseudonymize.append(before)
        return bundles

    monkeypatch.setattr(gateway, "pseudonymize", counting_pseudonymize)
    feed = [make_pt(text="OT sushi @bena_k"),
            make_pt(text="OT plain words", username="bena_k", name="Bena K", id="77"),
            make_pt(text="OT flight booked")]
    registry, sinks = build_registry()
    assert gateway.dispatch_feed(feed, registry) == 3
    assert len(registered) == len(feed)
    # every author was enrolled before the first record was pseudonymized
    assert enrolled_at_pseudonymize == [len(feed)] * len(feed)
    assert "bena_k" not in payload_of(sinks["food"].bundles[0])["text"]
    assert not hasattr(gateway, "_indexed")
    assert not hasattr(gateway, "_register_author")


def reference_scrub(terms, text):
    """Brute force: at each position try every term, longest first."""
    folded = _fold(text)
    ordered = sorted({_fold(t) for t in terms if len(t) >= SCRUB_MIN_LENGTH},
                     key=len, reverse=True)
    out, i = [], 0
    while i < len(folded):
        hit = next((term for term in ordered if folded.startswith(term, i)), None)
        if hit is None:
            out.append(text[i])
            i += 1
        else:
            out.append(SCRUB_REPLACEMENT)
            i += len(hit)
    return "".join(out)


# 'İ' lowercases to two characters, so _fold keeps it as it is.
SCRUB_ALPHABET = "abAB_İi "


@st.composite
def scrub_terms(draw):
    """Terms sharing one 4-character prefix, of several lengths, plus
    unrelated terms and ones too short to register."""
    prefix = draw(st.text(SCRUB_ALPHABET, min_size=SCRUB_MIN_LENGTH, max_size=SCRUB_MIN_LENGTH))
    tails = draw(st.lists(st.text(SCRUB_ALPHABET, max_size=5), max_size=4))
    others = draw(st.lists(st.text(SCRUB_ALPHABET, min_size=1, max_size=9), max_size=3))
    return [prefix + tail for tail in tails] + others


@st.composite
def scrub_texts(draw, terms):
    """Text built from terms (in any case) and filler, so matches land
    anywhere, the very end included; or short free text."""
    pieces = draw(st.lists(st.one_of(
        st.sampled_from(terms).map(lambda t: t.swapcase()) if terms else st.nothing(),
        st.sampled_from(terms) if terms else st.nothing(),
        st.text(SCRUB_ALPHABET, max_size=5),
    ), max_size=8))
    return draw(st.one_of(st.just("".join(pieces)),
                          st.text(SCRUB_ALPHABET, max_size=SCRUB_MIN_LENGTH - 1)))


class KeyVault:
    """Vault stand-in whose code for a user is the user key."""

    def register(self, user_key, avoid=()):
        return user_key


@given(st.data())
def test_scrub_matches_brute_force_as_terms_are_added(data):
    gw = PrivacyGateway(vault=KeyVault(), ledger=None, rules=CategoryRules({}))
    registered = []
    for n in range(2):
        batch = data.draw(scrub_terms())
        gw.register_user(f"user{n}:{n}", identifiers=batch)
        registered += batch
        for _ in range(3):
            text = data.draw(scrub_texts(registered))
            assert gw._scrub(text) == reference_scrub(registered, text)


@pytest.mark.parametrize("terms,text,expected", [
    (["aaaa"], "aaaaaa", "***aa"),  # overlapping starts of one key
    (["abab", "baba_x"], "ababa_x", "***a_x"),  # a replacement consumes baba's start
    (["abcdefg"], "xx abcd", "xx abcd"),  # the key ends the text, its term is longer
    (["abcdefg", "abcd"], "xx abcd", "xx ***"),  # ... and a shorter term fits there
    (["nightowl"], "good night", "good night"),  # no term completes the key
    (["Bena_K"], "Hi BENA_k!", "Hi ***!"),  # case-folded
])
def test_scrub_tries_terms_where_a_key_starts(terms, text, expected):
    gw = PrivacyGateway(vault=KeyVault(), ledger=None, rules=CategoryRules({}))
    gw.register_user("user:1", identifiers=terms)
    assert gw._scrub(text) == reference_scrub(terms, text) == expected


# ---------------------------------------------------------------- dispatch


class ListSink:
    """In-memory sink."""

    def __init__(self):
        self.bundles: list[CategoryBundle] = []
        self.closed = False

    def deliver(self, bundles: list[CategoryBundle]) -> None:
        self.bundles.extend(bundles)

    def close(self) -> None:
        self.closed = True


def build_registry(categories=CATEGORIES):
    registry = ServiceRegistry()
    sinks = {}
    for category in categories:
        sinks[category] = ListSink()
        registry.add(category, sinks[category], beneficiary=f"svc-{category}")
    return registry, sinks


def test_dispatch_routes_to_matching_sink_only(gateway):
    registry, sinks = build_registry()
    bundle = bundles_for(gateway, make_pt(text="OT sushi night"))[0]
    assert bundle.category == "food"
    [seq] = gateway.dispatch([bundle], registry)
    assert [b.code for b in sinks["food"].bundles] == [bundle.code]
    assert all(not sink.bundles for cat, sink in sinks.items() if cat != "food")
    entry = read_entries(gateway.ledger.path)[-1]
    assert (entry["seq"], entry["beneficiary"]) == (seq, "svc-food")


def test_dispatch_logs_exactly_one_disclosure(gateway):
    registry, _ = build_registry()
    bundle = bundles_for(gateway, make_pt())[0]
    before = len(gateway.ledger)
    [seq] = gateway.dispatch([bundle], registry)
    assert len(gateway.ledger) == before + 1
    entry = read_entries(gateway.ledger.path)[-1]
    assert entry["seq"] == seq
    assert entry["event"] == "disclosure"
    assert entry["subject_code"] == bundle.code
    assert entry["beneficiary"] == "svc-demographic_social"
    assert entry["purpose"] == PURPOSE
    assert entry["retention_days"] == 30


@pytest.mark.parametrize("days", [0, True, 2.5])
def test_gateway_refuses_a_retention_the_ledger_would_refuse(gateway, days):
    # True equals 1 but is a bool, and 2.5 is no count of days; the ledger
    # refuses both.
    with pytest.raises(ValueError, match="retention_days must be at least 1"):
        PrivacyGateway(gateway.vault, gateway.ledger, retention_days=days)


def test_dispatch_without_service_fails_loudly(gateway):
    registry, _ = build_registry(categories=("food",))
    bundle = bundles_for(gateway, make_pt(text="OT plain words"))[0]  # demographic_social
    before = len(gateway.ledger)
    with pytest.raises(NoServiceForCategoryError):
        gateway.dispatch([bundle], registry)
    assert len(gateway.ledger) == before  # nothing was delivered, nothing is logged


def test_directory_sink_appends_jsonl(tmp_path, gateway):
    sink = DirectorySink(tmp_path / "food")
    with ServiceRegistry() as registry:
        registry.add("food", sink, beneficiary="svc-food")
        bundle = bundles_for(gateway, make_pt(text="OT sushi"))[0]
        gateway.dispatch([bundle], registry)
        gateway.dispatch([bundle], registry)
    lines = (tmp_path / "food" / "bundles.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [bundle.line()] * 2


def test_directory_sink_cuts_a_torn_tail_at_every_byte(tmp_path, caplog):
    path = tmp_path / "food" / "bundles.jsonl"
    first, second, third = (
        CategoryBundle(code=c * CODE_HEX_LENGTH, category="food",
                       payload_json=json.dumps({"text": text, "lang": "en"}, ensure_ascii=False))
        for c, text in (("a", "OT sushi"), ("b", "OT café ☃ 😀"), ("c", "OT ramen")))
    with DirectorySink(tmp_path / "food") as sink:
        sink.deliver([first])
        sink.deliver([second])
    data = path.read_bytes()
    head = data[:data.index(b"\n") + 1]
    last = data[len(head):]
    assert len(last.decode("utf-8")) < len(last)  # some cuts split a UTF-8 sequence
    for cut in range(len(last)):
        torn = head + last[:cut]
        path.write_bytes(torn)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tweetpipe.ledger"):
            with DirectorySink(tmp_path / "food") as sink:
                assert path.read_bytes() == torn  # opening leaves the file alone
                sink.deliver([third])
        expected = f"{path}: skipping a torn final line at byte {len(head)}"
        assert [r.getMessage() for r in caplog.records] == ([expected] if cut else [])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [first.line(), third.line()]


def test_ledger_entry_is_on_disk_before_its_sink_line(tmp_path, gateway, monkeypatch):
    def lines_on_disk(category):
        path = tmp_path / category / "bundles.jsonl"
        return len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0

    def disclosures(beneficiary):
        return sum(e["beneficiary"] == beneficiary for e in read_entries(gateway.ledger.path))

    deliver = DirectorySink.deliver

    def checked_deliver(sink, bundles):
        category = os.path.basename(os.path.dirname(sink.path))
        assert disclosures(f"svc-{category}") == lines_on_disk(category) + len(bundles)
        deliver(sink, bundles)

    monkeypatch.setattr(DirectorySink, "deliver", checked_deliver)
    with ServiceRegistry() as registry:
        for category in CATEGORIES:
            registry.add(category, DirectorySink(tmp_path / category),
                         beneficiary=f"svc-{category}")
        for text in ("OT sushi night", "OT flight booked, sushi after",
                     "OT plain words", "OT great deal on shoes", "OT sushi again"):
            gateway.dispatch(bundles_for(gateway, make_pt(text=text)), registry)
            for category in CATEGORIES:
                assert lines_on_disk(category) == disclosures(f"svc-{category}")
    assert len(gateway.ledger) == 6


def test_registry_closes_every_sink_when_a_dispatch_fails(tmp_path, gateway):
    directory_sink = DirectorySink(tmp_path / "food")
    list_sink = ListSink()
    with pytest.raises(NoServiceForCategoryError):
        with ServiceRegistry() as registry:
            registry.add("food", directory_sink, beneficiary="svc-food")
            registry.add("travel", list_sink, beneficiary="svc-travel")
            gateway.dispatch([bundles_for(gateway, make_pt(text="OT sushi"))[0]], registry)
            fh = directory_sink._fh
            assert not fh.closed
            gateway.dispatch([bundles_for(gateway, make_pt(text="OT plain words"))[0]], registry)
    assert fh.closed
    assert list_sink.closed


class _RecordingHandler(BaseHTTPRequestHandler):
    """Records each POST and answers with ``status``."""

    status = 200
    failing_from = 1  # the first post answered with status
    posts: list

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).posts.append((self.headers["Content-Type"], body))
        self.send_response(self.status if len(self.posts) >= self.failing_from else 200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def post_server():
    handler = type("Handler", (_RecordingHandler,), {"posts": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/hook", handler
    finally:
        server.shutdown()
        server.server_close()


def test_http_sink_posts_bundle_as_json(post_server, gateway):
    # the bytes a directory sink writes, so non-ASCII text goes out as UTF-8
    url, handler = post_server
    with ServiceRegistry() as registry:
        registry.add("food", HttpSink(url), beneficiary="svc-food")
        bundle = bundles_for(gateway, make_pt(text="OT sushi night, café after"))[0]
        gateway.dispatch([bundle], registry)
    [(content_type, body)] = handler.posts
    assert content_type == "application/json"
    assert body == bundle.line().encode()
    assert json.loads(body)["payload"]["text"] == "OT sushi night, café after"
    assert len(gateway.ledger) == 1


def test_http_sink_rejection_is_logged_as_a_failed_delivery(post_server, gateway):
    url, handler = post_server
    handler.status = 500
    with ServiceRegistry() as registry:
        registry.add("food", HttpSink(url), beneficiary="svc-food")
        bundle = bundles_for(gateway, make_pt(text="OT sushi"))[0]
        with pytest.raises(HTTPError):
            gateway.dispatch([bundle], registry)
    assert len(handler.posts) == 1
    disclosure, failure = read_entries(gateway.ledger.path)
    assert (disclosure["seq"], disclosure["event"], disclosure["subject_code"]) == \
        (1, "disclosure", bundle.code)
    assert (failure["seq"], failure["event"], failure["subject_code"],
            failure["disclosure_seq"]) == (2, "delivery_failed", bundle.code, 1)
    assert len(gateway.ledger) == 2


def test_a_failed_delivery_logs_every_bundle_it_did_not_confirm(post_server, gateway):
    url, handler = post_server
    handler.status, handler.failing_from = 503, 2
    travel = ListSink()
    with ServiceRegistry() as registry:
        registry.add("food", HttpSink(url), beneficiary="svc-food")
        registry.add("travel", travel, beneficiary="svc-travel")
        bundles = [bundles_for(gateway, make_pt(text=text, username=f"user{i}", id=f"{i}"))[0]
                   for i, text in enumerate(("OT sushi", "OT flight", "OT pizza", "OT lunch"))]
        assert [b.category for b in bundles] == ["food", "travel", "food", "food"]
        with pytest.raises(HTTPError):
            gateway.dispatch(bundles, registry)
    # food posted bundle 0, was refused bundle 2 and never sent bundle 3;
    # travel, which comes after food, got nothing
    assert [body for _type, body in handler.posts] == \
        [bundles[0].line().encode(), bundles[2].line().encode()]
    assert travel.bundles == []
    entries = read_entries(gateway.ledger.path)
    assert [(e["event"], e["subject_code"]) for e in entries[:4]] == \
        [("disclosure", b.code) for b in bundles]
    assert [(e["seq"], e["event"], e["subject_code"], e["disclosure_seq"]) for e in entries[4:]] \
        == [(5 + n, "delivery_failed", bundles[i].code, i + 1) for n, i in enumerate((1, 2, 3))]


def test_a_failed_directory_append_confirms_none(tmp_path, gateway, monkeypatch):
    def full_disk(sink, bundles):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(DirectorySink, "deliver", full_disk)
    with ServiceRegistry() as registry:
        registry.add("food", DirectorySink(tmp_path / "food"), beneficiary="svc-food")
        bundles = bundles_for(gateway, make_pt(text="OT sushi")) * 2
        with pytest.raises(OSError):
            gateway.dispatch(bundles, registry)
    assert [(e["event"], e.get("disclosure_seq")) for e in read_entries(gateway.ledger.path)] == \
        [("disclosure", None), ("disclosure", None), ("delivery_failed", 1), ("delivery_failed", 2)]


def test_registry_load(tmp_path):
    routes = tmp_path / "routes.txt"
    routes.write_text(
        "# routing\n"
        "food: sinks/food\n"
        "travel: http://127.0.0.1:1/hook\n",
        encoding="utf-8",
    )
    with ServiceRegistry.load(routes, base_dir=str(tmp_path)) as registry:
        food_sink, food_name = registry.route("food")
        assert isinstance(food_sink, DirectorySink)
        assert food_sink.path == str(tmp_path / "sinks" / "food" / "bundles.jsonl")
        assert food_name == "sinks/food"
        travel_sink, travel_name = registry.route("travel")
        assert isinstance(travel_sink, HttpSink)
        assert travel_name == "http://127.0.0.1:1/hook"
        for category in set(CATEGORIES) - {"food", "travel"}:
            with pytest.raises(NoServiceForCategoryError):
                registry.route(category)


def test_registry_load_rejects_unknown_category(tmp_path):
    routes = tmp_path / "routes.txt"
    routes.write_text("food: sinks/a\ncatering: sinks/x\n", encoding="utf-8")
    message = f"^{re.escape(str(routes))}:2: unknown category catering$"
    with pytest.raises(ValueError, match=message):
        ServiceRegistry.load(routes, base_dir=str(tmp_path))


def test_registry_load_rejects_duplicate_category(tmp_path):
    routes = tmp_path / "routes.txt"
    routes.write_text("food: sinks/a\n# second route\nfood: http://127.0.0.1:1/hook\n",
                      encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(routes))}:3: duplicate category food$"):
        ServiceRegistry.load(routes, base_dir=str(tmp_path))


# ----------------------------------------------------------- remap / erase


def test_remap_inverts_pseudonymization(gateway):
    pt = make_pt()
    bundle = bundles_for(gateway, pt)[0]
    rec = Recommendation(code=bundle.code, category=bundle.category, item="teapot")
    assert gateway.remap(rec) == (user_key_for(pt.username, pt.id), "teapot")


def test_remap_rejects_unknown_codes(gateway):
    rec = Recommendation(code="f" * 32, category="food", item="x")
    with pytest.raises(UnknownCodeError):
        gateway.remap(rec)


def test_erase_breaks_remap_and_logs(gateway):
    pt = make_pt()
    bundle = bundles_for(gateway, pt)[0]
    user_key = user_key_for(pt.username, pt.id)
    report = gateway.erase_user(user_key)
    assert report.code == bundle.code
    with pytest.raises(UnknownCodeError):
        gateway.remap(Recommendation(code=bundle.code, category="food", item="x"))
    entry = read_entries(gateway.ledger.path)[-1]
    assert entry["event"] == "erasure"
    assert entry["subject_code"] == bundle.code
    assert pt.username not in json.dumps(entry)


def test_vault_is_durable_before_the_ledger_cites_it(tmp_path, monkeypatch):
    vault_path, ledger_path = tmp_path / "vault.jsonl", tmp_path / "ledger.jsonl"
    real_os = tweetpipe.ledger.os
    synced = []  # (file, vault lines, ledger lines) at each fsync

    def lines(path):
        return path.read_bytes().count(b"\n") if path.exists() else 0

    class FsyncSpy:
        def __getattr__(self, name):
            return getattr(real_os, name)

        def fsync(self, fd):
            st = real_os.fstat(fd)
            if real_os.path.samestat(st, real_os.stat(vault_path)):
                synced_file = "vault"
            else:
                synced_file = "directory" if stat.S_ISDIR(st.st_mode) else "ledger"
            synced.append((synced_file, lines(vault_path), lines(ledger_path)))
            real_os.fsync(fd)

    monkeypatch.setattr(tweetpipe.ledger, "os", FsyncSpy())
    monkeypatch.setattr(tweetpipe.gateway, "DISPATCH_GROUP", 2)
    feed = [make_pt(text="OT sushi", username=f"user{i}", name=f"Name {i}", id=f"{i}")
            for i in range(3)]
    with Vault(vault_path, clock=VirtualClock(T0)) as vault, \
            ComplianceLedger(ledger_path, clock=VirtualClock(T0)) as ledger, \
            ServiceRegistry() as registry:
        registry.add("food", DirectorySink(tmp_path / "food"), beneficiary="svc-food")
        gateway = PrivacyGateway(vault, ledger)
        assert gateway.dispatch_feed(feed, registry) == 3
        # one vault fsync for all three bindings, before the first disclosure;
        # then one ledger fsync per group of two records; each new file's
        # directory once
        assert synced == [("vault", 3, 0), ("directory", 3, 0),
                          ("ledger", 3, 2), ("directory", 3, 2), ("ledger", 3, 3)]
        synced.clear()
        gateway.erase_user(user_key_for("user1", "1"))
        # the tombstone is on disk before the ledger's erasure entry is written
        assert synced == [("vault", 4, 3), ("ledger", 4, 4)]
    assert read_entries(ledger_path)[-1]["event"] == "erasure"


def test_one_ledger_fsync_per_dispatch_group(tmp_path, monkeypatch):
    real_os = tweetpipe.ledger.os
    ledger_path = tmp_path / "ledger.jsonl"
    ledger_fsyncs = []

    class FsyncSpy:
        def __getattr__(self, name):
            return getattr(real_os, name)

        def fsync(self, fd):
            if ledger_path.exists() and real_os.path.samestat(real_os.fstat(fd),
                                                              real_os.stat(ledger_path)):
                ledger_fsyncs.append(fd)
            real_os.fsync(fd)

    monkeypatch.setattr(tweetpipe.ledger, "os", FsyncSpy())
    feed = [make_pt(text="OT flight booked, sushi after", username=f"user{i}", id=f"{i}")
            for i in range(70)]
    with Vault(tmp_path / "vault.jsonl", clock=VirtualClock(T0)) as vault, \
            ComplianceLedger(ledger_path, clock=VirtualClock(T0)) as ledger:
        registry, sinks = build_registry()
        assert PrivacyGateway(vault, ledger).dispatch_feed(feed, registry) == 140
    assert len(ledger_fsyncs) == -(-len(feed) // DISPATCH_GROUP)
    assert [b.code for b in sinks["food"].bundles] == [b.code for b in sinks["travel"].bundles]
    assert [e["seq"] for e in read_entries(ledger_path)] == list(range(1, 141))


def test_erase_unknown_user(gateway):
    with pytest.raises(UnknownUserError):
        gateway.erase_user("ghost:0")


# --------------------------------------------------------------- leak scan


def test_no_identifier_reaches_sinks_or_ledger(tmp_path):
    rng = random.Random(7)
    vault = Vault(tmp_path / "vault.jsonl", clock=VirtualClock(T0))
    ledger = ComplianceLedger(tmp_path / "ledger.jsonl", clock=VirtualClock(T0), fsync=False)
    gateway = PrivacyGateway(vault, ledger)
    registry = ServiceRegistry()
    for category in CATEGORIES:
        registry.add(category, DirectorySink(tmp_path / category), beneficiary=f"svc-{category}")

    users, feed = [], []
    for i in range(50):
        username = f"muralist{i:03d}"
        name = f"Kept Name{i:03d}"
        uid = str(9_000_000_000_000_000_000 + i)
        users.append((username, name, uid))
        text = rng.choice([
            f"OT hello from @{username}",
            "OT great deal on a new kettle",
            f"OT trip planned with @{users[rng.randrange(len(users))][0]}",
            "OT sushi and then the museum",
        ])
        feed.append(make_pt(text=text, username=username, name=name, id=uid))
    assert gateway.dispatch_feed(feed, registry) >= len(feed)
    registry.close()
    vault.close()
    ledger.close()

    haystack = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8")
    for category in CATEGORIES:
        bundle_file = tmp_path / category / "bundles.jsonl"
        if bundle_file.exists():
            haystack += bundle_file.read_text(encoding="utf-8")
    for username, name, uid in users:
        assert username not in haystack
        assert name not in haystack
        assert uid not in haystack
