"""Pseudonymization, scrubbing, routing, and erasure tests."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from tweetpipe.clock import VirtualClock
from tweetpipe.gateway import (
    CATEGORIES,
    CategoryBundle,
    CategoryRules,
    DEFAULT_CATEGORY,
    INVULNERABLE_FIELDS,
    VULNERABLE_FIELDS,
    SCRUB_MIN_LENGTH,
    SCRUB_REPLACEMENT,
    DirectorySink,
    NoServiceForCategoryError,
    PrivacyGateway,
    Recommendation,
    SensitivityLabel,
    ServiceRegistry,
    UnknownCodeError,
    UnknownFieldError,
    UnknownUserError,
    Vault,
    VaultError,
    _fold,
    classify_sensitivity,
    user_key_for,
)
from tweetpipe.ledger import ComplianceLedger
from tweetpipe.processor import ProcessedTweet

T0 = 1_567_888_000_000


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


# ------------------------------------------------------------- sensitivity


def test_identity_fields_are_vulnerable():
    for field in ("name", "username", "id", "location", "city"):
        label = classify_sensitivity(field)
        assert label.label == "vulnerable"
        assert label.threat == "targeted_advertising"


def test_content_fields_are_invulnerable():
    for field in ("lang", "country", "creation_date", "text"):
        label = classify_sensitivity(field)
        assert label.label == "invulnerable"
        assert label.threat is None


def test_every_record_field_is_classified():
    names = {f.name for f in dataclasses.fields(ProcessedTweet)}
    for name in names:
        classify_sensitivity(name)
    assert names == VULNERABLE_FIELDS | set(INVULNERABLE_FIELDS)


def test_unknown_field_rejected():
    with pytest.raises(UnknownFieldError):
        classify_sensitivity("shoe_size")


def test_threat_policy_override():
    policy = {"location": "threat_intelligence"}
    label = classify_sensitivity("location", threat_policy=policy)
    assert label.threat == "threat_intelligence"
    with pytest.raises(ValueError):
        classify_sensitivity("location", threat_policy={"location": "bad-tag"})


def test_invulnerable_fields_never_carry_a_threat():
    with pytest.raises(ValueError):
        SensitivityLabel(field_name="lang", label="invulnerable", threat="x")


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
    handle = "abcdef12"
    tainted = handle + "0" * 24
    clean = "c" * 32
    with Vault(tmp_path / "v.jsonl", rng=FakeRng([tainted, clean])) as vault:
        code = vault.register("x:1", identifiers=(handle,))
    assert code == clean


def test_short_identifiers_do_not_constrain_minting(tmp_path):
    # below 4 chars an avoid-check would reject almost every hex string
    tainted = "abc" + "0" * 29
    with Vault(tmp_path / "v.jsonl", rng=FakeRng([tainted])) as vault:
        assert vault.register("x:1", identifiers=("abc",)) == tainted


def test_vault_survives_reopen(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        code = vault.register("asha_rao:1")
    with Vault(path) as vault:
        assert vault.code_for("asha_rao:1") == code
        assert vault.user_for(code) == "asha_rao:1"


def test_erase_tombstones_binding(tmp_path):
    path = tmp_path / "v.jsonl"
    with Vault(path) as vault:
        code = vault.register("asha_rao:1")
        assert vault.erase("asha_rao:1") == code
        with pytest.raises(UnknownCodeError):
            vault.user_for(code)
        assert vault.code_for("asha_rao:1") is None
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
    path.write_text('{"op": "erase", "code": "ff"}\n', encoding="utf-8")
    with pytest.raises(VaultError):
        Vault(path)


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


def test_rules_reject_unknown_categories():
    with pytest.raises(ValueError):
        CategoryRules({"catering": ("soup",)})


def test_rules_load_rejects_duplicates(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("food: soup\nfood: stew\n", encoding="utf-8")
    with pytest.raises(ValueError):
        CategoryRules.load(path)


# ------------------------------------------------------------ pseudonymize


def test_bundle_payload_has_no_identity_fields(gateway):
    # the key order is part of the sink format
    assert INVULNERABLE_FIELDS == ("text", "lang", "country", "creation_date")
    pt = make_pt()
    bundles = gateway.pseudonymize(pt)
    assert bundles
    for bundle in bundles:
        assert list(bundle.payload) == list(INVULNERABLE_FIELDS)
        serialized = json.dumps(bundle.to_dict())
        for secret in (pt.username, pt.name, pt.id, pt.location):
            assert secret not in serialized
        assert bundle.code == gateway.vault.code_for(user_key_for(pt.username, pt.id))


def test_one_bundle_per_category(gateway):
    bundles = gateway.pseudonymize(make_pt(text="OT flight booked, sushi after"))
    assert [b.category for b in bundles] == ["food", "travel"]
    assert len({b.code for b in bundles}) == 1


def test_self_mention_is_scrubbed(gateway):
    pt = make_pt(text="OT follow @asha_rao for chai takes", username="asha_rao")
    bundle = gateway.pseudonymize(pt)[0]
    assert "asha_rao" not in bundle.payload["text"]
    assert "***" in bundle.payload["text"]


def test_other_registered_users_are_scrubbed_too(gateway):
    gateway.register_user("bena_k:77", identifiers=("bena_k", "Bena K", "77"))
    bundle = gateway.pseudonymize(make_pt(text="OT lunch with @bena_k was fun"))[0]
    assert "bena_k" not in bundle.payload["text"]


def test_scrubbing_is_case_insensitive_and_longest_first(gateway):
    gateway.register_user("anna:1", identifiers=("anna",))
    gateway.register_user("anna_banana:2", identifiers=("anna_banana",))
    bundle = gateway.pseudonymize(make_pt(text="OT ANNA_BANANA and anna say hi"))[0]
    text = bundle.payload["text"]
    assert "anna" not in text.lower()
    assert text.count("***") == 2


def test_categories_decided_before_scrubbing(gateway):
    # a registered identifier that doubles as a keyword must not change routing
    gateway.register_user("deal:9", identifiers=("deal",))
    bundles = gateway.pseudonymize(make_pt(text="OT what a deal today"))
    assert [b.category for b in bundles] == ["ecommerce"]
    assert "deal" not in bundles[0].payload["text"]


def recording(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


def test_reregistration_indexes_identifiers_once(gateway, monkeypatch):
    indexed, registered = [], []
    monkeypatch.setattr(gateway, "_add_scrub_terms", recording(indexed, gateway._add_scrub_terms))
    monkeypatch.setattr(gateway.vault, "register", recording(registered, gateway.vault.register))
    pt = make_pt(text="OT ping @asha_rao")
    first = gateway.pseudonymize(pt)[0]
    assert gateway.pseudonymize(pt)[0].code == first.code
    assert len(registered) == 2  # the vault is still asked every time
    assert len(indexed) == 1
    # an erased user comes back under a fresh code and stays scrubbed
    gateway.erase_user(user_key_for(pt.username, pt.id))
    again = gateway.pseudonymize(pt)[0]
    assert again.code != first.code
    assert "asha_rao" not in again.payload["text"]
    assert len(indexed) == 1
    # new identifiers under a known key are indexed too
    gateway.register_user(user_key_for(pt.username, pt.id),
                          identifiers=(pt.username, "Asha R. Rao", pt.id))
    assert len(indexed) == 2
    assert gateway._scrub("OT hi Asha R. Rao") == "OT hi ***"


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


@given(st.data())
def test_scrub_matches_brute_force_as_terms_are_added(data):
    gw = PrivacyGateway(vault=None, ledger=None, rules=CategoryRules({}))
    registered = []
    for _ in range(2):
        batch = data.draw(scrub_terms())
        gw._add_scrub_terms(batch)
        registered += batch
        for _ in range(3):
            text = data.draw(scrub_texts(registered))
            assert gw._scrub(text) == reference_scrub(registered, text)


# ---------------------------------------------------------------- dispatch


class ListSink:
    """In-memory sink."""

    def __init__(self):
        self.bundles: list[CategoryBundle] = []
        self.closed = False

    def deliver(self, bundle: CategoryBundle) -> None:
        self.bundles.append(bundle)

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
    bundle = gateway.pseudonymize(make_pt(text="OT sushi night"))[0]
    receipt = gateway.dispatch(bundle, registry)
    assert [b.code for b in sinks["food"].bundles] == [bundle.code]
    assert all(not sink.bundles for cat, sink in sinks.items() if cat != "food")
    assert receipt.beneficiary == "svc-food"
    assert receipt.category == "food"


def test_dispatch_logs_exactly_one_disclosure(gateway):
    registry, _ = build_registry()
    bundle = gateway.pseudonymize(make_pt())[0]
    before = len(gateway.ledger)
    receipt = gateway.dispatch(bundle, registry)
    assert len(gateway.ledger) == before + 1
    entry = gateway.ledger.entries()[-1]
    assert entry["seq"] == receipt.ledger_seq
    assert entry["event"] == "disclosure"
    assert entry["subject_code"] == bundle.code
    assert entry["beneficiary"] == "svc-demographic_social"
    assert entry["retention_days"] == 30


def test_dispatch_without_service_fails_loudly(gateway):
    registry, _ = build_registry(categories=("food",))
    bundle = gateway.pseudonymize(make_pt(text="OT plain words"))[0]  # demographic_social
    before = len(gateway.ledger)
    with pytest.raises(NoServiceForCategoryError):
        gateway.dispatch(bundle, registry)
    assert len(gateway.ledger) == before  # nothing was delivered, nothing is logged


def test_directory_sink_appends_jsonl(tmp_path, gateway):
    sink = DirectorySink(tmp_path / "food")
    with ServiceRegistry() as registry:
        registry.add("food", sink, beneficiary="svc-food")
        bundle = gateway.pseudonymize(make_pt(text="OT sushi"))[0]
        gateway.dispatch(bundle, registry)
        gateway.dispatch(bundle, registry)
    lines = (tmp_path / "food" / "bundles.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == bundle.to_dict()


def test_sink_line_is_on_disk_before_its_ledger_entry(tmp_path, gateway, monkeypatch):
    def lines_on_disk(category):
        path = tmp_path / category / "bundles.jsonl"
        return len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0

    def disclosures(beneficiary):
        return sum(e["beneficiary"] == beneficiary for e in gateway.ledger.entries())

    record = gateway.ledger.record

    def checked_record(event, subject_code, beneficiary=None, **fields):
        assert lines_on_disk(beneficiary.removeprefix("svc-")) == disclosures(beneficiary) + 1
        return record(event, subject_code, beneficiary=beneficiary, **fields)

    monkeypatch.setattr(gateway.ledger, "record", checked_record)
    with ServiceRegistry() as registry:
        for category in CATEGORIES:
            registry.add(category, DirectorySink(tmp_path / category),
                         beneficiary=f"svc-{category}")
        for text in ("OT sushi night", "OT flight booked, sushi after",
                     "OT plain words", "OT great deal on shoes", "OT sushi again"):
            for bundle in gateway.pseudonymize(make_pt(text=text)):
                gateway.dispatch(bundle, registry)
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
            gateway.dispatch(gateway.pseudonymize(make_pt(text="OT sushi"))[0], registry)
            fh = directory_sink._fh
            assert not fh.closed
            gateway.dispatch(gateway.pseudonymize(make_pt(text="OT plain words"))[0], registry)
    assert fh.closed
    assert list_sink.closed


def test_registry_load(tmp_path):
    routes = tmp_path / "routes.txt"
    routes.write_text(
        "# routing\n"
        "food: sinks/food\n"
        "travel: http://127.0.0.1:1/hook\n",
        encoding="utf-8",
    )
    registry = ServiceRegistry.load(routes, base_dir=str(tmp_path))
    assert registry.categories() == ["food", "travel"]
    assert registry.beneficiary_for("food") == "sinks/food"
    assert registry.beneficiary_for("travel") == "http://127.0.0.1:1/hook"
    with pytest.raises(NoServiceForCategoryError):
        registry.sink_for("ecommerce")


def test_registry_load_rejects_unknown_category(tmp_path):
    routes = tmp_path / "routes.txt"
    routes.write_text("catering: sinks/x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ServiceRegistry.load(routes, base_dir=str(tmp_path))


# ----------------------------------------------------------- remap / erase


def test_remap_inverts_pseudonymization(gateway):
    pt = make_pt()
    bundle = gateway.pseudonymize(pt)[0]
    rec = Recommendation(code=bundle.code, category=bundle.category, item="teapot")
    assert gateway.remap(rec) == (user_key_for(pt.username, pt.id), "teapot")


def test_remap_rejects_unknown_codes(gateway):
    rec = Recommendation(code="f" * 32, category="food", item="x")
    with pytest.raises(UnknownCodeError):
        gateway.remap(rec)


def test_erase_breaks_remap_and_logs(gateway):
    pt = make_pt()
    bundle = gateway.pseudonymize(pt)[0]
    user_key = user_key_for(pt.username, pt.id)
    report = gateway.erase_user(user_key)
    assert report.code == bundle.code
    with pytest.raises(UnknownCodeError):
        gateway.remap(Recommendation(code=bundle.code, category="food", item="x"))
    entry = gateway.ledger.entries()[-1]
    assert entry["event"] == "erasure"
    assert entry["subject_code"] == bundle.code
    assert pt.username not in json.dumps(entry)


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

    users = []
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
        for bundle in gateway.pseudonymize(make_pt(text=text, username=username,
                                                   name=name, id=uid)):
            gateway.dispatch(bundle, registry)
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
