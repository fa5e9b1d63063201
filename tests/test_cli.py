"""Command line interface tests."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import tweetpipe.cli
from tweetpipe.analyzer import BUILTIN_SPECS, analyze, load_regex_specs, sort_rows, write_csv
from tweetpipe.cli import main, parse_bool, parse_duration_ms
from tweetpipe.firehose import FirehoseEngine
from tweetpipe.gateway import CATEGORIES
from tweetpipe.mockserver import MockFirehoseServer
from tweetpipe.processor import ProcessedTweet, read_processed_file


# ----------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text,ms",
    [
        ("500ms", 500),
        ("2s", 2000),
        ("15m", 900_000),
        ("70h", 252_000_000),
        ("8d", 691_200_000),
        ("1234", 1234),
    ],
)
def test_parse_duration_ms(text, ms):
    assert parse_duration_ms(text) == ms


@pytest.mark.parametrize("bad", ["", "fast", "10 parsecs", "-5s"])
def test_parse_duration_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_duration_ms(bad)


def test_parse_bool():
    assert parse_bool("true") and parse_bool("YES") and parse_bool("1")
    assert not parse_bool("false") and not parse_bool("off")
    with pytest.raises(Exception):
        parse_bool("maybe")


# ------------------------------------------------------------- exit codes


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_runtime_errors_exit_one(tmp_path, capsys):
    rc = main([
        "--data-dir", str(tmp_path),
        "analyze", "--in", str(tmp_path / "missing.json"),
        "-regex", str(tmp_path / "missing.txt"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline


def tree_digest(root):
    """Stable digest of every file under root (path + content)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pipeline(data_dir, seed=7):
    rc = main([
        "--data-dir", str(data_dir), "--seed", str(seed),
        "pipeline", "--duration", "2m", "--interval-ms", "2000", "--limit", "5",
    ])
    assert rc == 0


def test_pipeline_produces_all_stages(tmp_path, capsys):
    run_pipeline(tmp_path)
    out = capsys.readouterr().out
    assert "crawl: 60 requests" in out

    # virtual clock starts at 0 -> first hour of 1970-01-01
    assert (tmp_path / "01-01-1970" / "tweets-00 AM.txt").exists()
    assert (tmp_path / "01-01-1970-tweets-00 AM.json").exists()
    for name in ("builtin_lang", "builtin_country", "builtin_hashtag", "builtin_mention"):
        assert (tmp_path / "analysis" / f"{name}.csv").exists()
        pruned = (tmp_path / "pruned" / f"{name}.csv").read_text(encoding="utf-8")
        assert len(pruned.splitlines()) <= 6  # header + limit


def test_pipeline_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_pipeline(a)
    run_pipeline(b)
    capsys.readouterr()
    assert tree_digest(a) == tree_digest(b)


# tree_digest of a two-hour pipeline run, which writes two hour-files. A
# change that alters any byte of the crawl files, the processed JSON or the
# analysis and pruned CSVs fails here; one that means to must say so.
GOLDEN_DIGESTS = {
    7: "f2a97cf95f333c18b5545e4f4f3b78ac48f24c9c1d6de348030bbd3a043e317e",
    1009: "5cd4033db7c65766dc9373157607fc0bcf405d7c972997073c6a5d069a2b9326",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_DIGESTS))
def test_pipeline_output_matches_its_golden_digest(tmp_path, capsys, seed):
    assert main(["--data-dir", str(tmp_path), "--seed", str(seed),
                 "pipeline", "--duration", "2h", "--interval-ms", "64000"]) == 0
    assert capsys.readouterr().out.startswith("crawl: 113 requests, ")
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert tree_digest(tmp_path) == GOLDEN_DIGESTS[seed]


# The builtin digests above cover neither -regex tables nor key_asc pruning.
# These pin a two-hour seed-1009 pipeline with three -regex specs, and a
# key_asc prune of its hashtag table.
REGEX_SPECS = (
    "food: \\b(?:pizza|lunch|breakfast|coffee|vegan)\\b\n"
    "moods: (?i)\\b(?:tired|bored|excited)\\b\n"
    "handles: @[a-z]+\\d\n"
)
GOLDEN_REGEX_DIGEST = "75a2ab496fecde4bfdaa4aa67748e698a8abc36ef727b9b05922244b61b95ec8"
GOLDEN_KEY_ASC_DIGEST = "bf53758b375c47a78c06b8c1ebcdaeb1cac0cf2bfa73dc111a99d742f07b3744"


@pytest.fixture(scope="module")
def regex_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("regex_pipeline")
    spec_file = root / "extra.txt"
    spec_file.write_text(REGEX_SPECS, encoding="utf-8")
    data = root / "data"
    assert main(["--data-dir", str(data), "--seed", "1009", "pipeline", "--duration", "2h",
                 "--interval-ms", "64000", "-regex", str(spec_file)]) == 0
    return data


def test_regex_pipeline_output_matches_its_golden_digest(regex_pipeline, capsys):
    for name in ("food", "moods", "handles"):
        table = regex_pipeline / "analysis" / f"{name}.csv"
        assert len(table.read_text(encoding="utf-8").splitlines()) > 2
    assert tree_digest(regex_pipeline) == GOLDEN_REGEX_DIGEST


def test_key_order_prune_matches_its_golden_digest(regex_pipeline, tmp_path, capsys):
    out = tmp_path / "pruned"
    out.mkdir()
    assert main(["prune", "--in", str(regex_pipeline / "analysis" / "builtin_hashtag.csv"),
                 "--out", str(out / "builtin_hashtag.csv"),
                 "--order", "key_asc", "--limit", "7"]) == 0
    assert len((out / "builtin_hashtag.csv").read_text(encoding="utf-8").splitlines()) == 8
    assert tree_digest(out) == GOLDEN_KEY_ASC_DIGEST


def test_pipeline_honors_regex_specs(tmp_path, capsys):
    spec_file = tmp_path / "extra.txt"
    spec_file.write_text("greets: (?i)hello\n", encoding="utf-8")
    data = tmp_path / "data"
    rc = main([
        "--data-dir", str(data), "--seed", "7",
        "pipeline", "--duration", "1m", "-regex", str(spec_file),
    ])
    assert rc == 0
    assert (data / "analysis" / "greets.csv").exists()


@pytest.mark.parametrize("option,content,message", [
    ("-regex", "broken: (\n", "bad.txt:1: bad pattern"),
    ("--gazetteer", "Atlantis\n", "bad.txt:1: expected city,country"),
    ("--limit", None, "limit must be at least 1"),  # takes 0, not a file
])
def test_pipeline_rejects_a_bad_input_before_it_crawls(tmp_path, capsys, monkeypatch,
                                                        option, content, message):
    value = "0"
    if content is not None:
        value = tmp_path / "bad.txt"
        value.write_text(content, encoding="utf-8")
    monkeypatch.setattr(tweetpipe.cli, "run_crawl", lambda *a: pytest.fail("crawl started"))
    data = tmp_path / "data"
    assert main(["--data-dir", str(data), "--seed", "7",
                 "pipeline", "--duration", "1h", option, str(value)]) == 1
    assert message in capsys.readouterr().err
    assert not data.exists()


def assert_pipeline_matches_the_stage_commands(tmp_path, *clock_args):
    piped = tmp_path / "piped"
    staged = tmp_path / "staged"
    assert main(["--data-dir", str(piped), "--seed", "7", *clock_args,
                 "pipeline", "--duration", "2m"]) == 0
    shutil.copytree(piped / "01-01-1970", staged / "01-01-1970")
    assert main(["--data-dir", str(staged), "process"]) == 0
    processed = sorted(str(p) for p in staged.glob("*.json"))
    assert processed
    assert main(["--data-dir", str(staged), "analyze", "--in", *processed]) == 0
    (staged / "pruned").mkdir()
    for table in sorted((staged / "analysis").glob("*.csv")):
        assert main(["prune", "--in", str(table), "--out", str(staged / "pruned" / table.name)]) == 0

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    piped_files = files(piped)
    assert any(name.startswith("pruned/") for name in piped_files)
    assert files(staged) == piped_files
    return processed


def test_pipeline_matches_the_stage_commands(tmp_path, capsys):
    assert_pipeline_matches_the_stage_commands(tmp_path)


def test_pipeline_matches_the_stage_commands_across_an_hour(tmp_path, capsys):
    # One minute before 01:00, so the crawl writes two hour-files and the
    # pipeline adds up two files' counts.
    processed = assert_pipeline_matches_the_stage_commands(tmp_path, "--virtual-clock", "3540000")
    assert len(processed) == 2


def test_pipeline_holds_one_hour_file_of_records_at_a_time(tmp_path, capsys, monkeypatch):
    real_process_file = tweetpipe.cli.process_file
    earlier: list[weakref.ref] = []
    alive_at_call: list[int] = []

    def process_file(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in earlier))
        records, skipped = real_process_file(*args, **kwargs)
        earlier.extend(weakref.ref(r) for r in records)
        return records, skipped

    monkeypatch.setattr(tweetpipe.cli, "process_file", process_file)
    assert main(["--data-dir", str(tmp_path), "--seed", "7",
                 "pipeline", "--duration", "3h", "--interval-ms", "600000"]) == 0
    assert "process: 3 files" in capsys.readouterr().out
    assert len(alive_at_call) == 3 and earlier
    # Every earlier file's records are gone when the next file is processed.
    assert alive_at_call == [0, 0, 0]


def test_analyze_cli_adds_up_several_files(tmp_path, capsys):
    assert main(["--data-dir", str(tmp_path / "data"), "--seed", "7", "--virtual-clock", "3540000",
                 "pipeline", "--duration", "3m"]) == 0
    paths = sorted(str(p) for p in (tmp_path / "data").glob("*.json"))
    assert len(paths) == 2
    spec_file = tmp_path / "extra.txt"
    spec_file.write_text("greets: (?i)hello\nwords: \\b[a-z]{5}\\b\n", encoding="utf-8")
    out = tmp_path / "per_file"
    assert main(["analyze", "--in", *paths, "--out", str(out), "-regex", str(spec_file)]) == 0

    whole = tmp_path / "whole"
    records = [r for path in paths for r in read_processed_file(path)]
    results = analyze(records, [*BUILTIN_SPECS, *load_regex_specs(spec_file)])
    for name, counts in results.items():
        write_csv(name, sort_rows(counts), whole)
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in whole.iterdir())
    for table in whole.iterdir():
        assert (out / table.name).read_bytes() == table.read_bytes()


# ------------------------------------------------------- crawl via binary


def test_mock_serve_and_crawl_subprocesses(tmp_path):
    serve = subprocess.Popen(
        [sys.executable, "-m", "tweetpipe", "--seed", "42", "mock-serve"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, bufsize=1,
    )
    try:
        banner = serve.stdout.readline().strip()
        assert banner.startswith("serving mock search api at http://")
        url = banner.rsplit(" ", 1)[-1]
        crawl = subprocess.run(
            [
                sys.executable, "-m", "tweetpipe",
                "--data-dir", str(tmp_path), "--virtual-clock", "0",
                "crawl", "--endpoint", url, "--max-requests", "3",
            ],
            capture_output=True, text=True, timeout=120,
        )
        assert crawl.returncode == 0, crawl.stderr
        assert "requests=3" in crawl.stdout
        assert "tweets_seen=300" in crawl.stdout
        assert (tmp_path / "01-01-1970" / "tweets-00 AM.txt").exists()
    finally:
        serve.terminate()
        serve.wait(timeout=10)
        serve.stdout.close()


def test_cli_imports_only_the_standard_library_for_http():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, tweetpipe.cli, tweetpipe.gateway; "
         "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_http_stack():
    # Every command pays for the CLI's imports; only the mock server, the
    # crawl and HTTP sinks load these, when they run.
    stack = ["email", "http.client", "http.server", "ssl", "urllib.request"]
    probe = subprocess.run(
        [sys.executable, "-c",
         f"import sys, tweetpipe.cli; print(sorted(set({stack!r}) & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


# ------------------------------------------------- analyze / prune / misc


def write_processed(path, langs=("en", "en", "hi")):
    records = [
        ProcessedTweet(
            creation_date="Sat Sep 07 20:14:03 +0000 2019",
            id=str(i),
            lang=lang,
            location="Delhi, India",
            name="Asha Rao",
            username="asha_rao",
            text=f"OT tweet {i} #tag",
            country="India",
            city="Delhi",
        )
        for i, lang in enumerate(langs)
    ]
    path.write_text(json.dumps([vars(r) for r in records]), encoding="utf-8")


def test_analyze_cli(tmp_path, capsys):
    in_file = tmp_path / "in.json"
    write_processed(in_file)
    out_dir = tmp_path / "analysis"
    rc = main([
        "--data-dir", str(tmp_path),
        "analyze", "--in", str(in_file), "--out", str(out_dir),
    ])
    assert rc == 0
    content = (out_dir / "builtin_lang.csv").read_text(encoding="utf-8")
    assert content == "key,count\nen,2\nhi,1\n"


SECRET_RECORD = {"creation_date": "Sat Sep 07 20:14:03 +0000 2019", "id": "4242424242",
                 "lang": "xx", "location": "Secret Street", "name": "Secret Name",
                 "username": "secret_handle", "text": "OT secret words", "country": "India",
                 "city": "Delhi"}
FIELDS = "creation_date, id, lang, location, name, username, text, country, city"


@pytest.mark.parametrize("content,message", [
    # cut inside the record's fourth line
    (json.dumps([SECRET_RECORD], indent=2)[:75].encode(),
     ":4: Unterminated string starting at column 11"),
    (json.dumps([SECRET_RECORD, "OT secret words"]).encode(),
     f": record 1 is not an object of the fields {FIELDS}"),
    (json.dumps([{k: v for k, v in SECRET_RECORD.items() if k != "username"}]).encode(),
     f": record 0 is not an object of the fields {FIELDS}"),
    (json.dumps([{**SECRET_RECORD, "country": None}]).encode(),
     ": record 0: a city match implies its country"),
    (json.dumps(SECRET_RECORD).encode(), ": not a JSON array of records"),
    (b'[{"text": "OT secret \xff"}]', ": not valid UTF-8"),
    (json.dumps([SECRET_RECORD, {**SECRET_RECORD, "text": None}]).encode(),
     ": record 1: text is not a string"),
    (json.dumps([{**SECRET_RECORD, "id": 4242424242}]).encode(), ": record 0: id is not a string"),
    (json.dumps([{**SECRET_RECORD, "country": ["India"]}]).encode(),
     ": record 0: country is not a string or null"),
], ids=["syntax", "not-an-object", "missing-field", "city-without-country", "not-an-array",
        "not-utf8", "text-null", "id-number", "country-list"])
@pytest.mark.parametrize("command", ["analyze", "gateway"])
def test_a_malformed_processed_file_is_named_in_the_error(tmp_path, capsys, command, content,
                                                          message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_processed(good)
    bad.write_bytes(content)
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    args = {"analyze": ["analyze", "--in", str(good), str(bad), str(good)],
            "gateway": ["gateway", "--in", str(bad), "--registry", str(registry)]}[command]
    assert main(["--data-dir", str(tmp_path / "data"), *args]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}{message}\n"
    assert not any(str(value) in err for value in SECRET_RECORD.values())
    assert not (tmp_path / "data" / "vault.jsonl").exists()  # no author was enrolled


def test_prune_cli(tmp_path):
    in_csv = tmp_path / "in.csv"
    in_csv.write_text("key,count\na,5\nb,9\nc,1\n", encoding="utf-8")
    out_csv = tmp_path / "out.csv"
    rc = main([
        "--data-dir", str(tmp_path),
        "prune", "--in", str(in_csv), "--out", str(out_csv), "--limit", "2",
    ])
    assert rc == 0
    assert out_csv.read_text(encoding="utf-8") == "key,count\nb,9\na,5\n"


def test_prune_cli_creates_the_out_directory(tmp_path, capsys):
    in_csv = tmp_path / "in.csv"
    in_csv.write_text("key,count\na,5\nb,9\n", encoding="utf-8")
    out_csv = tmp_path / "new" / "deeper" / "x.csv"
    assert main(["prune", "--in", str(in_csv), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().err == ""
    assert out_csv.read_text(encoding="utf-8") == "key,count\nb,9\na,5\n"
    assert os.listdir(out_csv.parent) == ["x.csv"]


def test_gateway_cli_is_deterministic_with_seed(tmp_path, capsys):
    in_file = tmp_path / "in.json"
    write_processed(in_file)
    registry = tmp_path / "registry.txt"
    registry.write_text(
        "ecommerce: sinks/ecommerce\n"
        "demographic_social: sinks/demographic_social\n"
        "food: sinks/food\n"
        "travel: sinks/travel\n",
        encoding="utf-8",
    )

    vaults = []
    for sub in ("a", "b"):
        data = tmp_path / sub
        rc = main([
            "--data-dir", str(data), "--seed", "11", "--virtual-clock", "0",
            "gateway", "--in", str(in_file), "--registry", str(registry),
        ])
        assert rc == 0
        vaults.append((data / "vault.jsonl").read_text(encoding="utf-8"))
        assert (data / "ledger.jsonl").exists()
        assert (data / "sinks" / "demographic_social" / "bundles.jsonl").exists()
    assert vaults[0] == vaults[1]
    out = capsys.readouterr().out
    assert "records=3" in out
    assert "bundles_dispatched=3" in out


def test_gateway_rejects_a_bad_retention_before_it_enrols(tmp_path, capsys):
    in_file = tmp_path / "in.json"
    write_processed(in_file)
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["--data-dir", str(data), "--seed", "11", "--virtual-clock", "0",
                 "gateway", "--retention-days", "0",
                 "--in", str(in_file), "--registry", str(registry)]) == 1
    assert "retention_days must be at least 1" in capsys.readouterr().err
    assert not data.exists()  # no vault, ledger or sink file


def test_gateway_cli_scrubs_authors_who_tweet_later(tmp_path, capsys):
    # record 1 mentions the author of record 2; the gateway sees record 1 first
    feed = [
        ProcessedTweet(
            creation_date="Sat Sep 07 20:14:03 +0000 2019", id=str(9_100_000_000_000_000_000 + i),
            lang="en", location="Delhi, India", name=name, username=username, text=text,
            country="India", city="Delhi",
        )
        for i, (username, name, text) in enumerate([
            ("asha_rao", "Asha Rao", "OT lunch with @bena_kapoor today"),
            ("bena_kapoor", "Bena Kapoor", "OT sushi tonight"),
        ])
    ]
    in_file = tmp_path / "in.json"
    in_file.write_text(json.dumps([vars(r) for r in feed]), encoding="utf-8")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    rc = main([
        "--data-dir", str(tmp_path), "--seed", "11", "--virtual-clock", "0",
        "gateway", "--no-fsync", "--in", str(in_file), "--registry", str(registry),
    ])
    assert rc == 0
    assert "bundles_dispatched=2" in capsys.readouterr().out

    # criterion 07's scan: no identifier anywhere in the ledger or a sink file
    haystack = (tmp_path / "ledger.jsonl").read_text(encoding="utf-8")
    for bundle_file in (tmp_path / "sinks").rglob("bundles.jsonl"):
        haystack += bundle_file.read_text(encoding="utf-8")
    leaks = [ident for r in feed for ident in (r.username, r.name, r.id) if ident in haystack]
    assert leaks == []


def write_feed(path, first_id: int, count: int):
    """count records of distinct authors, ids from first_id on."""
    feed = [
        ProcessedTweet(
            creation_date="Sat Sep 07 20:14:03 +0000 2019", id=str(n), lang="en",
            location="Delhi, India", name=f"Person {n}", username=f"user{n}",
            text="OT sushi tonight", country="India", city="Delhi",
        )
        for n in range(first_id, first_id + count)
    ]
    path.write_text(json.dumps([vars(r) for r in feed]), encoding="utf-8")
    return path


def test_seeded_gateway_runs_continue_one_vault(tmp_path, capsys):
    # More binds per run than the vault's 256 tries to mint a fresh code: a
    # second run that restarted the seeded stream could not mint one.
    feeds = [write_feed(tmp_path / f"feed{n}.json", 10_000 * (n + 1), 300) for n in range(2)]
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")

    def gateway(data, in_file):
        assert main(["--data-dir", str(data), "--seed", "7", "--virtual-clock", "0",
                     "gateway", "--no-fsync", "--in", str(in_file),
                     "--registry", str(registry)]) == 0, capsys.readouterr().err

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    for data in (tmp_path / "a", tmp_path / "b"):
        for in_file in feeds:
            gateway(data, in_file)
    assert files(tmp_path / "a") == files(tmp_path / "b")

    # The second run goes on with the stream: the codes of one run over
    # both feeds.
    both = tmp_path / "both.json"
    both.write_text(json.dumps([*json.loads(feeds[0].read_text(encoding="utf-8")),
                                *json.loads(feeds[1].read_text(encoding="utf-8"))]),
                    encoding="utf-8")
    gateway(tmp_path / "one", both)

    def codes(data):
        return [json.loads(line)["code"]
                for line in (data / "vault.jsonl").read_text(encoding="utf-8").splitlines()]

    assert len(set(codes(tmp_path / "a"))) == 600
    assert codes(tmp_path / "a") == codes(tmp_path / "one")


def test_categories_routed_to_one_directory_share_its_sink_file(tmp_path, capsys):
    texts = ("OT sushi and a flight", "OT deal on a hotel", "OT birthday party",
             "OT pizza order", "OT plain words")
    in_file = tmp_path / "in.json"
    in_file.write_text(json.dumps([vars(ProcessedTweet(
        creation_date="Sat Sep 07 20:14:03 +0000 2019", id=str(n), lang="en",
        location="Delhi, India", name=f"Person {n}", username=f"user{n}",
        text=texts[n % len(texts)], country="India", city="Delhi")) for n in range(200)]),
        encoding="utf-8")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/shared\n" for c in CATEGORIES), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["--data-dir", str(data), "--seed", "7", "--virtual-clock", "0", "gateway",
                 "--in", str(in_file), "--registry", str(registry)]) == 0
    dispatched = int(capsys.readouterr().out.split("bundles_dispatched=")[1].split()[0])
    lines = (data / "sinks" / "shared" / "bundles.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == dispatched > 200
    assert sorted({json.loads(line)["category"] for line in lines}) == sorted(CATEGORIES)
    assert main(["--data-dir", str(data), "ledger", "verify"]) == 0
    assert capsys.readouterr().out == f"entries={dispatched}\n"


# Writes one line to the ledger or vault at a path, says so, and keeps the
# log open until its stdin closes.
HOLDER = """
import sys
from tweetpipe.gateway import Vault
from tweetpipe.ledger import ComplianceLedger

kind, path = sys.argv[1:]
if kind == "ledger":
    log = ComplianceLedger(path)
    log.record("breach_notice", "ab" * 16)
else:
    log = Vault(path)
    log.register("holder:1")
    log.sync()
print("holding", flush=True)
sys.stdin.read()
log.close()
"""


@pytest.mark.parametrize("held", ["ledger", "vault"])
def test_a_held_ledger_or_vault_refuses_a_second_writer(tmp_path, capsys, held):
    in_file = tmp_path / "in.json"
    write_processed(in_file)
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    path = data / f"{held}.jsonl"
    gateway = ["--data-dir", str(data), "gateway", "--in", str(in_file),
               "--registry", str(registry)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    # Leaving the block closes the holder's stdin, and waits for it to exit.
    with subprocess.Popen([sys.executable, "-c", HOLDER, held, str(path)], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as holder:
        assert holder.stdout.readline() == "holding\n"
        in_use = f"error: {path}: in use by another process\n"
        assert main(gateway) == 1
        assert capsys.readouterr().err == in_use
        if held == "ledger":
            # refused before it enrolled anyone
            assert not (data / "vault.jsonl").exists()
            assert main(["--data-dir", str(data), "ledger", "breach", "--codes", "cd" * 16]) == 1
            assert capsys.readouterr().err == in_use
            # a report takes no lock
            assert main(["--data-dir", str(data), "ledger", "report", "--code", "ab" * 16]) == 0
            assert "breach notification (entry 1)" in capsys.readouterr().out
        else:
            # refused before it made a ledger
            assert not (data / "ledger.jsonl").exists()
    assert holder.returncode == 0
    entries = 1 if held == "ledger" else 0
    assert main(["--data-dir", str(data), "ledger", "verify"]) == 0
    assert capsys.readouterr().out == f"entries={entries}\n"
    # The lock went with its holder.
    assert main(gateway) == 0
    assert main(["--data-dir", str(data), "ledger", "verify"]) == 0
    assert capsys.readouterr().out.endswith(f"entries={entries + 3}\n")


def test_a_held_vault_refuses_a_gateway_whose_authors_are_all_enrolled(tmp_path, capsys):
    # The run would bind no one, yet it opens the vault with the ledger.
    in_file = tmp_path / "in.json"
    write_processed(in_file)
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    data = tmp_path / "data"
    gateway = ["--data-dir", str(data), "gateway", "--in", str(in_file),
               "--registry", str(registry)]
    assert main(gateway) == 0
    capsys.readouterr()
    path = data / "vault.jsonl"
    ledger = (data / "ledger.jsonl").read_bytes()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    with subprocess.Popen([sys.executable, "-c", HOLDER, "vault", str(path)], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as holder:
        assert holder.stdout.readline() == "holding\n"
        assert main(gateway) == 1
        assert capsys.readouterr().err == f"error: {path}: in use by another process\n"
        assert (data / "ledger.jsonl").read_bytes() == ledger
    assert holder.returncode == 0
    assert main(gateway) == 0
    assert main(["--data-dir", str(data), "ledger", "verify"]) == 0
    assert capsys.readouterr().out.endswith("entries=6\n")


# Appends one line to a line file, says so, and keeps the file open until
# its stdin closes.
LINE_HOLDER = """
import sys
from tweetpipe.ledger import LineLog

log = LineLog(sys.argv[1])
log.append(b"held\\n")
print("holding", flush=True)
sys.stdin.read()
log.close()
"""


def hold_line_file(path) -> subprocess.Popen:
    """A process that holds path as LineLog's one writer until its stdin
    closes; leaving its block closes stdin and waits for it to exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    holder = subprocess.Popen([sys.executable, "-c", LINE_HOLDER, str(path)], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert holder.stdout.readline() == "holding\n"
    return holder


def test_a_held_sink_file_refuses_a_second_writer(tmp_path, capsys):
    in_file = tmp_path / "in.json"
    write_processed(in_file)  # three records, all demographic_social
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    out, data = tmp_path / "out", tmp_path / "data"
    sink = out / "sinks" / "demographic_social" / "bundles.jsonl"
    # Another process, such as a gateway with its own --data-dir, writes
    # the sink file this gateway's --out shares.
    gateway = ["--data-dir", str(data), "gateway", "--in", str(in_file),
               "--registry", str(registry), "--out", str(out)]
    with hold_line_file(sink) as holder:
        assert main(gateway) == 1
        assert capsys.readouterr().err == f"error: {sink}: in use by another process\n"
    assert holder.returncode == 0
    assert sink.read_bytes() == b"held\n"
    # Refused at its first delivery: the group's disclosures stand, each
    # with a delivery_failed entry.
    assert main(["--data-dir", str(data), "ledger", "verify"]) == 0
    assert capsys.readouterr().out == "entries=6\n"
    events = [json.loads(line)["event"] for line in (data / "ledger.jsonl").read_text(
        encoding="utf-8").splitlines()]
    assert events == ["disclosure"] * 3 + ["delivery_failed"] * 3
    # The lock went with its holder.
    assert main(gateway) == 0
    assert len(sink.read_bytes().splitlines()) == 4


def test_a_held_crawl_file_refuses_a_second_crawl(tmp_path, capsys):
    out = tmp_path / "out"
    hour_file = out / "01-01-1970" / "tweets-00 AM.txt"
    with MockFirehoseServer(FirehoseEngine(seed=42)) as server:
        crawl = ["--virtual-clock", "0", "crawl", "--endpoint", server.url,
                 "--out", str(out), "--max-requests", "1"]
        with hold_line_file(hour_file) as holder:
            assert main(crawl) == 1
            assert capsys.readouterr().err == f"error: {hour_file}: in use by another process\n"
        assert holder.returncode == 0
        assert hour_file.read_bytes() == b"held\n"
        assert [p.name for p in out.rglob("*") if p.is_file()] == [hour_file.name]
        # The lock went with its holder.
        assert main(crawl) == 0
    assert len(hour_file.read_bytes().splitlines()) > 1


# tree_digest of a seeded gateway run over a seed-7 one-minute pipeline
# feed: the vault, the ledger and the four sink files. A change that
# alters any of their bytes, or the counts gateway prints, fails here.
GOLDEN_GATEWAY_DIGEST = "593ec3bc98c124bb4330182245011a76e18d55860c8e4ce003b29f7c0ba8fe57"


def test_gateway_output_matches_its_golden_digest(tmp_path, capsys):
    feed = tmp_path / "feed"
    assert main(["--data-dir", str(feed), "--seed", "7",
                 "pipeline", "--duration", "1m", "--interval-ms", "2000"]) == 0
    (in_file,) = feed.glob("*.json")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    data = tmp_path / "gw"
    capsys.readouterr()
    assert main(["--data-dir", str(data), "--seed", "11", "--virtual-clock", "0",
                 "gateway", "--no-fsync", "--in", str(in_file), "--registry", str(registry)]) == 0
    assert capsys.readouterr().out.replace(str(data), "DATA") == (
        "records=2338\nbundles_dispatched=5989\n"
        "vault=DATA/vault.jsonl\nledger=DATA/ledger.jsonl\n")
    scrubbed = sum(line.count("***") for path in (data / "sinks").rglob("bundles.jsonl")
                   for line in path.read_text(encoding="utf-8").splitlines())
    assert scrubbed > 0  # the digest covers scrubbed text too
    assert tree_digest(data) == GOLDEN_GATEWAY_DIGEST


# The mock's text is all ASCII and the bundled rules are all ASCII words,
# so the digest above never leaves the gateway's fast paths. These records
# and rules do: texts with 'İ' (which lower() expands), 'ſ' and the Kelvin
# sign (which match 's' and 'k' case-insensitively), 'ß', an emoji, quotes,
# a backslash and a tab; other authors' handles and display names in mixed
# case; a record without a country; keywords with a space, a hyphen and a
# non-ASCII letter.
FALLBACK_RECORDS = [
    ("anna_banana", "Anna Maria", "100001", "de", "DE",
     'Lunch with @Bob_Builder at the "Pizza" place \\o/ \U0001f355 #foodie'),
    ("bob_builder", "Bob Builder", "100002", "tr", "TR",
     "\u017fhopping trip to \u0130stanbul with ANNA_BANANA\tand anna maria"),
    ("kelvin_kat", "Kat Kelvin", "100003", "en", "GB",
     "The \u212aelvin_\u212aAT sign says deals, 100% off \u2014 buy now, then take-out"),
    ("grossfan", "Gro\u00df Stra\u00dfe", "100004", "de", None,
     "Weekend in der Stra\u00dfe with gro\u00df stra\u00dfe: ice cream, Ice Cream and sushi-bar"),
    ("ascii_only", "Plain Writer", "100005", "en", "US",
     "ICE CREAM at the airport with BOB BUILDER and Kat kelvin; deal_of_the_day deals2 Checkout!"),
    ("mixed_CASE", "Some One", "100006", "en", "US",
     "\u0130\u0130\u0130 pi\u017f\u017fa 'quoted' \"double\" back\\slash tab\tend SOME ONE 100003"),
]
FALLBACK_RULES = (
    "ecommerce: buy|shop|deal|take-out\n"
    "food: lunch|ice cream|sushi|pizza\n"
    "travel: trip|airport|stra\u00dfe|\u0130stanbul\n"
    "demographic_social:\n"
)
# tree_digest of a seeded gateway run over FALLBACK_RECORDS, with the rules
# above and with the bundled ones.
GOLDEN_FALLBACK_DIGESTS = {
    "default": "960f12f935cf3948e062340ab54bf908e04648855a35c926401ea7f2e9c0cfe7",
    "rules": "066f7544f9a6cec4e72b0b83b7b29177959ee4459c6def32c17508468dc98fc9",
}


@pytest.mark.parametrize("rules", sorted(GOLDEN_FALLBACK_DIGESTS))
def test_gateway_fallback_paths_match_their_golden_digest(tmp_path, capsys, rules):
    in_file = tmp_path / "feed.json"
    in_file.write_text(json.dumps([
        {"creation_date": f"Thu Jan 01 00:00:0{i} +0000 1970", "id": tweet_id, "lang": lang,
         "location": "somewhere", "name": name, "username": username, "text": text,
         "country": country, "city": None}
        for i, (username, name, tweet_id, lang, country, text) in enumerate(FALLBACK_RECORDS)
    ], ensure_ascii=False), encoding="utf-8")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    args = ["--in", str(in_file), "--registry", str(registry)]
    if rules == "rules":
        rules_file = tmp_path / "rules.txt"
        rules_file.write_text(FALLBACK_RULES, encoding="utf-8")
        args += ["--rules", str(rules_file)]
    data = tmp_path / "gw"
    assert main(["--data-dir", str(data), "--seed", "11", "--virtual-clock", "0",
                 "gateway", *args]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"records={len(FALLBACK_RECORDS)}"
    assert tree_digest(data) == GOLDEN_FALLBACK_DIGESTS[rules]


def test_ledger_cli_breach_then_report(tmp_path, capsys):
    code = "ab" * 16
    rc = main([
        "--data-dir", str(tmp_path), "--virtual-clock", "0",
        "ledger", "breach", "--codes", code,
    ])
    assert rc == 0
    rc = main([
        "--data-dir", str(tmp_path),
        "ledger", "report", "--code", code,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "breach_notices=1" in out
    assert f"Transparency report for {code}" in out
    assert "breach notification" in out


def imported_modules(*args) -> tuple[set[str], str]:
    """The modules a `tweetpipe` process with args imports, and its stdout."""
    probe = subprocess.run([sys.executable, "-X", "importtime", "-m", "tweetpipe", *args],
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    modules = {line.rsplit("|", 1)[1].strip() for line in probe.stderr.splitlines()
               if line.startswith("import time:")}
    return modules, probe.stdout


def test_ledger_commands_load_no_stage_module(tmp_path):
    stages = {f"tweetpipe.{name}" for name in (
        "crawler", "firehose", "codec", "processor", "analyzer", "gateway", "mockserver")}
    code = "ab" * 16
    common = ["--data-dir", str(tmp_path), "--virtual-clock", "0", "ledger"]
    for command, shown in ((["breach", "--codes", code], "breach_notices=1\n"),
                           (["report", "--code", code], "breach notification"),
                           (["verify"], "entries=1\n")):
        modules, out = imported_modules(*common, *command)
        assert "tweetpipe.ledger" in modules  # the probe sees the package's imports
        assert sorted(stages & modules) == [], command
        assert shown in out


def test_ledger_report_creates_nothing(tmp_path, capsys):
    data = tmp_path / "missing"
    code = "cd" * 16
    assert main(["--data-dir", str(data), "ledger", "report", "--code", code]) == 0
    assert not data.exists()
    assert capsys.readouterr().out == (
        f"Transparency report for {code}\n"
        "Disclosures:\n  (none)\nErasures:\n  (none)\nBreach notices:\n  (none)\n"
    )
