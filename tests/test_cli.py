"""Command line interface tests."""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from tweetpipe.cli import main, parse_bool, parse_duration_ms
from tweetpipe.gateway import CATEGORIES
from tweetpipe.processor import ProcessedTweet


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


def test_pipeline_matches_the_stage_commands(tmp_path, capsys):
    piped = tmp_path / "piped"
    staged = tmp_path / "staged"
    assert main(["--data-dir", str(piped), "--seed", "7", "pipeline", "--duration", "2m"]) == 0
    shutil.copytree(piped / "01-01-1970", staged / "01-01-1970")
    assert main(["--data-dir", str(staged), "process"]) == 0
    processed = sorted(str(p) for p in staged.glob("*.json"))
    assert processed
    assert main(["--data-dir", str(staged), "analyze", "--in", *processed]) == 0
    (staged / "pruned").mkdir()
    for table in sorted((staged / "analysis").glob("*.csv")):
        assert main(["prune", "--in", str(table), "--out", str(staged / "pruned" / table.name)]) == 0
    capsys.readouterr()

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    piped_files = files(piped)
    assert any(name.startswith("pruned/") for name in piped_files)
    assert files(staged) == piped_files


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
