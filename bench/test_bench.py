"""The benchmark's output checks accept the program's real outputs and reject
deliberately corrupted copies of them.

Outputs come from running the program at a small scale: a 1-minute
pipeline, a gateway over its feed and a short audit step.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import checks
import layers
from checks import CheckFailed
from harness import ROOT, Run
from workloads import GATEWAY, PROBE_AUDIT, PROBE_FEED

SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    run = Run(tmp_path_factory.mktemp("bench") / "work")
    crawl = PROBE_FEED.rep(run, SEED, traced=False)
    feed = PROBE_FEED.feed(crawl)
    gateway = GATEWAY.rep(run, SEED, feed, traced=False)
    plan = PROBE_AUDIT.plan(gateway.out, SEED)
    audit = PROBE_AUDIT.rep(run, plan, traced=False)
    return crawl, feed, gateway, plan, audit


def copy_rep(rep, tmp_path, stdout=None):
    """A copy of rep whose output tree can be corrupted."""
    out = tmp_path / "out"
    shutil.copytree(rep.out, out)
    children = list(rep.children)
    if stdout is not None:
        children[0] = dataclasses.replace(children[0], stdout=stdout)
    return dataclasses.replace(rep, out=out, children=children)


def rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def first_crawl_file(out):
    return checks.crawl_files(out)[0]


PIPELINE_CORRUPTIONS = {
    "crawl line lost": lambda out: rewrite(first_crawl_file(out), drop_last_line),
    "processed record lost": lambda out: rewrite(
        checks.processed_files(out)[0], lambda t: json.dumps(json.loads(t)[1:])),
    "analysis count off": lambda out: rewrite(
        out / "analysis" / "builtin_lang.csv",
        lambda t: t.replace(t.splitlines()[1], t.splitlines()[1] + "1", 1)),
    "pruned row missing": lambda out: rewrite(
        out / "pruned" / "builtin_hashtag.csv",
        lambda t: "key,count\n" + "".join(t.splitlines(keepends=True)[2:])),
    "extra crawl file": lambda out: shutil.copy(
        first_crawl_file(out), first_crawl_file(out).with_name("tweets-11 PM.txt")),
}


def test_pipeline_check_accepts_real_output(outputs):
    PROBE_FEED.check(outputs[0])


@pytest.mark.parametrize("corruption", sorted(PIPELINE_CORRUPTIONS))
def test_pipeline_check_rejects(outputs, tmp_path, corruption):
    rep = copy_rep(outputs[0], tmp_path)
    PIPELINE_CORRUPTIONS[corruption](rep.out)
    with pytest.raises(CheckFailed):
        PROBE_FEED.check(rep)


def test_pipeline_check_rejects_wrong_request_count(outputs, tmp_path):
    made, kept = checks.pipeline_counts(outputs[0].children[0].stdout)
    stdout = outputs[0].children[0].stdout.replace(f"{made} requests", f"{made - 1} requests")
    with pytest.raises(CheckFailed):
        PROBE_FEED.check(copy_rep(outputs[0], tmp_path, stdout=stdout))


def _sink(out):
    return out / "sinks" / "food" / "bundles.jsonl"


def _swap_codes(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first, second = json.loads(lines[0]), json.loads(lines[1])
    first["subject_code"], second["subject_code"] = second["subject_code"], "0" * 32
    return json.dumps(first) + "\n" + json.dumps(second) + "\n" + "".join(lines[2:])


GATEWAY_CORRUPTIONS = {
    "ledger entry lost": lambda out: rewrite(out / "ledger.jsonl", drop_last_line),
    "sequence gap": lambda out: rewrite(
        out / "ledger.jsonl", lambda t: t.replace('{"seq": 2,', '{"seq": 3,', 1)),
    "sink line lost": lambda out: rewrite(_sink(out), drop_last_line),
    "disclosure for another code": lambda out: rewrite(out / "ledger.jsonl", _swap_codes),
    "code missing from vault": lambda out: _unbind(out, checks.read_jsonl(_sink(out))[0]),
}


def _unbind(out, bundle) -> None:
    rewrite(out / "vault.jsonl", lambda t: "".join(
        line for line in t.splitlines(keepends=True) if json.loads(line)["code"] != bundle["code"]
    ))


def test_gateway_check_accepts_real_output(outputs):
    _crawl, feed, gateway, _plan, _audit = outputs
    assert GATEWAY.check(gateway, feed) >= 0


@pytest.mark.parametrize("corruption", sorted(GATEWAY_CORRUPTIONS))
def test_gateway_check_rejects(outputs, tmp_path, corruption):
    _crawl, feed, gateway, _plan, _audit = outputs
    rep = copy_rep(gateway, tmp_path)
    GATEWAY_CORRUPTIONS[corruption](rep.out)
    with pytest.raises(CheckFailed):
        GATEWAY.check(rep, feed)


def test_leak_scan_counts_whole_identifiers_only():
    feed = [{"username": "anna4", "id": "1000000000000000001", "name": "Ann Lee"},
            {"username": "bo12", "id": "1000000000000000002", "name": "Jo"}]

    def bundle(text):
        return {"payload": {"text": text}}

    bundles = [bundle("hi @ANNA4 there"), bundle("hi @anna42"), bundle("met ann lee today"),
               bundle("id 1000000000000000002"), bundle("jo said so"), bundle("@bo12!")]
    assert checks.count_leaked_bundles(feed, bundles) == 4


def test_audit_check_accepts_real_output(outputs):
    *_rest, plan, audit = outputs
    PROBE_AUDIT.check(audit, plan)


def _replace_child_stdout(rep, index, stdout):
    children = list(rep.children)
    children[index] = dataclasses.replace(children[index], stdout=stdout)
    return dataclasses.replace(rep, children=children)


def _edit_result(out, edit):
    path = out / "erase_remap.json"
    result = json.loads(path.read_text())
    edit(result)
    path.write_text(json.dumps(result))


def test_audit_check_rejects_report_missing_a_disclosure(outputs):
    *_rest, plan, audit = outputs
    report = audit.children[0].stdout
    line = next(text for text in report.splitlines() if "(entry " in text)
    with pytest.raises(CheckFailed):
        PROBE_AUDIT.check(_replace_child_stdout(audit, 0, report.replace(line + "\n", "")), plan)


def test_audit_check_rejects_non_consecutive_breach(outputs):
    *_rest, plan, audit = outputs
    index = len(plan.report_codes)
    stdout = audit.children[index].stdout
    seqs = stdout.split("seqs=")[1].split()[0].split(",")
    seqs[-1] = str(int(seqs[-1]) + 1)
    bad = stdout.replace(stdout.split("seqs=")[1].split()[0], ",".join(seqs))
    with pytest.raises(CheckFailed):
        PROBE_AUDIT.check(_replace_child_stdout(audit, index, bad), plan)


def test_audit_check_rejects_erased_code_that_resolves(outputs, tmp_path):
    *_rest, plan, audit = outputs
    rep = copy_rep(audit, tmp_path)
    erased_code = plan.binds[plan.erase[0]]
    _edit_result(rep.out, lambda r: r["remap"].__setitem__(erased_code, plan.erase[0]))
    with pytest.raises(CheckFailed):
        PROBE_AUDIT.check(rep, plan)


def test_audit_check_rejects_live_code_remapped_to_another_user(outputs, tmp_path):
    *_rest, plan, audit = outputs
    rep = copy_rep(audit, tmp_path)
    live_code = plan.binds[plan.live[0]]
    _edit_result(rep.out, lambda r: r["remap"].__setitem__(live_code, plan.live[1]))
    with pytest.raises(CheckFailed):
        PROBE_AUDIT.check(rep, plan)


def test_audit_check_rejects_lost_erasure_entry(outputs, tmp_path):
    *_rest, plan, audit = outputs
    rep = copy_rep(audit, tmp_path)
    rewrite(rep.out / "ledger.jsonl", drop_last_line)
    with pytest.raises(CheckFailed):
        PROBE_AUDIT.check(rep, plan)


def test_digest_tells_trees_apart(outputs, tmp_path):
    crawl = outputs[0]
    rep = copy_rep(crawl, tmp_path)
    assert checks.tree_digest(rep.out) == crawl.digest
    rewrite(first_crawl_file(rep.out), lambda t: t.replace("OT ", "RT ", 1))
    assert checks.tree_digest(rep.out) != crawl.digest


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "throughput_per_s"]
