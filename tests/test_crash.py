"""Crash tests: a gateway run killed at any write leaves consistent state.

A driver process runs the CLI ``gateway`` with every ``LineLog.append``
and ``LineLog.sync`` counted, and calls ``os._exit`` right before or right
after the k-th of them, for every k. The state it leaves is then reopened
with the program's own readers.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from tweetpipe.gateway import CATEGORIES, Vault
from tweetpipe.ledger import EVENT_DISCLOSURE, ComplianceLedger, LineLog

ROOT = Path(__file__).resolve().parent.parent
KILLED = 17  # exit status of a killed driver

DRIVER = """
import os, sys
from tweetpipe import cli, gateway, ledger

gateway.DISPATCH_GROUP = 4
kill_at, when = int(sys.argv[1]), sys.argv[2]
calls = 0

def killing(fn):
    def counted(*args):
        global calls
        calls += 1
        if calls == kill_at and when == "before":
            os._exit(%d)
        fn(*args)
        if calls == kill_at and when == "after":
            os._exit(%d)
    return counted

ledger.LineLog.append = killing(ledger.LineLog.append)
ledger.LineLog.sync = killing(ledger.LineLog.sync)
status = cli.main(sys.argv[3:])
print(f"calls={calls}", file=sys.stderr)
sys.exit(status)
""" % (KILLED, KILLED)

TEXTS = ("OT sushi night", "OT flight booked, sushi after", "OT plain words",
         "OT great deal on shoes", "OT hotel by the beach", "OT birthday party",
         "OT pizza and a flight", "OT new recipe", "OT shop the sale",
         "OT museum tour", "OT lunch with @user0001", "OT order placed")


def write_inputs(tmp_path: Path) -> tuple[Path, Path]:
    feed = [{
        "creation_date": "Sat Sep 07 20:14:03 +0000 2019", "id": f"{9000 + i}", "lang": "en",
        "location": "Delhi, India", "name": f"Name {i:04d}", "username": f"user{i:04d}",
        "text": text, "country": "India", "city": None,
    } for i, text in enumerate(TEXTS)]
    in_file = tmp_path / "feed.json"
    in_file.write_text(json.dumps(feed), encoding="utf-8")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    return in_file, registry


def start(data: Path, in_file: Path, registry: Path, kill_at: int, when: str):
    args = [sys.executable, "-c", DRIVER, str(kill_at), when, "--seed", "7",
            "--data-dir", str(data), "gateway", "--in", str(in_file), "--registry", str(registry)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.Popen(args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def check_state(data: Path) -> None:
    """Every sink line has its disclosure, every disclosed code resolves in
    the vault, and the ledger reopens gapless."""
    ledger_path = data / "ledger.jsonl"
    disclosed: Counter = Counter()
    if ledger_path.exists():
        with ComplianceLedger(ledger_path) as ledger:
            assert ledger.verify() == len(ledger)  # raises on a sequence gap
            entries = [json.loads(line) for _n, line in LineLog(ledger_path).lines()]
            assert [e["seq"] for e in entries] == list(range(1, len(ledger) + 1))
        disclosed.update((e["subject_code"], e["beneficiary"])
                         for e in entries if e["event"] == EVENT_DISCLOSURE)
    delivered: Counter = Counter()
    for category in CATEGORIES:
        path = data / "sinks" / category / "bundles.jsonl"
        if path.exists():
            delivered.update((json.loads(line)["code"], f"sinks/{category}")
                             for _n, line in LineLog(path).lines())
    assert delivered - disclosed == Counter(), "a sink holds a bundle the ledger does not know"
    with Vault(data / "vault.jsonl") as vault:
        for code, _beneficiary in disclosed:
            vault.user_for(code)


def test_a_gateway_killed_at_any_write_leaves_consistent_state(tmp_path):
    in_file, registry = write_inputs(tmp_path)
    whole = start(tmp_path / "whole", in_file, registry, 0, "never")
    _out, err = whole.communicate(timeout=60)
    assert whole.returncode == 0, err
    calls = int(err.rsplit("calls=", 1)[1])
    check_state(tmp_path / "whole")

    kills = [(k, when) for k in range(1, calls + 1) for when in ("before", "after")]
    for wave in range(0, len(kills), 4):  # four drivers at a time
        running = [(k, when, start(tmp_path / f"{when}{k}", in_file, registry, k, when))
                   for k, when in kills[wave:wave + 4]]
        for k, when, proc in running:
            _out, err = proc.communicate(timeout=60)
            assert proc.returncode == KILLED, (k, when, err)
        for k, when, _proc in running:
            check_state(tmp_path / f"{when}{k}")
