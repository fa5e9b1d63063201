"""Audit step run as its own process: erase users, then remap recommendations.

    python3 bench/erase_remap.py --data-dir DIR --clock-ms T --plan PLAN.json --out RESULT.json

Opens DIR/vault.jsonl and DIR/ledger.jsonl the way the gateway does (ledger
fsync on), calls ``PrivacyGateway.erase_user`` for each user key in the
plan's "erase" list, then ``PrivacyGateway.remap`` on one recommendation per
code in its "remap" list. RESULT.json maps each erased user key to its code
and each remapped code to the user key it resolved to, or null when it no
longer resolves. The benchmark checks the result; nothing here prints
identifiers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="erase_remap")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--clock-ms", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from tweetpipe.clock import VirtualClock
    from tweetpipe.gateway import PrivacyGateway, Recommendation, UnknownCodeError, Vault
    from tweetpipe.ledger import ComplianceLedger

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    clock = VirtualClock(start_ms=args.clock_ms)
    erased: dict[str, str] = {}
    remapped: dict[str, str | None] = {}
    with Vault(os.path.join(args.data_dir, "vault.jsonl"), clock=clock) as vault, \
            ComplianceLedger(os.path.join(args.data_dir, "ledger.jsonl"), clock=clock) as ledger:
        gateway = PrivacyGateway(vault, ledger)
        for user_key in plan["erase"]:
            erased[user_key] = gateway.erase_user(user_key).code
        for code in plan["remap"]:
            try:
                remapped[code], _item = gateway.remap(
                    Recommendation(code=code, category="food", item="item-" + code[:8])
                )
            except UnknownCodeError:
                remapped[code] = None
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"erased": erased, "remap": remapped}, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
