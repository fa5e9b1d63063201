"""Command line entry point.

One executable, one subcommand per stage: mock-serve, crawl, process,
analyze, prune, gateway, ledger, plus pipeline to run the four data
stages end to end against an in-process mock server under a virtual
clock. Usage errors exit 2 (argparse), runtime failures print a
diagnostic and exit 1.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import random
import re
import sys
import time
from collections import Counter
from typing import TYPE_CHECKING

from . import __version__
from .clock import SystemClock, VirtualClock
from .ledger import ComplianceLedger
from .pruner import DEFAULT_LIMIT, ORDER_COUNT_DESC, ORDERS, check_limit, prune

if TYPE_CHECKING:
    from .processor import Gazetteer

log = logging.getLogger(__name__)

# Each command imports the stage modules it runs, so that a `ledger`
# process loads none of them. These stage functions are also attributes of
# this module, imported on first access by __getattr__ (PEP 562) and then
# kept as globals, so a wrapper set on the name from outside (as
# bench/tracer.py sets one) replaces the function for every later call.
_STAGE_MODULES = {"run_crawl": "crawler", "process_file": "processor",
                  "analyze": "analyzer", "write_csv": "analyzer"}


def __getattr__(name: str):
    if name not in _STAGE_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_STAGE_MODULES[name]}", __package__)
    value = globals()[name] = getattr(module, name)
    return value


def _stage(name: str):
    """The stage function bound to name on this module now, wrapped or not."""
    return globals().get(name) or __getattr__(name)

_DURATION_RE = re.compile(r"(\d+)\s*(ms|s|m|h|d)?")
_DURATION_UNITS = {"ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}


def parse_duration_ms(text: str) -> int:
    """'500ms', '2s', '15m', '70h', '8d' or a bare millisecond count."""
    m = _DURATION_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"cannot parse duration: {text!r}")
    return int(m.group(1)) * _DURATION_UNITS[m.group(2) or "ms"]


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _make_clock(args):
    if args.virtual_clock is not None:
        return VirtualClock(start_ms=args.virtual_clock)
    return SystemClock()


def _seed(args) -> int:
    return args.seed if args.seed is not None else 0


def cmd_mock_serve(args) -> int:
    from .firehose import FirehoseEngine
    from .mockserver import MockFirehoseServer

    engine = FirehoseEngine(seed=_seed(args), duplicate_mode=args.duplicate_mode)
    server = MockFirehoseServer(engine, port=args.port)
    server.start()
    print(f"serving mock search api at {server.url}", flush=True)
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_crawl(args) -> int:
    from .crawler import CrawlConfig
    from .firehose import DEFAULT_APP_KEY, DEFAULT_APP_SECRET, Credentials

    cfg = CrawlConfig(
        endpoint=args.endpoint,
        creds=Credentials(app_key=DEFAULT_APP_KEY if args.key is None else args.key,
                          app_secret=DEFAULT_APP_SECRET if args.secret is None else args.secret),
        interval_ms=args.interval_ms,
        use_next=args.use_next,
        duration_ms=parse_duration_ms(args.duration) if args.duration else None,
        max_requests=args.max_requests,
        out_dir=args.out or args.data_dir,
    )
    run_crawl = _stage("run_crawl")
    stats = run_crawl(cfg, _make_clock(args))
    for key, value in vars(stats).items():
        print(f"{key}={value}")
    return 0


def _load_gazetteer_arg(args) -> Gazetteer:
    from .processor import Gazetteer, default_gazetteer, load_gazetteer

    if args.gazetteer:
        return Gazetteer(load_gazetteer(args.gazetteer))
    return default_gazetteer()


def _load_specs_arg(args) -> list:
    """The builtin analyses, then those of the -regex file if one is given."""
    from .analyzer import BUILTIN_SPECS, load_regex_specs

    return [*BUILTIN_SPECS, *(load_regex_specs(args.regex) if args.regex else ())]


# Stage helpers shared by the stage subcommands and pipeline. They look the
# stage functions up on this module when they run, so a wrapper installed on
# those names (as bench/tracer.py does) sees every stage call. Their inputs
# are loaded by the caller, so pipeline can fail on a bad one before it crawls.


def _process_stage(gazetteer: Gazetteer, in_dir, out_dir, counts: Counter):
    """Lazily process each crawl file under in_dir, yielding its records;
    adds the files, records and skipped lines to counts as it goes."""
    from .processor import find_crawl_files

    process_file = _stage("process_file")
    for path in find_crawl_files(in_dir):
        records, skipped = process_file(path, gazetteer, out_root=out_dir)
        counts.update(files=1, records=len(records), skipped=skipped)
        yield records
        del records  # release this file before the next one is processed


def _analyze_stage(specs: list, record_files, out_dir) -> list[tuple[str, list, str]]:
    """Run the analyses specs; returns (name, rows, csv path) per table.

    record_files yields one file's records at a time. Each is analyzed and
    dropped before the next is read; the counts add up across files and
    every table is sorted once at the end.
    """
    from .analyzer import sort_rows

    analyze, write_csv = _stage("analyze"), _stage("write_csv")
    totals: dict[str, Counter] = {spec.name: Counter() for spec in specs}
    for records in record_files:
        for name, counts in analyze(records, specs).items():
            totals[name].update(counts)
        del records  # release this file before the next one is processed
    tables = []
    for name, counts in totals.items():
        rows = sort_rows(counts)
        tables.append((name, rows, write_csv(name, rows, out_dir)))
    return tables


def _prune_stage(rows, limit: int, order: str, out_path) -> list:
    """Prune one analysis table and write the kept rows to out_path."""
    from .analyzer import write_rows

    pruned = prune(rows, limit, order)
    write_rows(out_path, pruned)
    return pruned


def cmd_process(args) -> int:
    counts = Counter()
    for records in _process_stage(_load_gazetteer_arg(args), args.in_dir or args.data_dir,
                                  args.out or args.data_dir, counts):
        del records  # release this file before the next one is processed
    print(f"files={counts['files']}")
    print(f"records={counts['records']}")
    print(f"skipped={counts['skipped']}")
    return 0


def cmd_analyze(args) -> int:
    from .processor import read_processed_file

    record_files = (read_processed_file(path) for path in args.in_files)
    out_dir = args.out or os.path.join(args.data_dir, "analysis")
    for name, rows, path in _analyze_stage(_load_specs_arg(args), record_files, out_dir):
        print(f"{name}: {len(rows)} keys -> {path}")
    return 0


def cmd_prune(args) -> int:
    from .analyzer import read_rows_csv

    rows = read_rows_csv(args.in_file)
    pruned = _prune_stage(rows, args.limit, args.order, args.out_file)
    print(f"{len(rows)} -> {len(pruned)} rows -> {args.out_file}")
    return 0


def cmd_gateway(args) -> int:
    from .gateway import CategoryRules, PrivacyGateway, ServiceRegistry, Vault
    from .processor import read_processed_file

    records = read_processed_file(args.in_file)
    rules = CategoryRules.load(args.rules) if args.rules else CategoryRules.default()
    out_dir = args.out or args.data_dir
    clock = _make_clock(args)
    rng = random.Random(args.seed) if args.seed is not None else None
    vault_path = args.vault or os.path.join(args.data_dir, "vault.jsonl")
    ledger_path = args.ledger or os.path.join(args.data_dir, "ledger.jsonl")
    with (
        ServiceRegistry.load(args.registry, base_dir=out_dir) as registry,
        Vault(vault_path, rng=rng, clock=clock) as vault,
        ComplianceLedger(ledger_path, clock=clock, fsync=not args.no_fsync) as ledger,
    ):
        gw = PrivacyGateway(vault, ledger, rules=rules, retention_days=args.retention_days)
        dispatched = gw.dispatch_feed(records, registry)
    print(f"records={len(records)}")
    print(f"bundles_dispatched={dispatched}")
    print(f"vault={vault_path}")
    print(f"ledger={ledger_path}")
    return 0


def cmd_ledger(args) -> int:
    path = args.ledger or os.path.join(args.data_dir, "ledger.jsonl")
    with ComplianceLedger(path, clock=_make_clock(args)) as ledger:
        if args.ledger_cmd == "report":
            print(ledger.transparency_report(args.code), end="")
        elif args.ledger_cmd == "verify":
            print(f"entries={ledger.verify()}")
        else:
            codes = [c.strip() for c in args.codes.split(",") if c.strip()]
            seqs = ledger.record_breach(codes)
            print(f"breach_notices={len(seqs)}")
            print(f"seqs={','.join(str(s) for s in seqs)}")
    return 0


def _mock_crawl_stage(args):
    """Crawl an in-process mock under a virtual clock; returns the stats.

    Nothing else holds the mock's engine, so its window of served tweets
    is freed when this returns, before any file is processed.
    """
    from .crawler import CrawlConfig
    from .firehose import FirehoseEngine
    from .mockserver import MockFirehoseServer

    run_crawl = _stage("run_crawl")
    clock = VirtualClock(start_ms=args.virtual_clock if args.virtual_clock is not None else 0)
    with MockFirehoseServer(FirehoseEngine(seed=_seed(args))) as server:
        cfg = CrawlConfig(
            endpoint=server.url,
            interval_ms=args.interval_ms,
            use_next=True,
            duration_ms=parse_duration_ms(args.duration),
            out_dir=args.data_dir,
        )
        return run_crawl(cfg, clock)


def cmd_pipeline(args) -> int:
    specs = _load_specs_arg(args)
    gazetteer = _load_gazetteer_arg(args)
    check_limit(args.limit)
    stats = _mock_crawl_stage(args)
    print(f"crawl: {stats.requests} requests, {stats.tweets_kept} records kept")

    processed = Counter()
    analysis_dir = os.path.join(args.data_dir, "analysis")
    pruned_dir = os.path.join(args.data_dir, "pruned")
    tables = _analyze_stage(
        specs, _process_stage(gazetteer, args.data_dir, args.data_dir, processed), analysis_dir)
    print(f"process: {processed['files']} files, {processed['records']} records")
    for name, rows, _path in tables:
        _prune_stage(rows, args.limit, ORDER_COUNT_DESC, os.path.join(pruned_dir, f"{name}.csv"))
    print(f"analyze: {len(tables)} analyses -> {analysis_dir}")
    print(f"prune: limit {args.limit} -> {pruned_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetpipe",
        description="Crawl, process, analyze and prune tweet data against a mock "
                    "search API, with a pseudonymizing gateway and audit ledger.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--data-dir", default="./data", help="root for data files (default ./data)")
    parser.add_argument("--seed", type=int, default=None, help="deterministic seed")
    parser.add_argument(
        "--virtual-clock", type=int, default=None, metavar="START_MS",
        help="run on a virtual clock starting at START_MS instead of real time",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mock-serve", help="serve the deterministic mock search API")
    p.add_argument("--port", type=int, default=0, help="port to bind (default: ephemeral)")
    p.add_argument("--duplicate-mode", action="store_true",
                   help="re-serve recent tweets on fast cursorless polls")
    p.set_defaults(func=cmd_mock_serve)

    p = sub.add_parser("crawl", help="run the rate-limited crawl loop")
    p.add_argument("--endpoint", required=True, help="base URL of the search API")
    p.add_argument("--key", default=None, help="app key (default: the mock's demo key)")
    p.add_argument("--secret", default=None, help="app secret (default: the mock's demo secret)")
    p.add_argument("--interval-ms", type=int, default=2000)
    p.add_argument("--use-next", type=parse_bool, default=True, metavar="BOOL",
                   help="follow pagination tokens (default true)")
    p.add_argument("--duration", default=None, help="crawl length, e.g. 500ms, 2s, 15m, 70h, 8d")
    p.add_argument("--max-requests", type=int, default=None)
    p.add_argument("--out", default=None, help="output root (default: --data-dir)")
    p.set_defaults(func=cmd_crawl)

    p = sub.add_parser("process", help="decode crawl files and detect locations")
    p.add_argument("--in", dest="in_dir", default=None, help="crawl tree root (default: --data-dir)")
    p.add_argument("--out", default=None, help="output root (default: --data-dir)")
    p.add_argument("--gazetteer", default=None, help="gazetteer CSV (default: bundled fixture)")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("analyze", help="run builtin and regex analyses to CSV")
    p.add_argument("--in", dest="in_files", nargs="+", required=True,
                   metavar="FILE.json", help="processed JSON files")
    p.add_argument("--out", default=None, help="CSV directory (default: <data-dir>/analysis)")
    p.add_argument("-regex", dest="regex", default=None, metavar="FILE",
                   help="file of 'name: pattern' analyses")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prune", help="sort an analysis CSV and keep the top entries")
    p.add_argument("--in", dest="in_file", required=True, metavar="FILE.csv")
    p.add_argument("--out", dest="out_file", required=True, metavar="FILE.csv")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.add_argument("--order", choices=tuple(ORDERS), default=ORDER_COUNT_DESC)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("gateway", help="pseudonymize records and dispatch category bundles")
    p.add_argument("--in", dest="in_file", required=True, metavar="FILE.json")
    p.add_argument("--rules", default=None, help="category keyword rules (default: bundled)")
    p.add_argument("--registry", required=True, help="'category: sink' registry file")
    p.add_argument("--out", default=None, help="base dir for directory sinks (default: --data-dir)")
    p.add_argument("--vault", default=None, help="vault file (default: <data-dir>/vault.jsonl)")
    p.add_argument("--ledger", default=None, help="ledger file (default: <data-dir>/ledger.jsonl)")
    p.add_argument("--retention-days", type=int, default=30)
    p.add_argument("--no-fsync", action="store_true",
                   help="skip the ledger fsync of each dispatch group (faster for bulk feeds, "
                        "at the cost of durability on power loss)")
    p.set_defaults(func=cmd_gateway)

    p = sub.add_parser("ledger", help="query, check or append to the compliance ledger")
    p.add_argument("--ledger", default=None, help="ledger file (default: <data-dir>/ledger.jsonl)")
    ledger_sub = p.add_subparsers(dest="ledger_cmd", required=True)
    lp = ledger_sub.add_parser("report", help="print a transparency report for one code")
    lp.add_argument("--code", required=True)
    lp.set_defaults(func=cmd_ledger)
    lp = ledger_sub.add_parser("verify", help="check every entry and the gapless sequence")
    lp.set_defaults(func=cmd_ledger)
    lp = ledger_sub.add_parser("breach", help="record breach notices for affected codes")
    lp.add_argument("--codes", required=True, help="comma-separated pseudonym codes")
    lp.set_defaults(func=cmd_ledger)

    p = sub.add_parser("pipeline", help="crawl, process, analyze and prune against an "
                                        "in-process mock under a virtual clock")
    p.add_argument("--duration", default="15m", help="virtual crawl length (default 15m)")
    p.add_argument("--interval-ms", type=int, default=2000)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT, help="prune limit")
    p.add_argument("--gazetteer", default=None)
    p.add_argument("-regex", dest="regex", default=None, metavar="FILE")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # CLI boundary: any module error exits 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        log.debug("unhandled error", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
