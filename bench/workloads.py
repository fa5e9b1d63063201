"""The benchmark's three workloads and the stages they are built from.

- pipeline: ``tweetpipe pipeline --duration 4h --interval-ms 64000``, 225
  pages over loopback HTTP spread over four hour-files. Loads the firehose,
  crawler, codec and processor; the gateway and ledger do nothing.
- gateway: set-up crawls a 3-minute feed (90 pages) with ``pipeline``; the
  timed command is ``tweetpipe gateway --no-fsync`` over it into four
  directory sinks. Loads scrub, categorization, vault registration, sink
  delivery and the ledger append. The per-entry fsync stays out of the
  timed command: on a shared disk its latency drifts by a third from one
  run to the next, more than any regression bound can absorb. The probe
  chain's gateway keeps it on, so ``ledger.fsync_us`` still has numbers.
- audit: set-up also runs that gateway once to leave a ledger and a
  vault. Each repetition copies them and runs ``ledger report`` per sampled
  code (one process each), one ``ledger breach`` and one ``erase_remap.py``
  process. Loads ledger replay and reports, a few fsynced appends, vault
  erasure and remap.

Repetitions are kept short so that a run holds several of them and the
reported medians ride out a shared machine's second-to-second swings in
CPU speed.

Set-up builds the package from source and makes every input with the
program itself. Repetitions use fresh directories and the same seed, so
their output trees must be byte-identical.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import CATEGORIES, CheckFailed, read_jsonl, require, tree_digest
from harness import Child, Run, build, percentile

SETUP_RUNS = 3
CLOCK_MS = 1_786_962_700_000  # virtual clock of gateway and ledger commands
HOUR_MS = 3_600_000
REGISTRY = "".join(f"{category}: sinks/{category}\n" for category in CATEGORIES)
_FAILURE_LINE = re.compile(
    r"^WARNING (tweetpipe\.crawler: page skipped|tweetpipe\.processor: )", re.MULTILINE
)


@dataclass
class Rep:
    """One repetition of a stage: its child processes and output tree."""

    children: list[Child]
    items: int          # records kept, bundles dispatched or reports printed
    attempted: int      # operations attempted, for failed_ratio
    failed: int         # operations failed or refused
    out: Path
    digest: str

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class PipelineStage:
    """``tweetpipe pipeline`` against the in-process mock on a virtual clock."""

    def __init__(self, duration: str, duration_ms: int, interval_ms: int):
        self.duration = duration
        self.interval_ms = interval_ms
        self.requests = duration_ms // interval_ms
        self.hours = -(-duration_ms // HOUR_MS)

    def rep(self, run: Run, seed: int, traced: bool) -> Rep:
        work = run.fresh_dir("pipeline")
        out = work / "data"
        child = run.spawn("pipeline", "tweetpipe", [
            "--seed", seed, "--data-dir", out, "pipeline",
            "--duration", self.duration, "--interval-ms", self.interval_ms,
        ], work, traced)
        requests, kept = checks.pipeline_counts(child.stdout)
        # Counted, never copied: crawler warnings can carry usernames.
        failed = len(_FAILURE_LINE.findall(child.stderr_path.read_text(errors="replace")))
        return Rep([child], items=kept, attempted=requests + kept, failed=failed,
                   out=out, digest=tree_digest(out))

    def check(self, rep: Rep) -> None:
        checks.check_pipeline(rep.out, rep.children[0].stdout, self.requests, self.hours)

    @staticmethod
    def feed(rep: Rep) -> Path:
        files = checks.processed_files(rep.out)
        require(len(files) == 1, f"feed crawl left {len(files)} processed files, expected 1")
        return files[0]


class GatewayStage:
    """``tweetpipe gateway`` over a processed feed into four directory sinks."""

    def __init__(self, fsync: bool):
        self.fsync = fsync

    def rep(self, run: Run, seed: int, feed: Path, traced: bool) -> Rep:
        work = run.fresh_dir("gateway")
        out = work / "out"
        out.mkdir()
        registry = work / "registry.txt"
        registry.write_text(REGISTRY, encoding="utf-8")
        args = ["--seed", seed, "--virtual-clock", CLOCK_MS, "--data-dir", out,
                "gateway", "--in", feed, "--registry", registry]
        child = run.spawn("gateway", "tweetpipe", args + ([] if self.fsync else ["--no-fsync"]),
                          work, traced)
        m = re.search(r"^bundles_dispatched=(\d+)$", child.stdout, re.MULTILINE)
        require(m is not None, "gateway printed no bundles_dispatched")
        dispatched = int(m.group(1))
        return Rep([child], items=dispatched, attempted=dispatched, failed=0,
                   out=out, digest=tree_digest(out))

    @staticmethod
    def check(rep: Rep, feed: Path) -> int:
        """Checks the outputs; returns the number of leaked bundles."""
        bundles = checks.check_gateway(feed, rep.out, rep.children[0].stdout)
        records = json.loads(Path(feed).read_text(encoding="utf-8"))
        return checks.count_leaked_bundles(records, bundles)


@dataclass
class AuditPlan:
    source: Path            # directory holding the set-up ledger.jsonl and vault.jsonl
    ledger: list[dict]
    binds: dict[str, str]   # user key -> code
    report_codes: list[str]
    breach_codes: list[str]
    erase: list[str]        # user keys to erase
    live: list[str]         # user keys whose codes must still remap


class AuditStage:
    """Reports, one breach notice batch, and erasure plus remap, on a copy
    of a set-up ledger and vault."""

    def __init__(self, reports: int, breach: int, erase: int, live: int):
        self.reports = reports
        self.breach = breach
        self.erase = erase
        self.live = live

    def plan(self, source: Path, seed: int) -> AuditPlan:
        ledger = read_jsonl(source / "ledger.jsonl")
        binds = {op["user_key"]: op["code"] for op in read_jsonl(source / "vault.jsonl")
                 if op["op"] == "bind"}
        rng = random.Random(seed)
        codes = rng.sample(sorted({e["subject_code"] for e in ledger}),
                           self.reports + self.breach)
        users = rng.sample(sorted(binds), self.erase + self.live)
        return AuditPlan(source, ledger, binds, codes[:self.reports], codes[self.reports:],
                         users[:self.erase], users[self.erase:])

    def rep(self, run: Run, plan: AuditPlan, traced: bool) -> Rep:
        work = run.fresh_dir("audit")
        out = work / "state"
        (out / "reports").mkdir(parents=True)
        for name in ("ledger.jsonl", "vault.jsonl"):
            shutil.copyfile(plan.source / name, out / name)
        common = ["--data-dir", out, "--virtual-clock", CLOCK_MS, "ledger"]
        reports = []
        for i, code in enumerate(plan.report_codes):
            child = run.spawn("report", "tweetpipe", common + ["report", "--code", code],
                              work, traced, check_rc=False)
            (out / "reports" / f"{i:03d}.txt").write_text(child.stdout, encoding="utf-8")
            reports.append(child)
        breach = run.spawn("breach", "tweetpipe",
                           common + ["breach", "--codes", ",".join(plan.breach_codes)],
                           work, traced, check_rc=False)
        remap = [plan.binds[u] for u in plan.erase + plan.live]
        (work / "plan.json").write_text(json.dumps({"erase": plan.erase, "remap": remap}),
                                        encoding="utf-8")
        erase = run.spawn("erase_remap", "erase_remap", [
            "--data-dir", out, "--clock-ms", CLOCK_MS,
            "--plan", work / "plan.json", "--out", out / "erase_remap.json",
        ], work, traced, check_rc=False)
        children = reports + [breach, erase]
        return Rep(children, items=len(reports), attempted=len(children),
                   failed=sum(c.rc != 0 for c in children), out=out, digest=tree_digest(out))

    @staticmethod
    def check(rep: Rep, plan: AuditPlan) -> None:
        *reports, breach, _erase = rep.children
        for code, child in zip(plan.report_codes, reports):
            checks.check_report(child.stdout, code, plan.ledger)
        checks.check_breach(breach.stdout, plan.breach_codes, len(plan.ledger))
        result_path = rep.out / "erase_remap.json"
        require(result_path.exists(), "erase_remap left no result")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        checks.check_erase_remap(result, plan.erase, plan.live, plan.binds,
                                 rep.out / "vault.jsonl")
        checks.check_ledger_tail(read_jsonl(rep.out / "ledger.jsonl"), len(plan.ledger),
                                 plan.breach_codes, [plan.binds[u] for u in plan.erase])


PIPELINE = PipelineStage("4h", 4 * HOUR_MS, 64_000)
FEED = PipelineStage("3m", 3 * 60_000, 2_000)
GATEWAY = GatewayStage(fsync=False)
AUDIT = AuditStage(reports=10, breach=10, erase=10, live=10)

# The traced run ends with this small chain, so that layers a workload does
# not load still get numbers: a 1-minute crawl, a gateway with fsync, and a
# short audit.
PROBE_FEED = PipelineStage("1m", 60_000, 2_000)
FSYNC_GATEWAY = GatewayStage(fsync=True)
PROBE_AUDIT = AuditStage(reports=3, breach=2, erase=2, live=2)


class Workload:
    """Set-up, one timed repetition and its checks."""

    name = ""
    item = ""           # what throughput_per_s counts on this workload
    min_reps = 2        # untraced and traced repetitions together

    def setup(self, run: Run, seed: int, logs: Path):
        """Returns the set-up's outputs; its digest must repeat for the same seed."""
        raise NotImplementedError

    def setup_digest(self, ctx) -> str:
        return ""

    def prepare(self, ctx, seed: int):
        return ctx

    def timed(self, run: Run, seed: int, ctx, traced: bool) -> Rep:
        raise NotImplementedError

    def check(self, ctx, rep: Rep) -> int:
        """Checks one repetition's outputs; returns the leaked bundle count."""
        raise NotImplementedError

    def throughput(self, reps: list[Rep]) -> tuple[float, dict]:
        """throughput_per_s and the workload's own named metrics."""
        rate = statistics.median(r.items / r.wall_s for r in reps)
        return rate, {self.item: (rate, "1/s")}


class PipelineWorkload(Workload):
    name = "pipeline"
    item = "records_per_s"

    def setup(self, run, seed, logs):
        build(run, logs)

    def timed(self, run, seed, ctx, traced):
        return PIPELINE.rep(run, seed, traced)

    def check(self, ctx, rep):
        PIPELINE.check(rep)
        return 0


class GatewayWorkload(Workload):
    name = "gateway"
    item = "bundles_per_s"

    def setup(self, run, seed, logs):
        build(run, logs)
        return FEED.rep(run, seed, traced=False)

    def setup_digest(self, ctx):
        return ctx.digest

    def timed(self, run, seed, ctx, traced):
        return GATEWAY.rep(run, seed, FEED.feed(ctx), traced)

    def check(self, ctx, rep):
        FEED.check(ctx)
        return GATEWAY.check(rep, FEED.feed(ctx))


class AuditWorkload(Workload):
    name = "audit"
    item = "reports_per_s"
    min_reps = 4        # at least 40 reports

    def setup(self, run, seed, logs):
        build(run, logs)
        feed = FEED.rep(run, seed, traced=False)
        return feed, GATEWAY.rep(run, seed, FEED.feed(feed), traced=False)

    def setup_digest(self, ctx):
        feed, ledger = ctx
        return feed.digest + ledger.digest

    def prepare(self, ctx, seed):
        feed, ledger = ctx
        return feed, ledger, AUDIT.plan(ledger.out, seed)

    def timed(self, run, seed, ctx, traced):
        return AUDIT.rep(run, ctx[2], traced)

    def check(self, ctx, rep):
        feed, ledger, plan = ctx
        FEED.check(feed)
        GATEWAY.check(ledger, FEED.feed(feed))
        AUDIT.check(rep, plan)
        return 0

    def throughput(self, reps):
        latencies = [c.wall_s * 1000.0 for r in reps for c in r.children if c.kind == "report"]
        p50 = percentile(latencies, 0.50)
        # p75 is the highest percentile with at least ten samples beyond it
        # at 40 reports.
        return 1000.0 / p50, {
            "report_p50_ms": (p50, "ms"),
            "report_p75_ms": (percentile(latencies, 0.75), "ms"),
            "report_samples": (len(latencies), "count"),
        }


WORKLOADS = {w.name: w for w in (PipelineWorkload(), GatewayWorkload(), AuditWorkload())}


@dataclass
class Outcome:
    setup_s: list[float]
    reps: list[Rep]             # untraced repetitions
    traced: list[Rep]           # traced repetitions (trace mode only)
    problems: list[str]         # failed checks
    leaked: int                 # leaked bundles in one repetition
    probe: tuple | None = None  # (probe reps, probe leaked) in trace mode


def measure(workload: Workload, run: Run, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up, repeat the timed part for at least ``seconds``, then check."""
    setup_s, digests, problems = [], [], []
    for _ in range(1 if trace else SETUP_RUNS):
        logs = run.fresh_dir("setup")
        start = time.perf_counter()
        ctx = workload.setup(run, seed, logs)
        setup_s.append(time.perf_counter() - start)
        digests.append(workload.setup_digest(ctx))
    if len(set(digests)) != 1:
        problems.append("same-seed set-ups produced different output trees")
    ctx = workload.prepare(ctx, seed)

    reps: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    while len(reps) + len(traced) < workload.min_reps or time.perf_counter() - start < seconds:
        reps.append(workload.timed(run, seed, ctx, traced=False))
        if trace:
            traced.append(workload.timed(run, seed, ctx, traced=True))

    leaked = 0
    try:
        leaked = workload.check(ctx, reps[0])
    except CheckFailed as exc:
        problems.append(str(exc))
    if any(r.digest != reps[0].digest for r in reps + traced):
        problems.append("same-seed repetitions produced different output trees")
    outcome = Outcome(setup_s, reps, traced, problems, leaked)
    if trace:
        outcome.probe = probe(run, seed, problems)
    return outcome


def probe(run: Run, seed: int, problems: list[str]) -> tuple[list[Rep], int]:
    """The traced probe chain; returns its repetitions and leaked bundles."""
    crawl = PROBE_FEED.rep(run, seed, traced=True)
    feed = PIPELINE.feed(crawl)
    gateway = FSYNC_GATEWAY.rep(run, seed, feed, traced=True)
    plan = PROBE_AUDIT.plan(gateway.out, seed)
    audit = PROBE_AUDIT.rep(run, plan, traced=True)
    leaked = 0
    try:
        PROBE_FEED.check(crawl)
        leaked = FSYNC_GATEWAY.check(gateway, feed)
        PROBE_AUDIT.check(audit, plan)
    except CheckFailed as exc:
        problems.append(f"probe: {exc}")
    return [crawl, gateway, audit], leaked
