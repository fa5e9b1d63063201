"""Every public def, class, field and attribute stored on self in the package
has a reader outside the tests, every private one has a reader,
only the line log appends to files, only ``ledger.py`` opens a file for
writing, only the entry reader splits ``name: value`` lines, every
name the bench tracer wraps is still where it looks and still called
where a traced run expects it, and the CLI has exactly the options
listed here.

A public module-level or class-level function or class, a public name a
module-level or class-level assignment binds (a dataclass field, say), or
a public attribute a method stores on self, that nothing in ``src/`` or
``bench/`` reads, by name or as an attribute, is API that only tests use,
or state that nothing uses. The allowlist names the few that are reached
another way or kept on purpose.
"""

import argparse
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from tweetpipe.cli import build_parser, main
from tweetpipe.gateway import CATEGORIES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tweetpipe"

# module.qualname -> why it stays without a caller in src/ or bench/
ALLOWED = {
    "mockserver._Handler.do_GET": "http.server dispatches GET requests to it by name",
    "mockserver._Handler.log_message": "http.server hook, overridden to keep the mock quiet",
    "mockserver._Handler.protocol_version": "http.server reads it to keep connections alive",
    "mockserver._Handler.disable_nagle_algorithm": "http.server reads it on each connection",
    "mockserver._EngineServer.daemon_threads": "socketserver reads it, and server_close joins "
                                               "the connection threads it did not daemonize",
    "crawler.CrawlStats.rate_limit_waits": "crawl prints every field, through vars(stats)",
}


def assigned_names(body):
    """Each name an assignment statement in body binds."""
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id


def self_stores(cls: ast.ClassDef):
    """Each attribute name that a method of cls stores on self."""
    for method in cls.body:
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(method):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    yield node.attr


def public_definitions(tree: ast.Module, module: str):
    """module.qualname of each public def or class at module or class level,
    of each public name bound by an assignment at module or class level,
    and of each public attribute that a method stores on self (as
    module.Class.name)."""
    for name in assigned_names(tree.body):
        if not name.startswith("_"):
            yield f"{module}.{name}", name
    pending = [(module, tree.body)]
    while pending:
        prefix, body = pending.pop()
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualname = f"{prefix}.{node.name}"
            if not node.name.startswith("_"):
                yield qualname, node.name
            if isinstance(node, ast.ClassDef):
                pending.append((qualname, node.body))
                for name in {*assigned_names(node.body), *self_stores(node)}:
                    if not name.startswith("_"):
                        yield f"{qualname}.{name}", name


def read_names(paths) -> set[str]:
    """Every name and attribute that the sources read; a store is no read."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_no_public_api_is_used_only_by_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    used = read_names(sources + sorted((ROOT / "bench").glob("*.py")))
    defined = {
        qualname: name
        for path in sources
        for qualname, name in public_definitions(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert set(ALLOWED) <= set(defined), "allowlist names a definition that is gone"
    unused = sorted(q for q, name in defined.items() if name not in used and q not in ALLOWED)
    assert unused == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module, module: str):
    """module.qualname of each private def, class or assigned name at module
    or class level, and module.self.name of each private attribute that a
    method stores on self."""
    pending = [(module, tree.body)]
    while pending:
        prefix, body = pending.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    pending.append((f"{prefix}.{node.name}", node.body))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            for name in names:
                if is_private(name):
                    yield f"{prefix}.{name}", name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and is_private(node.attr)):
            yield f"{module}.self.{node.attr}", node.attr


def test_no_private_name_or_attribute_is_left_unread():
    # A leftover helper, cache or index that the code stopped reading.
    sources = sorted(PACKAGE.glob("*.py"))
    read = read_names(sources + sorted((ROOT / "bench").glob("*.py")))
    unread = sorted({qualname for path in sources
                     for qualname, name in private_definitions(
                         ast.parse(path.read_text(encoding="utf-8")), path.stem)
                     if name not in read})
    assert unread == []


APPEND_MODE = re.compile(r"[rwxbt+]*a[rwxbt+]*")
WRITE_MODE = re.compile(r"[raxbt+]*w[raxbt+]*")


def mode_opens(tree: ast.Module, mode: re.Pattern):
    """Line number of each open(...) or x.open(...) call given a matching mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "open":
            continue
        for arg in [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]:
            if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and mode.fullmatch(arg.value)):
                yield node.lineno


def opens_outside_ledger(mode: re.Pattern) -> list[str]:
    return [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "ledger.py"
        for line in mode_opens(ast.parse(path.read_text(encoding="utf-8")), mode)
    ]


def test_only_the_line_log_appends_to_files():
    assert opens_outside_ledger(APPEND_MODE) == []


def test_only_the_ledger_module_writes_files():
    # Whole files are written through ledger.replaced_text, which replaces
    # them, so a crash never leaves one cut short.
    assert opens_outside_ledger(WRITE_MODE) == []


def colon_partitions(tree: ast.Module):
    """Line number of each x.partition(":") call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "partition" and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == ":"):
            yield node.lineno


def test_only_the_entry_reader_splits_name_value_lines():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "analyzer.py"
        for line in colon_partitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def tracer_targets() -> tuple:
    """bench/tracer.py's TARGETS, read from its source; nothing is installed."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_traced_name_resolves_where_the_tracer_looks():
    targets = tracer_targets()
    assert targets
    for module_name, attr, _span in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)
    # The tracer replaces the ledger module's os to time every fsync.
    assert importlib.import_module("tweetpipe.ledger").os is os


# The tracer's order in a fresh process: import the CLI, wrap each stage
# name found on it, then run. A stage whose helper kept its own reference
# would skip the wrapper, and its span would go missing.
WRAPPING_SCRIPT = """
import sys
import tweetpipe.cli as cli

called = set()

def wrapped(name, fn):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper

names = sys.argv[1].split(",")
for name in names:
    setattr(cli, name, wrapped(name, getattr(cli, name)))
status = cli.main(sys.argv[2:])
print(",".join(sorted(called)))
sys.exit(status)
"""


def test_a_wrapper_set_on_each_traced_cli_name_is_called(tmp_path):
    names = sorted(attr for module_name, attr, _span in tracer_targets()
                   if module_name == "tweetpipe.cli")
    assert names
    probe = subprocess.run(
        [sys.executable, "-c", WRAPPING_SCRIPT, ",".join(names),
         "--data-dir", str(tmp_path), "--seed", "7", "pipeline", "--duration", "1m"],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1] == ",".join(names)


# The traced gateway and ledger methods that a gateway run does not call:
# erase_remap and the ledger command reach them.
NOT_REACHED_BY_GATEWAY = {"PrivacyGateway.remap", "Vault.erase", "ComplianceLedger.record",
                          "ComplianceLedger.transparency_report"}


def recording(name: str, fn, called: set):
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return wrapper


def test_a_wrapper_set_on_each_traced_gateway_name_is_called(tmp_path, monkeypatch, capsys):
    # The tracer wraps these at the class attribute; a refactor that stops
    # calling one would lose its span in a traced run.
    targets = [(module_name, attr) for module_name, attr, _span in tracer_targets()
               if module_name in ("tweetpipe.gateway", "tweetpipe.ledger")]
    names = {attr for _module_name, attr in targets}
    assert NOT_REACHED_BY_GATEWAY < names
    called: set[str] = set()
    for module_name, attr in targets:
        owner_name, name = attr.split(".")
        owner = getattr(importlib.import_module(module_name), owner_name)
        monkeypatch.setattr(owner, name, recording(attr, getattr(owner, name), called))
    feed = tmp_path / "feed.json"
    feed.write_text(json.dumps([
        {"creation_date": "Sat Sep 07 20:14:03 +0000 2019", "id": str(100 + n), "lang": "en",
         "location": "Delhi", "name": f"Writer {n}", "username": f"writer_{n}",
         "text": f"OT sushi and a flight with @writer_{1 - n}", "country": None, "city": None}
        for n in range(2)
    ]), encoding="utf-8")
    registry = tmp_path / "registry.txt"
    registry.write_text("".join(f"{c}: sinks/{c}\n" for c in CATEGORIES), encoding="utf-8")
    assert main(["--data-dir", str(tmp_path / "data"), "--seed", "7", "gateway",
                 "--in", str(feed), "--registry", str(registry)]) == 0
    assert called == names - NOT_REACHED_BY_GATEWAY


# Each command's option strings, -h/--help aside. A new flag gets in only
# by an edit here.
CLI_OPTIONS = {
    "tweetpipe": ["--data-dir", "--seed", "--verbose", "--version", "--virtual-clock"],
    "tweetpipe mock-serve": ["--duplicate-mode", "--port"],
    "tweetpipe crawl": ["--duration", "--endpoint", "--interval-ms", "--key", "--max-requests",
                        "--out", "--secret", "--use-next"],
    "tweetpipe process": ["--gazetteer", "--in", "--out"],
    "tweetpipe analyze": ["--in", "--out", "-regex"],
    "tweetpipe prune": ["--in", "--limit", "--order", "--out"],
    "tweetpipe gateway": ["--in", "--ledger", "--no-fsync", "--out", "--registry",
                          "--retention-days", "--rules", "--vault"],
    "tweetpipe ledger": ["--ledger"],
    "tweetpipe ledger report": ["--code"],
    "tweetpipe ledger verify": [],
    "tweetpipe ledger breach": ["--codes"],
    "tweetpipe pipeline": ["--duration", "--gazetteer", "--interval-ms", "--limit", "-regex"],
}


def cli_options(parser: argparse.ArgumentParser, command: str = "tweetpipe") -> dict:
    """{command: sorted option strings} for the parser and every subcommand."""
    options = {command: sorted(s for action in parser._actions for s in action.option_strings
                               if s not in ("-h", "--help"))}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options.update(cli_options(sub, f"{command} {name}"))
    return options


def test_the_cli_has_exactly_the_listed_options():
    assert cli_options(build_parser()) == CLI_OPTIONS
