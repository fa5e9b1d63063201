"""Every public def and class in the package has a caller outside the tests,
only the line log appends to files, only ``ledger.py`` opens a file for
writing, only the entry reader splits ``name: value`` lines, every
name the bench tracer wraps is still where it looks, and the CLI has
exactly the options listed here.

A public module-level or class-level function or class that nothing in
``src/`` or ``bench/`` refers to, by name or as an attribute, is API that
only tests use. The allowlist names the few that are reached another way
or kept on purpose.
"""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from tweetpipe.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tweetpipe"

# module.qualname -> why it stays without a caller in src/ or bench/
ALLOWED = {
    "mockserver._Handler.do_GET": "http.server dispatches GET requests to it by name",
    "mockserver._Handler.log_message": "http.server hook, overridden to keep the mock quiet",
    "gateway.classify_sensitivity": "the field classification the gateway's payload encodes",
    "gateway.Vault.code_for": "the read-only lookup of a user's current code",
}


def public_definitions(tree: ast.Module, module: str):
    """module.qualname of each public def or class at module or class level."""
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


def referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_public_api_is_used_only_by_tests():
    sources = sorted(PACKAGE.glob("*.py"))
    used = referenced_names(sources + sorted((ROOT / "bench").glob("*.py")))
    defined = {
        qualname: name
        for path in sources
        for qualname, name in public_definitions(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert set(ALLOWED) <= set(defined), "allowlist names a definition that is gone"
    unused = sorted(q for q, name in defined.items() if name not in used and q not in ALLOWED)
    assert unused == []


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
