"""Child processes, work directories and order statistics for the benchmark.

Every command the benchmark times runs as a child of this process. Its wall
time is taken around spawn and reap, and its CPU time (user + system) and
peak RSS come from ``os.wait4``.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class BenchError(Exception):
    """The benchmark cannot produce a result: a command crashed or input is missing."""


@dataclass
class Child:
    kind: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr_path: Path
    spans_path: Path | None


class Run:
    """One benchmark invocation: its work directory and the children it spawns."""

    def __init__(self, work: Path):
        self.work = Path(work)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.work))
        self._serial = 0

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.work / f"{self._serial:03d}-{label}"
        path.mkdir()
        return path

    def spawn(self, kind: str, target: str, args: list, logs: Path, traced: bool = False,
              check_rc: bool = True) -> Child:
        """Run ``tweetpipe`` (``target="tweetpipe"``) or ``erase_remap`` with args.

        Output goes to files under logs. A traced child runs under
        ``tracer.py`` and leaves its spans next to its output.
        """
        self._serial += 1
        stem = Path(logs) / f"{self._serial:04d}-{kind}"
        spans = stem.with_suffix(".spans.json") if traced else None
        args = [str(a) for a in args]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), target, *args]
        elif target == "tweetpipe":
            argv = [sys.executable, "-m", "tweetpipe", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / f"{target}.py"), *args]
        child = run_child(kind, argv, stem, self.env, cwd=self.work)
        child.spans_path = spans
        if check_rc and child.rc != 0:
            raise BenchError(f"{kind} exited {child.rc}; see {child.stderr_path}")
        return child

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def run_child(kind: str, argv: list[str], stem: Path, env: dict, cwd: Path) -> Child:
    out_path = stem.with_suffix(".out")
    err_path = stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        kind=kind,
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr_path=err_path,
        spans_path=None,
    )


def build(run: Run, logs: Path) -> None:
    """Byte-compile the package from source and import its CLI once."""
    compile_cmd = [sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "tweetpipe")]
    for kind, argv in (("compile", compile_cmd),
                       ("import", [sys.executable, "-c", "import tweetpipe.cli"])):
        child = run_child(kind, argv, Path(logs) / kind, run.env, cwd=run.work)
        if child.rc != 0:
            raise BenchError(f"{kind} of src/tweetpipe failed; see {child.stderr_path}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, as statfs(2) reports it."""
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"
