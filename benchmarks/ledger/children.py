"""Child processes of the benchmark: ``repro serve`` and ``repro
shard-serve`` subprocesses, started on ephemeral ports and always
reaped.

Each child's stdout and stderr go to a log file in the run's work
directory — never a pipe, which would fill up or, once closed, kill the
child on its next print — and the port is parsed from the ready line
the child prints. :meth:`Child.stop` asks for a clean exit first
(SIGTERM, which both servers handle by draining) and kills the process
if that takes too long; a child that dies early has the tail of its log
raised in the error.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger.inputs import ROOT, LedgerError

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_READY = re.compile(rb"serving (?:.+ )?on (127\.0\.0\.1):(\d+)")


class Child:
    """One ``python -m repro.cli <args>`` subprocess."""

    def __init__(self, args: list[str], log_path: Path):
        self.log_path = log_path
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_bytes()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def wait_ready(self) -> "Child":
        """Block until the child printed its ready line; sets
        ``host``/``port`` from it."""
        deadline = self._started + READY_TIMEOUT_S
        while True:
            match = _READY.search(self.log_path.read_bytes())
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                return self
            if self.proc.poll() is not None:
                raise LedgerError(
                    f"child exited with code {self.proc.returncode} before "
                    f"it was ready:\n{self._log_tail()}")
            if time.perf_counter() > deadline:
                raise LedgerError(
                    f"child not ready after {READY_TIMEOUT_S:g}s:\n"
                    f"{self._log_tail()}")
            time.sleep(0.005)

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise LedgerError(
                f"child died with code {self.proc.returncode}:\n"
                f"{self._log_tail()}")

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / _CLOCK_TICKS

    def stop(self) -> None:
        """Clean exit, then kill; always reaps the process."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, from ``VmHWM``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise LedgerError(f"no VmHWM for process {pid}")
