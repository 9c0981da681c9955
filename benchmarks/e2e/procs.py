"""The server under test as a child process, and what `/proc` says of it.

The gateway runs as ``python -m repro.gateway`` so the load generator
and the server do not share an interpreter lock.  Every child binds
port 0, is killed on every exit path, and keeps its data under a scratch
directory inside the checkout that is removed with it.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import OUT, SRC

READY_RE = re.compile(r"h2o-gateway listening on ([\d.]+):(\d+)")
BOOT_TIMEOUT_S = 60.0


class Scratch:
    """A temp directory under ``out/`` plus the children living in it."""

    def __init__(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self._children: List["GatewayProc"] = []

    def new_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=name + "-", dir=self.path))

    def adopt(self, child: "GatewayProc") -> None:
        self._children.append(child)

    def close(self) -> None:
        for child in self._children:
            child.kill()
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GatewayProc:
    """One ``python -m repro.gateway`` child on ``data_dir``."""

    def __init__(self, scratch: Scratch, data_dir: Path) -> None:
        self.data_dir = data_dir
        self._stderr_path = scratch.new_dir("log") / "gateway.stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        started = time.perf_counter()
        with open(self._stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.gateway",
                    "--data-dir",
                    str(data_dir),
                    "--port",
                    "0",
                    "--workers",
                    "2",
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
        scratch.adopt(self)
        self.port = self._await_ready()
        #: Spawn to the readiness line: boot plus recovery.
        self.boot_seconds = time.perf_counter() - started

    def _await_ready(self) -> int:
        """Parse the readiness line; a watchdog kills a child that never
        prints it, which ends the blocking ``readline``."""
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        match = READY_RE.search(line)
        if not match:
            self.kill()
            tail = self._stderr_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"gateway child did not become ready (got {line!r}): {tail}"
            )
        return int(match.group(2))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        """SIGKILL and reap; safe to call twice."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def proc_status_mb(pid: int, field: str = "VmHWM") -> float:
    """One ``/proc/<pid>/status`` memory field, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not found for pid {pid}")


class RssSampler:
    """Samples a process's resident set while a phase runs.

    ``peak_mb`` is the 90th percentile of the samples: a peak that
    ignores transients shorter than a tenth of the phase.  ``VmHWM``
    itself moved by ±17 % between identical ``ingest-mixed`` runs (one
    checkpoint's buffers decide it), too much to gate on.
    """

    INTERVAL_S = 0.1

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append(proc_status_mb(self.pid, "VmRSS"))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        ordered = sorted(self.samples)
        return ordered[int(0.9 * (len(ordered) - 1))]


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(parent) / name).stat().st_size
        for parent, _, names in os.walk(path)
        for name in names
    )


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` → value for every sample line of ``/metrics``."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout at ``root``, or None when it is not a git
    repository (git is told not to look in the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
