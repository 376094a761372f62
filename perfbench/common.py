"""Process, HTTP and statistics helpers shared by the workload code.

Every program process the benchmark starts runs from the checkout's own
``src`` tree with the program's defaults: ``REPRO_KERNEL_BACKEND`` and
``REPRO_TRACE`` are removed from the environment, never pinned, so a change
of default shows in the record.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (stores, logs, span files); gitignored.
WORK = ROOT / ".perfbench"

UNPINNED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_TRACE")


def program_env() -> Dict[str, str]:
    """The environment of every program process: checkout ``src`` first, defaults unpinned."""
    env = {key: value for key, value in os.environ.items() if key not in UNPINNED_ENV}
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def scratch_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# HTTP over loopback, one connection per request (the server closes each)
# --------------------------------------------------------------------------- #
def _request_bytes(method: str, path: str, body: bytes) -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def http_call(port: int, method: str, path: str, body: bytes = b"", timeout: float = 120.0) -> Tuple[int, bytes]:
    """Send one request and read to end of stream; returns ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(_request_bytes(method, path, body))
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


def http_stream_lines(port: int, path: str, body: bytes, timeout: float = 170.0) -> Tuple[int, List[Tuple[float, bytes]]]:
    """POST and read an NDJSON stream; returns ``(status, [(arrival monotonic, line)])``."""
    lines: List[Tuple[float, bytes]] = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(_request_bytes("POST", path, body))
        with sock.makefile("rb") as stream:
            status_line = stream.readline()
            status = int(status_line.split(b" ", 2)[1])
            while stream.readline() not in (b"\r\n", b""):
                pass
            for line in stream:
                lines.append((time.monotonic(), line))
    return status, lines


class Server:
    """A ``repro serve`` subprocess on a kernel-assigned loopback port.

    ``launcher`` replaces ``-m repro.cli`` (the traced run starts the same
    CLI through the benchmark's wrapper script).
    """

    def __init__(self, name: str, args: Sequence[str], launcher: Optional[Sequence[str]] = None) -> None:
        self.dir = scratch_dir(f"server-{name}")
        port_file = self.dir / "port"
        self.log_path = self.dir / "stderr.log"
        entry = list(launcher) if launcher is not None else ["-m", "repro.cli"]
        command = [sys.executable, *entry, "serve", "--port", "0", "--port-file", str(port_file), *args]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL, stderr=self._log
        )
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server failed to start: {self.log_tail()}")
            time.sleep(0.005)
        self.port = int(port_file.read_text().strip())

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-2000:]

    def call(self, method: str, path: str, payload=None) -> Tuple[int, dict]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        status, raw = http_call(self.port, method, path, body)
        return status, json.loads(raw)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def run_program(args: Sequence[str], timeout: float = 170.0) -> None:
    """Run one program CLI command to completion (e.g. ``repro warm``)."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"repro {args[0]} failed: {completed.stderr.decode(errors='replace')[-2000:]}")


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it (50 if none)."""
    if count < 20:
        return 50
    return max(50, math.floor(100.0 * (1.0 - 10.0 / count)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and tail of per-operation latencies, in ms, with the tail's percentile."""
    pct = tail_percentile(len(seconds))
    return {
        "p50_ms": percentile(seconds, 50) * 1000.0,
        "tail_ms": percentile(seconds, pct) * 1000.0,
        "tail_percentile": pct,
        "samples": len(seconds),
    }
