"""Child processes and HTTP load for the timed runs.

Every ``bibnet`` command runs as its own child process, started the way a
user starts it (``python -m bibnet.cli``) with ``src`` on ``PYTHONPATH``, so
the timings include interpreter start and imports. Wall time is taken around
spawn and reap; peak RSS comes from the child's own rusage via ``os.wait4``.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
LOAD_LIMIT_S = 120.0


@dataclass(frozen=True)
class Finished:
    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # children cache bytecode as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def bibnet_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "bibnet.cli", *args]


def _reap(proc: subprocess.Popen, started: float) -> tuple[float, int, float]:
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def run(argv: list[str], env: dict[str, str], cwd: Path) -> Finished:
    """Run one child to completion; stdout and stderr go to files so pipes never fill."""
    out_path = cwd / f".stdout-{os.getpid()}"
    err_path = cwd / f".stderr-{os.getpid()}"
    with out_path.open("w+b") as out, err_path.open("w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        wall, code, rss = _reap(proc, started)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    out_path.unlink()
    err_path.unlink()
    return Finished(wall, code, rss, stdout, stderr)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``bibnet serve`` child: started, awaited until ``/`` answers 200, stopped."""

    def __init__(self, bundle: Path, env: dict[str, str], cwd: Path) -> None:
        self.port = free_port()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            bibnet_argv("serve", "--dir", str(bundle), "--port", str(self.port)),
            env=env,
            cwd=cwd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.peak_rss_mb = 0.0

    def wait_ready(self) -> float:
        """Seconds from spawn to the first 200 on ``/``; raises if it never comes."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"bibnet serve exited with code {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/")
                if conn.getresponse().status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.002)
            finally:
                conn.close()
        raise RuntimeError("bibnet serve did not answer within the timeout")

    def stop(self) -> int:
        """Interrupt the server as Ctrl-C would, reap it and keep its peak RSS."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(STOP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, code, self.peak_rss_mb = _reap(self.proc, self.started)
        finally:
            timer.cancel()
        return code


@dataclass
class LoadResult:
    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)


def closed_loop(
    port: int, paths: list[str], clients: int, seconds: float, min_requests: int, check
) -> LoadResult:
    """``clients`` keep-alive connections, each sending its next request after the last reply.

    Runs until ``seconds`` have passed and at least ``min_requests`` requests
    completed, but never past ``LOAD_LIMIT_S``. Each reply is handed to
    ``check(path, status, body)``, which returns a problem string or None.
    """
    result = LoadResult()
    lock = threading.Lock()
    started = time.perf_counter()
    stop_at = started + seconds
    limit_at = started + LOAD_LIMIT_S

    def done() -> bool:
        now = time.perf_counter()
        return now >= limit_at or (now >= stop_at and result.attempted >= min_requests)

    def client(offset: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        i = offset
        try:
            while not done():
                path = paths[i % len(paths)]
                i += 1
                t0 = time.perf_counter()
                try:
                    conn.request("GET", path)
                    resp = conn.getresponse()
                    body = resp.read()
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                    problem = f"GET {path}: {type(exc).__name__}: {exc}"
                else:
                    latency = time.perf_counter() - t0
                    problem = check(path, resp.status, body)
                    with lock:
                        result.latencies_s.append(latency)
                with lock:
                    result.attempted += 1
                    if problem is not None:
                        result.errors.append(problem)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(k * len(paths) // clients,)) for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    return result
