"""The compile server as a black box: spawn it, drive it, stop it.

The server is started as its own process (``python -m repro.serve``);
``stop`` asks it to drain and, failing that, kills it and every pool
worker it forked.  Requests go over keep-alive HTTP/1.1 connections
from ``http.client``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    def __init__(self, root: str, store_dir: str, jobs: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--store", store_dir,
                "--host", "127.0.0.1",
                "--port", "0",
                "--jobs", str(jobs),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline()
        try:
            announce = json.loads(line)["serving"]
        except (json.JSONDecodeError, KeyError, TypeError):
            self.stop()
            raise RuntimeError(f"server did not announce itself: {line!r}") from None
        self.port = int(announce["port"])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def call(self, conn, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def stats(self) -> dict:
        conn = self.connect()
        try:
            return self.call(conn, "GET", "/stats")[1]
        finally:
            conn.close()

    def pids(self) -> list[int]:
        """The server and the processes it forked."""
        found = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _read_stat(int(entry))
                if stat is not None and int(stat[1]) == self.proc.pid:
                    found.append(int(entry))
        return found

    def cpu_s(self) -> dict[int, float]:
        """CPU seconds used so far by each process of the server tree."""
        out = {}
        for pid in self.pids():
            stat = _read_stat(pid)
            if stat is not None:
                out[pid] = (int(stat[11]) + int(stat[12])) / CLOCK_TICKS
        return out

    def stop(self) -> None:
        """Graceful shutdown; kill the server tree if it does not end."""
        tree = self.pids() if self.proc.poll() is None else []
        try:
            conn = self.connect()
            self.call(conn, "POST", "/shutdown")
            conn.close()
            self.proc.wait(timeout=60)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait()
        self.proc.stdout.close()


def _read_stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def drive(server: Server, bodies: list[dict], connections: int) -> list[dict]:
    """Send ``bodies`` in order over ``connections`` keep-alive
    connections in a closed loop: each connection sends its next request
    only after the answer to its previous one.  Returns one record per
    request, in send order."""
    records: list[dict | None] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter()
                status, answer = server.call(conn, "POST", "/compile", bodies[index])
                records[index] = {
                    "status": status,
                    "ms": (time.perf_counter() - start) * 1e3,
                    "answer": answer,
                }
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records

