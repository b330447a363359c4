"""Child-process control: the CLI fit step and the HTTP server under test.

Every process the benchmark starts goes through this module, so every one
is stopped and waited for: the server runs in its own process group and
:meth:`Server.stop` removes the whole group, worker processes included.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Client

#: Seconds a server gets to publish its port and answer ``/readyz``.
READY_TIMEOUT_S = 60.0
#: Seconds a SIGTERM-ed server gets to drain before it is killed.
STOP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """A step of the benchmark failed; the run prints no result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli_json(argv: list[str], src: Path, log: Path, timeout: float = 60.0) -> list:
    """Run ``python -m repro.cli ARGV --json`` to completion; its rows."""
    with open(log, "ab") as err:
        try:
            done = subprocess.run([sys.executable, "-m", "repro.cli", *argv, "--json"],
                                  env=child_env(src), stdout=subprocess.PIPE, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("repro.cli {} ran over {:.0f}s".format(argv[0], timeout))
    if done.returncode != 0:
        raise BenchError("repro.cli {} exited {} (see {})".format(
            argv[0], done.returncode, log))
    return json.loads(done.stdout.decode("utf-8"))


class Server:
    """One ``serve`` process (plain CLI or the tracing launcher)."""

    def __init__(self, argv: list[str], src: Path, workdir: Path, name: str):
        self.ready_file = workdir / (name + ".ready")
        self.ready_file.unlink(missing_ok=True)
        self.log = workdir / (name + ".log")
        self.host = self.port = None
        with open(self.log, "ab") as out:
            self.process = subprocess.Popen(
                [sys.executable, *argv, "--ready-file", str(self.ready_file)],
                env=child_env(src), stdout=out, stderr=out, start_new_session=True)

    def wait_ready(self) -> None:
        """Block until the server answers ``GET /readyz`` with 200."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.port is None:
            text = self.ready_file.read_text() if self.ready_file.exists() else ""
            if text.strip():
                host, port = text.split()
                self.host, self.port = host, int(port)
                break
            self._check_alive(deadline)
            time.sleep(0.002)
        client = Client(self.host, self.port)
        try:
            while True:
                try:
                    if client.get_json("/readyz")[0] == 200:
                        return
                except OSError:
                    client.reset()
                self._check_alive(deadline)
                time.sleep(0.002)
        finally:
            client.close()

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise BenchError("server exited {} before it was ready (see {})".format(
                self.process.returncode, self.log))
        if time.monotonic() > deadline:
            raise BenchError("server not ready after {:.0f}s (see {})".format(
                READY_TIMEOUT_S, self.log))

    def stats(self) -> dict:
        client = Client(self.host, self.port)
        try:
            status, body = client.get_json("/stats")
        finally:
            client.close()
        if status != 200:
            raise BenchError("GET /stats answered {}".format(status))
        return body

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group if needed; wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # workers are forked into the server's process group; a clean drain
        # has joined them already, anything left over is removed here
        group = self.process.pid
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.02)
