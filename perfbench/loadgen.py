"""The load generator: keep-alive HTTP clients driving a closed loop.

Each client thread owns one connection and sends its next request only
after the previous answer is parsed.  Timestamps use the monotonic clock
in microseconds, the clock the server's tracer stamps spans with, so a
traced run can line client and server time up on one axis.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 60.0

PATHS = {"stream": "/sample_table", "database": "/sample_database"}


def now_us() -> int:
    return time.monotonic_ns() // 1000


def trace_id_for(index: int) -> str:
    """The 16-hex request id of list entry *index*; the server adopts it as
    the trace id, which is how a traced run finds each request's spans."""
    return "{:016x}".format(0xBE00000000000000 + index)


@dataclass
class Outcome:
    """What the client saw for one request."""

    index: int
    seed: int
    status: int | None = None
    error: str | None = None
    rows: int = 0
    send_us: int = 0
    first_us: int = 0
    end_us: int = 0
    #: ``(start_us, end_us)`` of each JSON parse of the answer
    decode: list = field(default_factory=list)
    #: sha256 over the answer's row payload bytes, in arrival order
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency_s(self) -> float:
        return (self.end_us - self.send_us) / 1e6

    @property
    def first_chunk_s(self) -> float:
        return (self.first_us - self.send_us) / 1e6


class Client:
    """One keep-alive connection to the server."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port,
                                                     timeout=REQUEST_TIMEOUT_S)

    def reset(self) -> None:
        self.connection.close()
        self.connection = http.client.HTTPConnection(self.host, self.port,
                                                     timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self.connection.close()

    def get_json(self, path: str):
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)

    def sample(self, endpoint: str, payload: dict, outcome: Outcome, check) -> None:
        """Send one sampling request and fill *outcome* (never raises for
        HTTP or transport failures; those land in the outcome)."""
        body = json.dumps(dict(payload, stream=True) if endpoint == "stream"
                          else payload).encode("utf-8")
        headers = {"Content-Type": "application/json",
                   "X-Request-Id": trace_id_for(outcome.index)}
        outcome.send_us = now_us()
        try:
            self.connection.request("POST", PATHS[endpoint], body=body, headers=headers)
            response = self.connection.getresponse()
            outcome.status = response.status
            if response.status != 200:
                response.read()
                outcome.end_us = outcome.first_us = now_us()
                return
            digest = hashlib.sha256()
            if endpoint == "stream":
                parsed = self._read_stream(response, outcome, digest)
            else:
                raw = response.read()
                start = now_us()
                parsed = json.loads(raw)
                outcome.end_us = outcome.first_us = now_us()
                outcome.decode.append((start, outcome.end_us))
                digest.update(raw)
        except (OSError, http.client.HTTPException, ValueError) as error:
            outcome.error = "{}: {}".format(type(error).__name__, error)
            outcome.end_us = outcome.first_us = now_us()
            self.reset()
            return
        outcome.digest = digest.hexdigest()
        outcome.problems.extend(check(outcome, parsed))

    @staticmethod
    def _read_stream(response, outcome: Outcome, digest) -> list:
        """Read ndjson chunks; the rows of every chunk and the done line."""
        chunks = []
        done = None
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            start = now_us()
            record = json.loads(line)
            parsed_us = now_us()
            outcome.decode.append((start, parsed_us))
            if "done" in record:
                done = record
                continue
            if not chunks:
                outcome.first_us = parsed_us
            digest.update(line)
            chunks.append(record)
        outcome.end_us = now_us()
        if done is None:
            raise ValueError("stream ended without its done line")
        return chunks


def run_closed_loop(host: str, port: int, endpoint: str, n: int | None,
                    seeds: list[int], clients: int, check,
                    seconds: float | None = None, min_requests: int = 0,
                    on_completed=None) -> list[Outcome]:
    """Send ``seeds[0], seeds[1], ...`` from *clients* threads, closed loop.

    With *seconds*, a client starts another request while the run is
    younger than *seconds* or fewer than *min_requests* were started;
    without it, every seed in the list is sent exactly once.
    *on_completed*, if given, is called with the number of completed
    requests after each completion, on the client thread.
    """
    lock = threading.Lock()
    outcomes: list[Outcome] = []
    errors: list[BaseException] = []
    state = {"next": 0}
    started = time.monotonic()

    def take() -> int | None:
        with lock:
            index = state["next"]
            if index >= len(seeds):
                return None
            if (seconds is not None and index >= min_requests
                    and time.monotonic() - started >= seconds):
                return None
            state["next"] += 1
            return index

    def worker() -> None:
        client = Client(host, port)
        try:
            while True:
                index = take()
                if index is None:
                    return
                outcome = Outcome(index=index, seed=seeds[index])
                payload = {"seed": seeds[index]}
                if n is not None:
                    payload["n"] = n
                client.sample(endpoint, payload, outcome, check)
                with lock:
                    outcomes.append(outcome)
                    completed = len(outcomes)
                if on_completed is not None:
                    on_completed(completed)
        except BaseException as error:  # re-raised by the caller below
            with lock:
                errors.append(error)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name="client-{}".format(i))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError("load generator thread failed") from errors[0]
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes
