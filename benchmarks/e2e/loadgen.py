"""HTTP load for the serving workloads: the server process and its load.

:class:`ServerProcess` launches ``arcs serve`` exactly as deployed, as a
subprocess, reads the bound URL from the first line it prints, waits for
``/healthz`` and drains it with SIGTERM.

Load comes from this process alone: two threads, each with one
keep-alive connection.

* :func:`open_loop` sends on a fixed schedule, each thread at half the
  rate.  Latency is timed from when a request was due, so a stall also
  charges the requests queued behind it; how late the sender ran is
  recorded per request.
* :func:`closed_loop` sends each thread's next request as soon as the
  previous answer arrives.

Every answer is kept (model id and rule indices) for the offline oracle
check; nothing is validated while the clock runs.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from common import REPO_ROOT, vm_hwm_mb

THREADS = 2
_URL_RE = re.compile(r"http://([0-9.]+):([0-9]+)")


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


class ServerProcess:
    """One ``arcs serve`` subprocess, stdout and stderr logged to files."""

    def __init__(self, argv: list[str], log_dir: Path, label: str,
                 env: dict):
        self.argv = argv
        self.stdout_path = log_dir / f"{label}.out"
        self.stderr_path = log_dir / f"{label}.err"
        with open(self.stdout_path, "w") as out, \
                open(self.stderr_path, "w") as err:
            self.process = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=REPO_ROOT, env=env,
            )
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Parse the URL from the first stdout line, then poll
        ``/healthz`` until it answers 200."""
        deadline = perf_counter() + timeout
        while not self.port:
            match = _URL_RE.search(self.stdout_path.read_text())
            if match is not None:
                self.host, self.port = match.group(1), int(match.group(2))
            elif self.process.poll() is not None:
                raise ServerError(self._failure("exited before binding"))
            elif perf_counter() > deadline:
                raise ServerError(self._failure("printed no URL"))
            else:
                time.sleep(0.01)
        while True:
            try:
                status, body = request(self.host, self.port, "GET",
                                       "/healthz", timeout=5.0)
                if status == 200 and body.get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException):
                pass  # workers not accepting yet
            if self.process.poll() is not None:
                raise ServerError(self._failure("exited before healthy"))
            if perf_counter() > deadline:
                raise ServerError(self._failure("never became healthy"))
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The largest peak resident set among the server's processes:
        the server itself and the workers it forked."""
        pids = [self.process.pid]
        for children in Path(f"/proc/{self.process.pid}/task").glob(
                "*/children"):
            try:
                pids += [int(pid) for pid in children.read_text().split()]
            except OSError:
                pass  # that thread just exited
        return max(vm_hwm_mb(pid) for pid in pids)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain) and wait; kill if it hangs.
        Returns the exit code.

        Workers share one blocking listening socket: a worker that lost
        the race for a connection sits in ``accept()`` and cannot see
        the drain until another connection arrives, which stalls the
        drain for its whole timeout.  Empty connections while waiting
        release such a worker.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        deadline = perf_counter() + timeout
        while self.process.poll() is None:
            if perf_counter() > deadline:
                self.process.kill()
                self.process.wait()
                raise ServerError(self._failure("did not drain on SIGTERM"))
            if self.port:
                try:
                    with socket.create_connection((self.host, self.port),
                                                  timeout=0.5):
                        pass
                except OSError:
                    pass  # listener already closed
            try:
                self.process.wait(timeout=0.1)
            except subprocess.TimeoutExpired:
                pass
        return self.process.returncode

    def _failure(self, what: str) -> str:
        return (f"server {' '.join(self.argv)} {what}; stderr tail: "
                f"{self.stderr_path.read_text()[-2000:]}")


def request(host: str, port: int, method: str, path: str,
            timeout: float = 30.0) -> tuple[int, dict]:
    """One request on a fresh connection (control traffic, not load)."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


@dataclass
class Answer:
    """One sent request: when it was due, sent and answered, and what
    came back (``rule`` is a list for batches; ``-1`` = no rule)."""

    point: int
    due: float
    sent: float
    done: float
    status: int
    model: str | None = None
    rule: object = None


@dataclass
class Phase:
    """Every answer one load phase collected, plus its wall time."""

    name: str
    answers: list[Answer] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> list[Answer]:
        return [answer for answer in self.answers if answer.status == 200]


class _Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.connection = http.client.HTTPConnection(host, port,
                                                     timeout=30.0)

    def post(self, path: str, body: bytes) -> tuple[int, dict | None]:
        try:
            self.connection.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=30.0
            )
            return 0, None
        if response.status != 200:
            return response.status, None
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return 0, None  # a 200 without a JSON body is a failure

    def close(self) -> None:
        self.connection.close()


def _record(answers: list[Answer], point: int, due: float, sent: float,
            status: int, body: dict | None) -> None:
    done = perf_counter()
    answer = Answer(point, due, sent, done, status)
    if body is not None:
        answer.model = body.get("model")
        rule = body.get("rule")
        answer.rule = (
            [-1 if value is None else value for value in rule]
            if isinstance(rule, list) else (-1 if rule is None else rule)
        )
    answers.append(answer)


def _run_threads(sender, during, end: float) -> None:
    """Run ``sender(slot)`` on each load thread; the calling thread runs
    ``during(end)`` meanwhile, then joins them."""
    threads = [
        threading.Thread(target=sender, args=(slot,),
                         name=f"e2e-load-{slot}")
        for slot in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    try:
        if during is not None:
            during(end)
    finally:
        for thread in threads:
            thread.join()


def open_loop(name: str, host: str, port: int, path: str,
              bodies: list[bytes], rate: float, seconds: float,
              during=None) -> Phase:
    """``rate`` requests/s for ``seconds``, on a fixed schedule.

    Request ``k`` of the whole phase is due at ``start + k / rate`` and
    goes to thread ``k % 2``, so each thread sends at half the rate.  A
    thread that falls behind sends immediately; it never skips.
    ``during(end)`` runs on the calling thread while the load runs,
    ``end`` being when the schedule ends.
    """
    total = int(rate * seconds)
    per_thread: list[list[Answer]] = [[] for _ in range(THREADS)]
    start = perf_counter() + 0.05

    def sender(slot: int) -> None:
        client = _Client(host, port)
        try:
            for index in range(slot, total, THREADS):
                due = start + index / rate
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = perf_counter()
                point = index % len(bodies)
                status, body = client.post(path, bodies[point])
                _record(per_thread[slot], point, due, sent, status, body)
        finally:
            client.close()

    _run_threads(sender, during, start + seconds)
    phase = Phase(name, seconds=perf_counter() - start)
    for answers in per_thread:
        phase.answers.extend(answers)
    return phase


def closed_loop(name: str, host: str, port: int, path: str,
                bodies: list[bytes], seconds: float,
                during=None) -> Phase:
    """Each thread sends back to back for ``seconds``; ``during(end)``
    as in :func:`open_loop`."""
    per_thread: list[list[Answer]] = [[] for _ in range(THREADS)]
    start = perf_counter()
    deadline = start + seconds

    def sender(slot: int) -> None:
        client = _Client(host, port)
        try:
            index = slot
            while perf_counter() < deadline:
                point = index % len(bodies)
                index += THREADS
                sent = perf_counter()
                status, body = client.post(path, bodies[point])
                _record(per_thread[slot], point, sent, sent, status, body)
        finally:
            client.close()

    _run_threads(sender, during, deadline)
    phase = Phase(name, seconds=perf_counter() - start)
    for answers in per_thread:
        phase.answers.extend(answers)
    return phase
