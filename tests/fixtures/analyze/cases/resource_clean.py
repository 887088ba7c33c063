"""Known-negative cases for ``resource-lifetime``: the sanctioned shapes.

Each pattern here is the cure for a positive in ``resource_bad.py`` —
``with`` blocks, ``try/finally`` release, deliberate escape (the caller
owns the handle), daemon threads, and the close-then-rename tempfile
publish from ``stream/refitter.py``.  The checker must stay silent.
"""

import os
import socket
import tempfile
import threading

_REGISTRY: dict[str, object] = {}


def managed_read(path: str) -> int:
    with open(path) as handle:
        return len(handle.read())


def finally_read(path: str) -> int:
    handle = open(path)
    try:
        return len(handle.read())
    finally:
        handle.close()


def escape_by_return(path: str):
    handle = open(path)
    return handle  # caller owns the handle now


def escape_by_registry(name: str) -> None:
    sock = socket.socket()
    _REGISTRY[name] = sock  # ownership moves to the registry


def daemon_watch(work) -> None:
    worker = threading.Thread(target=work, daemon=True)
    worker.start()


def prepared_thread(work) -> "threading.Thread":
    worker = threading.Thread(target=work)
    return worker  # never started here; the caller runs it


def publish_atomic(payload: bytes, destination: str) -> None:
    """The refitter._publish shape: close, then rename into place."""
    handle = tempfile.NamedTemporaryFile(
        mode="wb", delete=False, dir=os.path.dirname(destination)
    )
    try:
        handle.write(payload)
    finally:
        handle.close()
    os.replace(handle.name, destination)
