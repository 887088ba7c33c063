"""Known-positive cases for ``resource-lifetime``.

Parsed, never imported.  Expected findings:

1. ``leak_on_branch`` — the early-return path drops an open file;
2. ``double_close`` — the handle is closed on every path, then again;
3. ``thread_never_joined`` — a non-daemon thread is started, never
   joined, and never escapes the frame;
4. ``leak_by_rebind`` — the first socket is dropped, still open, when
   the name is rebound to a second one.
"""

import socket
import threading


def leak_on_branch(path: str, strict: bool) -> int:
    handle = open(path)
    if strict:
        return 0  # leaks 'handle'
    data = len(handle.read())
    handle.close()
    return data


def double_close(path: str) -> str:
    handle = open(path)
    text = handle.read()
    handle.close()
    handle.close()  # second close is certain
    return text


def thread_never_joined(work) -> None:
    worker = threading.Thread(target=work)
    worker.start()
    # never joined, not daemonic, never escapes


def leak_by_rebind(host: str) -> None:
    sock = socket.socket()
    sock = socket.socket()  # first socket leaks
    sock.connect((host, 80))
    sock.close()
