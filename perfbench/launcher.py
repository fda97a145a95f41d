"""Start the benchmark's op processes from a process that stays small.

On Linux a child's ``ru_maxrss`` includes its parent's peak RSS at the time
of the spawn: fork and vfork copy or share the parent's memory map, and exec
keeps its high-water mark.  The benchmark's own process grows as it reads and
parses outputs of several megabytes, so it asks this process, whose own
memory stays small, to spawn each op and report what ``wait4`` returns.

Usage: python3 perfbench/launcher.py <fd of a SOCK_SEQPACKET Unix socket>

Each request is one message holding the JSON-encoded argv, with the child's
stdout and stderr attached as file descriptors.  Children inherit this
process's working directory and environment.  Each request gets two JSON
replies: ``{"pid": ...}`` once the child runs, then
``{"status": ..., "maxrss_kb": ...}`` when it has ended.  An empty message or
a closed socket ends the loop.
"""

from __future__ import annotations

import json
import os
import socket
import sys


def _send(sock: socket.socket, obj: dict) -> None:
    sock.send(json.dumps(obj).encode())


def serve(sock: socket.socket) -> None:
    stdin = os.open(os.devnull, os.O_RDONLY)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
        if not msg:
            return
        argv = json.loads(msg)
        out, err = fds
        for fd in fds:
            os.set_inheritable(fd, False)
        try:
            pid = os.posix_spawn(
                argv[0],
                argv,
                os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, stdin, 0),
                    (os.POSIX_SPAWN_DUP2, out, 1),
                    (os.POSIX_SPAWN_DUP2, err, 2),
                ],
            )
        except OSError as exc:
            _send(sock, {"error": str(exc)})
            continue
        finally:
            os.close(out)
            os.close(err)
        _send(sock, {"pid": pid})
        _, status, usage = os.wait4(pid, 0)
        _send(sock, {"status": status, "maxrss_kb": usage.ru_maxrss})


if __name__ == "__main__":
    fd = int(sys.argv[1])
    os.set_inheritable(fd, False)
    serve(socket.socket(fileno=fd))
