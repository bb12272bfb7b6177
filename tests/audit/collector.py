"""Records which functions of an audited source tree a process calls.

The audit copies this file to the root of the tree it audits as
``sitecustomize.py``; every flow runs with that root on ``PYTHONPATH``, so
the interpreter imports it before ``__main__`` in every process a flow
starts -- the CLI, nightbench's workers (which set their own ``PYTHONPATH``
to the same root), the catalog daemon, a spawned pool worker.  A forked
worker inherits the hooks.  The first call of each code object whose file
lies under ``$AUDIT_SRC`` appends ``file:first-line`` to ``$AUDIT_LOG`` at
once, in one ``write`` to an ``O_APPEND`` descriptor, so a pool worker that
leaves through ``os._exit`` (no ``atexit``) loses nothing.
"""

import os
import sys
import threading


def install(src: str, log: str) -> None:
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(src):
                    line = f"{code.co_filename}:{code.co_firstlineno}\n"
                    os.write(fd, line.encode())

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("AUDIT_SRC") and os.environ.get("AUDIT_LOG"):
    install(os.environ["AUDIT_SRC"], os.environ["AUDIT_LOG"])
