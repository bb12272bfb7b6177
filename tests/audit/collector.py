"""Records which functions of an audited source tree a process calls, and
which of their defaulted parameters it sets.

The audit copies this file to the root of the tree it audits as
``sitecustomize.py``; every flow runs with that root on ``PYTHONPATH``, so
the interpreter imports it before ``__main__`` in every process a flow
starts -- the CLI, nightbench's workers (which set their own ``PYTHONPATH``
to the same root), the catalog daemon, a spawned pool worker.  A forked
worker inherits the hooks.  The first call of each code object whose file
lies under ``$AUDIT_SRC`` appends ``file:first-line`` to ``$AUDIT_LOG`` at
once, in one ``write`` to an ``O_APPEND`` descriptor, so a pool worker that
leaves through ``os._exit`` (no ``atexit``) loses nothing.

Knobs: the first call of a public function, method or dataclass
``__init__`` under ``$AUDIT_SRC`` also appends ``knob<TAB>key<TAB>0`` for
each defaulted parameter whose name does not start with ``_`` (``key`` is
``file::Qualified.name(param)``, a class's ``__init__`` written
``Class(param)``), and the first call that
passes a value other than the default -- not the default object itself,
and not ``==`` to it -- appends the same line ending in ``1``.  A dataclass
``__init__`` is generated code whose file is not under ``$AUDIT_SRC``; it is
resolved through ``type(self)`` and its defaults through
``__init__.__defaults__``.
"""

import dataclasses
import os
import sys
import threading


def _public(qualname: str) -> bool:
    return "<" not in qualname and all(
        not part.startswith("_") or part.startswith("__") and part.endswith("__")
        for part in qualname.split("."))


def _function(frame, code, src):
    """(function object, qualified name, file) of what a frame runs, or None."""
    if code.co_filename.startswith(src):
        obj = frame.f_globals
        for part in code.co_qualname.split("."):
            obj = obj.get(part) if isinstance(obj, dict) else vars(obj).get(part)
            if obj is None:
                return None
        obj = getattr(obj, "__func__", obj)
        obj = getattr(obj, "__wrapped__", obj)
        if getattr(obj, "__code__", None) is not code:
            return None
        return obj, code.co_qualname, code.co_filename
    if code.co_name != "__init__" or not code.co_varnames:
        return None
    # a dataclass's generated __init__: find the class that owns this code
    for owner in type(frame.f_locals.get(code.co_varnames[0])).__mro__:
        init = vars(owner).get("__init__")
        if getattr(init, "__code__", None) is code:
            module = sys.modules.get(owner.__module__)
            if (dataclasses.is_dataclass(owner) and module is not None and
                    (getattr(module, "__file__", None) or "").startswith(src)):
                return init, owner.__qualname__ + ".__init__", module.__file__
            return None
    return None


def _knobs(fn):
    """(parameter, default) of every public defaulted parameter of ``fn``."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    pairs = list(zip(names[len(names) - len(defaults):], defaults))
    pairs += list((fn.__kwdefaults__ or {}).items())
    return [(name, default) for name, default in pairs if not name.startswith("_")]


def _same(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default) is True
    except Exception:
        return False


def install(src: str, log: str) -> None:
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen = set()
    unset = {}  # code -> (key prefix, [(param, default)]) still at default

    def first_call(frame, code):
        try:
            found = _function(frame, code, src)
        except Exception:  # an object the walk cannot read: no knobs
            return
        if found is None:
            return
        fn, qualname, path = found
        if not _public(qualname):
            return
        name = qualname.removesuffix(".__init__")
        prefix = f"{path[len(src):]}::{name}"
        knobs = _knobs(fn)
        if knobs:
            unset[code] = (prefix, knobs)
            os.write(fd, "".join(f"knob\t{prefix}({p})\t0\n"
                                 for p, _ in knobs).encode())

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                if code.co_filename.startswith(src):
                    line = f"{code.co_filename}:{code.co_firstlineno}\n"
                    os.write(fd, line.encode())
                if code.co_filename.startswith(src) or code.co_name == "__init__":
                    first_call(frame, code)
            entry = unset.get(code)
            if entry is not None:
                prefix, knobs = entry
                values = frame.f_locals
                set_now = [p for p, d in knobs if not _same(values.get(p, d), d)]
                if set_now:
                    os.write(fd, "".join(f"knob\t{prefix}({p})\t1\n"
                                         for p in set_now).encode())
                    still = [(p, d) for p, d in knobs if p not in set_now]
                    if still:
                        unset[code] = (prefix, still)
                    else:
                        del unset[code]

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("AUDIT_SRC") and os.environ.get("AUDIT_LOG"):
    install(os.environ["AUDIT_SRC"], os.environ["AUDIT_LOG"])
