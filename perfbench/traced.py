"""Run one smirsim CLI command in-process with a span around every layer call.

Usage: python traced.py SPANS_JSON RUN_ID -- <smirsim arguments>

Every public module-level function of ``scenario``, ``infonet``,
``contactnet``, ``abm``, ``meanfield`` and ``cli`` is replaced, from outside,
by a wrapper that records a span; the CLI reaches its layers through module
attributes, so the wrappers see every call and no program file changes. Spans
are kept in memory and written once, when ``cli.main`` has ended, as a list of
``[name, start_s, end_s, parent_index, run_id, maxrss_kb_at_end]``.
The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

from layers import LAYERS


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id, 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._stack.pop()

        return traced

    def install(self, modules) -> list[str]:
        """Wrap the public functions each module defines; returns their span names."""
        names = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", fn))
                names.append(f"{layer}.{attr}")
        return names


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID -- <smirsim arguments>")
    modules = [importlib.import_module(f"smirsim.{layer}") for layer in LAYERS]
    tracer = Tracer(run_id)
    wrapped = tracer.install(modules)
    cli = modules[LAYERS.index("cli")]
    try:
        return cli.main(cli_argv)
    finally:
        Path(spans_path).write_text(json.dumps({
            "wrapped": wrapped,
            "spans": tracer.spans,
            "smirsim_file": sys.modules["smirsim"].__file__,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
