"""Compilation and "linking" of generated operator source.

The paper compiles generated C++ with an external compiler into a shared
library and dynamically links it into the running engine; the Python
analog is :func:`compile` + ``exec`` into a fresh namespace.  Compilation
time is real here too and is measured by the generator so it can be
charged to the triggering query.
"""

from __future__ import annotations

import itertools
import linecache
from typing import Callable, Tuple

import numpy as np

from ..errors import CodegenError
from ..util.faultpoints import fault_point

_counter = itertools.count()


def compile_kernel(
    source: str, kernel_name: str = "kernel"
) -> Tuple[Callable, str]:
    """Compile generated ``source`` and return (function, filename).

    The source is registered with :mod:`linecache` under a synthetic
    filename so tracebacks from inside generated operators show the
    generated lines — the debuggability equivalent of keeping the
    emitted ``.cpp`` files around.
    """
    filename = f"<h2o-operator-{next(_counter)}>"
    # Injectable failure site: a compiler rejecting generated source.
    # The testkit raises CodegenError here; the executor's interpreted
    # fallback must then answer the query identically (see
    # Executor.run_plan and docs/testing.md).
    fault_point("codegen.compile", kernel_name=kernel_name)
    try:
        code = compile(source, filename, "exec")
    except SyntaxError as exc:
        raise CodegenError(
            f"generated source does not compile: {exc}\n--- source ---\n"
            f"{source}"
        ) from exc
    namespace = {"np": np}
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    try:
        function = namespace[kernel_name]
    except KeyError:
        raise CodegenError(
            f"generated source defines no {kernel_name!r} function"
        ) from None
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    function.__h2o_source__ = source
    return function, filename
