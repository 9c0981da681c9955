"""Indentation-aware source emission."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List


class SourceBuilder:
    """Accumulates Python source lines with managed indentation.

    >>> sb = SourceBuilder()
    >>> sb.line("def f(x):")
    >>> with sb.indented():
    ...     sb.line("return x + 1")
    >>> print(sb.render())
    def f(x):
        return x + 1
    """

    INDENT = "    "

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._depth = 0
        self._fresh: List[str] = []  # every name fresh() handed out

    def line(self, text: str = "") -> None:
        """Emit one line at the current indentation."""
        if text:
            self._lines.append(self.INDENT * self._depth + text)
        else:
            self._lines.append("")

    def lines(self, *texts: str) -> None:
        for text in texts:
            self.line(text)

    @contextmanager
    def indented(self) -> Iterator[None]:
        """Emit the body of a block one level deeper."""
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    @contextmanager
    def block(self, header: str) -> Iterator[None]:
        """Emit ``header`` then an indented body."""
        self.line(header)
        with self.indented():
            yield

    def fresh(self, prefix: str = "t") -> str:
        """A new unique local-variable name."""
        name = f"{prefix}{len(self._fresh)}"
        self._fresh.append(name)
        return name

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Emit ``del`` for every :meth:`fresh` name the body created.

        A generated kernel is straight-line code, so a named temporary
        otherwise keeps its array alive until the kernel returns.  Every
        fresh name must be bound on every path through the body.
        """
        start = len(self._fresh)
        yield
        if len(self._fresh) > start:
            self.line(f"del {', '.join(self._fresh[start:])}")

    def render(self) -> str:
        return "\n".join(self._lines)
