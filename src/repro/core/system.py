"""Multi-table facade: one adaptive engine per registered table.

The paper's prototype (and :class:`~repro.core.engine.H2OEngine`) serve
one relation; a database holds many.  :class:`H2OSystem` wraps a
:class:`~repro.storage.catalog.Catalog` and lazily maintains one
independent H2O engine per table — each with its own monitor, window,
candidate pool and operator cache, since adaptation state is strictly
per-relation.  Queries are routed by their FROM table.

The facade is thread-safe: engine creation and catalog changes are
serialized by an internal lock (double-checked so the steady-state
lookup is a single dict read), and each engine is itself safe for
concurrent :meth:`H2OEngine.execute` calls — the
:class:`repro.service.H2OService` worker pool routes straight through
here.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple, Union

from ..config import EngineConfig
from ..errors import CatalogError
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.catalog import Catalog
from ..storage.relation import Table
from .engine import H2OEngine, QueryReport


class H2OSystem:
    """Adaptive query processing over a catalog of tables."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.catalog = catalog or Catalog()
        self.config = config or EngineConfig()
        self._engines: Dict[str, H2OEngine] = {}
        #: Serializes engine creation and catalog mutation; never held
        #: during query execution.
        self._lock = threading.Lock()

    # Catalog management -----------------------------------------------------

    def register(self, table: Table, replace: bool = False) -> None:
        """Add a table; its engine is created on first query."""
        with self._lock:
            self.catalog.register(table, replace=replace)
            if replace:
                self._engines.pop(table.name, None)

    def drop(self, name: str) -> None:
        """Remove a table and its adaptation state."""
        with self._lock:
            self.catalog.drop(name)
            self._engines.pop(name, None)

    def engine_for(self, name: str) -> H2OEngine:
        """The (lazily created) engine serving table ``name``."""
        engine = self._engines.get(name)
        if engine is None:
            with self._lock:
                engine = self._engines.get(name)
                if engine is None:
                    table = self.catalog.get(name)
                    engine = H2OEngine(table, self.config)
                    self._engines[name] = engine
        return engine

    def engines(self) -> Tuple[H2OEngine, ...]:
        """All engines created so far (a consistent copy)."""
        with self._lock:
            return tuple(self._engines.values())

    # Querying ------------------------------------------------------------------

    def execute(
        self,
        query: Union[Query, str],
        deadline: Optional[float] = None,
    ) -> QueryReport:
        """Route a query to its table's engine and execute it.

        ``deadline`` (absolute ``time.monotonic()`` instant, or
        ``None``) is passed straight through to
        :meth:`H2OEngine.execute` — the service uses it so a ticket
        whose deadline already passed never starts a new engine stage.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if query.table not in self.catalog:
            raise CatalogError(
                f"unknown table {query.table!r} (registered: "
                + (", ".join(sorted(self.catalog)) or "<none>")
                + ")"
            )
        return self.engine_for(query.table).execute(
            query, deadline=deadline
        )

    def run_sequence(self, queries) -> List[QueryReport]:
        return [self.execute(q) for q in queries]

    # Reporting -------------------------------------------------------------------

    def cumulative_seconds(self) -> float:
        return sum(
            engine.cumulative_seconds() for engine in self.engines()
        )

    def describe(self) -> str:
        """Status of every active engine."""
        with self._lock:
            engines = dict(self._engines)
        if not engines:
            return (
                f"H2O system: {len(self.catalog)} table(s) registered, "
                "no queries yet"
            )
        parts = []
        for name in sorted(engines):
            parts.append(engines[name].describe())
        return "\n\n".join(parts)
