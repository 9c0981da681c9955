"""H2O: A Hands-free Adaptive Store — a full Python reproduction.

Reproduces Alagiannis, Idreos & Ailamaki, *H2O: A Hands-free Adaptive
Store*, SIGMOD 2014: an analytical engine that continuously adapts its
physical data layouts (row-major, column-major, groups of columns), its
execution strategies (fused scans vs. late materialization), and its
operator code (generated on the fly, cached) to the observed workload —
with no a-priori tuning.

Quickstart::

    from repro import H2OEngine, generate_table

    table = generate_table("r", num_attrs=50, num_rows=100_000, rng=7)
    engine = H2OEngine(table)
    report = engine.execute(
        "SELECT sum(a1 + a2 + a3) FROM r WHERE a4 < 0 AND a5 > 0"
    )
    print(report.result.scalars(), report.seconds, report.plan)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
reproduction of every table and figure in the paper's evaluation.
"""

from .config import EngineConfig, MachineProfile
from .errors import H2OError
from .sql import Query, QueryBuilder, col, lit, parse_query
from .storage import (
    Attribute,
    Catalog,
    ColumnGroup,
    Schema,
    SingleColumn,
    Table,
    generate_table,
    wide_schema,
)
from .execution import ExecutionStrategy, QueryResult
from .core import CostModel, H2OEngine, H2OSystem, QueryReport
from .service import H2OService, QueryFuture
from .baselines import (
    AutoPartEngine,
    ColumnStoreEngine,
    OptimalEngine,
    RowStoreEngine,
)

__version__ = "1.0.0"

__all__ = [
    "EngineConfig",
    "MachineProfile",
    "H2OError",
    "Query",
    "QueryBuilder",
    "col",
    "lit",
    "parse_query",
    "Attribute",
    "Schema",
    "Table",
    "Catalog",
    "ColumnGroup",
    "SingleColumn",
    "generate_table",
    "wide_schema",
    "ExecutionStrategy",
    "QueryResult",
    "CostModel",
    "H2OEngine",
    "H2OSystem",
    "H2OService",
    "QueryFuture",
    "QueryReport",
    "RowStoreEngine",
    "ColumnStoreEngine",
    "OptimalEngine",
    "AutoPartEngine",
    "__version__",
]
