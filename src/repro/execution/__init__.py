"""Query execution: strategies, the morsel scan, results.

Two execution strategies coexist, mirroring the paper (section 3.3):

- **Fused scan**: volcano-style single pass with predicate push-down —
  the natural strategy for row-major and group layouts (Fig. 5).
- **Late materialization**: column-store style — each conjunct refines
  a list of qualifying positions, and the qualifying values are
  gathered into intermediate columns (Fig. 6).

Both strategies exist in two forms: the *interpreted* form, one plain
morsel function each in :mod:`repro.execution.interpreted` (the
"generic operator" of Fig. 14, paying tree-walking dispatch per
operator), and the *generated* form produced by :mod:`repro.codegen`.
Either form runs inside the one morsel loop of
:mod:`repro.execution.morsel` and, over any layout combination, must
return identical results; the integration tests assert exactly that.
"""

from .result import QueryResult
from .strategies import AccessPlan, ExecutionStrategy, enumerate_plans
from .executor import ExecStats, Executor

__all__ = [
    "QueryResult",
    "AccessPlan",
    "ExecutionStrategy",
    "enumerate_plans",
    "Executor",
    "ExecStats",
]
