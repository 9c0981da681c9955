"""The H2O core: continuous, query-driven layout & strategy adaptation.

Components map one-to-one onto the paper's architecture (Fig. 3):

- :mod:`~repro.core.monitor` + :mod:`~repro.core.affinity` — access
  statistics over a window of recent queries (two affinity matrices),
- :mod:`~repro.core.window` — the dynamic adaptation window,
- :mod:`~repro.core.history` — workload-shift detection,
- :mod:`~repro.core.cost_model` — I/O + cache-miss cost model (Eq. 2),
- :mod:`~repro.core.advisor` — candidate-layout generation by iterative
  merging, costed with workload + transformation cost (Eq. 1),
- :mod:`~repro.core.adaptation_policy` — the layout-switching policy
  (greedy-paper vs the regret-bounded guarded ledger),
- :mod:`~repro.core.layout_manager` — owns the physical layouts,
- :mod:`~repro.core.reorganizer` — offline and online (fused with query
  execution) data reorganization,
- :mod:`~repro.core.plan_cache` — the steady-state fast lane: cached
  (plan, kernel, parameter extractor) per query shape signature,
- :mod:`~repro.core.engine` — the query processor tying it together.
"""

from .adaptation_policy import (
    AdaptationPolicy,
    GuardedPolicy,
    LedgerEntry,
    SwitchRecord,
    make_policy,
)
from .affinity import AffinityMatrix
from .cost_model import CostModel, SelectivityEstimator
from .monitor import AccessPattern, Monitor
from .window import DynamicWindow
from .history import ShiftDetector
from .advisor import CandidateLayout, LayoutAdvisor
from .layout_manager import LayoutManager
from .plan_cache import CachedPlan, PlanCache
from .reorganizer import Reorganizer
from .engine import H2OEngine, QueryReport
from .system import H2OSystem

__all__ = [
    "AdaptationPolicy",
    "GuardedPolicy",
    "LedgerEntry",
    "SwitchRecord",
    "make_policy",
    "AffinityMatrix",
    "CostModel",
    "SelectivityEstimator",
    "Monitor",
    "AccessPattern",
    "DynamicWindow",
    "ShiftDetector",
    "LayoutAdvisor",
    "CandidateLayout",
    "LayoutManager",
    "PlanCache",
    "CachedPlan",
    "Reorganizer",
    "H2OEngine",
    "H2OSystem",
    "QueryReport",
]
