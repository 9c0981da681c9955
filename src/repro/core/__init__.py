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
  (the regret-bounded ledger; greedy at ``hedging_factor = 0``),
- :mod:`~repro.core.layout_manager` — owns the physical layouts, and
  its :class:`Adaptation` runs monitor → window → advisor → policy →
  online builds: whether a query builds a layout,
- :mod:`~repro.core.reorganizer` — online data reorganization (a fused
  scan that stitches each morsel of the new group before answering it),
- :mod:`~repro.core.planner` — how a query runs over the layouts there
  are: plan enumeration, Eq. 2 choice, zone-map binding, selectivity
  feedback and the plan cache (a query shape's cached stage outputs),
- :mod:`~repro.core.engine` — prepare/run/finish around the two halves:
  deadlines, the codegen quarantine, telemetry, learned-state
  persistence.
"""

from .adaptation_policy import AdaptationPolicy, LedgerEntry, SwitchRecord
from .affinity import AffinityMatrix
from .cost_model import CostModel, SelectivityEstimator
from .monitor import AccessPattern, Monitor
from .window import DynamicWindow
from .history import ShiftDetector
from .advisor import CandidateLayout, LayoutAdvisor
from .layout_manager import Adaptation, LayoutManager
from .planner import CachedPlan, PlanCache, Planner
from .reorganizer import Reorganizer
from .engine import H2OEngine, QueryReport
from .system import H2OSystem

__all__ = [
    "AdaptationPolicy",
    "LedgerEntry",
    "SwitchRecord",
    "AffinityMatrix",
    "CostModel",
    "SelectivityEstimator",
    "Monitor",
    "AccessPattern",
    "DynamicWindow",
    "ShiftDetector",
    "LayoutAdvisor",
    "CandidateLayout",
    "Adaptation",
    "LayoutManager",
    "Planner",
    "PlanCache",
    "CachedPlan",
    "Reorganizer",
    "H2OEngine",
    "H2OSystem",
    "QueryReport",
]
