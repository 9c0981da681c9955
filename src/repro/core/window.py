"""The dynamic adaptation window (paper sections 3.2 and 4.1, Fig. 9).

The window size controls how often the adaptation mechanism runs and how
much history it weighs.  H2O shrinks the window when the workload shifts
("progressively orchestrate a new adaptation phase") and grows it while
the workload is stable, bounding both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import EngineConfig

#: Multiplicative shrink on a detected shift and additive growth (in
#: queries) per stable adaptation phase: paper section 4.1 starts from a
#: 20-query window; halving reacts to a shift within one phase, and +6
#: lets stable workloads earn long windows so adaptation overhead decays.
WINDOW_SHRINK_FACTOR = 0.5
WINDOW_GROW_STEP = 6


@dataclass
class DynamicWindow:
    """Adaptation-window policy: when to adapt, how large the window is."""

    config: EngineConfig
    size: int = field(init=False)
    #: Queries executed since the last adaptation phase.
    since_adaptation: int = field(default=0, init=False)
    #: Count of shrink / grow events (exposed for experiments).
    shrink_events: int = field(default=0, init=False)
    grow_events: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.size = self.config.window_size

    def note_query(self) -> None:
        """One more query has been executed."""
        self.since_adaptation += 1

    def due(self) -> bool:
        """Whether an adaptation phase should run now."""
        return self.since_adaptation >= self.size

    def adapted(self) -> None:
        """An adaptation phase just ran; restart the countdown."""
        self.since_adaptation = 0

    def note_shift(self) -> None:
        """Workload shift detected → shrink multiplicatively, down to
        ``min_window``."""
        new_size = max(
            self.config.min_window, int(self.size * WINDOW_SHRINK_FACTOR)
        )
        if new_size != self.size:
            self.size = new_size
            self.shrink_events += 1

    def note_stable(self) -> None:
        """Workload looks stable → grow additively, up to ``max_window``."""
        new_size = min(self.config.max_window, self.size + WINDOW_GROW_STEP)
        if new_size != self.size:
            self.size = new_size
            self.grow_events += 1
