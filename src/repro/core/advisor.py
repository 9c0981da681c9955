"""The layout advisor: candidate generation + selection (paper Eq. 1).

Determining the optimal layout is vertical partitioning (NP-hard), so
H2O prunes aggressively (paper section 3.2, "Alternative Data Layouts"):

1. The initial configuration contains the *narrowest* useful groups —
   the distinct SELECT-clause and WHERE-clause attribute sets observed
   in the monitoring window ("attributes accessed together within a
   query").
2. The solution is improved iteratively by *merging* narrow groups with
   groups generated in previous iterations, reducing the group-joining
   overhead for queries that span groups.
3. Every configuration is scored with
   ``cost(W, C) = Σ_j q_j(C) + T(C_prev, C)`` — the windowed workload
   cost under the configuration plus the transformation cost of the new
   layouts — so a layout is proposed only when its creation can be
   amortized.

The advisor does not materialize anything: it emits a ranked pool of
:class:`CandidateLayout` proposals; the engine materializes a candidate
lazily, the first time a query both matches it and can amortize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..config import EngineConfig
from ..execution.strategies import MAX_FUSED_SINGLES, MAX_FUSED_STREAMS
from ..sql.analyzer import QueryInfo, analyze_query
from ..storage.relation import Table
from ..storage.schema import popcount as _popcount
from .cost_model import CostModel, GroupSpec, SpecCover
from .monitor import Monitor

#: Groups one adaptation phase may select; the engine's accumulated
#: candidate pool keeps twice as many.
MAX_CANDIDATES = 8

#: Estimated future uses of a proposed layout, as a multiple of its
#: observed windowed frequency ("the benefit of a new data layout
#: depends on ... how many times H2O is going to use it", paper section
#: 3.2): a pattern seen k times in the window is expected to recur about
#: this-times-k more before it fades.
FUTURE_USE_MULTIPLIER = 2.0


@dataclass(frozen=True)
class CandidateLayout:
    """One proposed column group awaiting lazy materialization."""

    attrs: Tuple[str, ...]
    #: Windowed queries whose full access set the group covers.
    frequency: int
    #: Mean cost saving per covered query (model units/seconds).
    benefit_per_use: float
    #: Estimated transformation cost to build the group (Eq. 1's T).
    build_cost: float
    origin: str  # "select" | "where" | "merge"

    @property
    def attr_set(self) -> FrozenSet[str]:
        return frozenset(self.attrs)

    @property
    def ledger_key(self) -> FrozenSet[str]:
        """Pool/ledger/quarantine identity: the attribute set."""
        return self.attr_set

    @property
    def expected_gain(self) -> float:
        """Net windowed gain: amortized benefit minus build cost."""
        return self.benefit_per_use * self.frequency - self.build_cost

    def covers(self, attrs: FrozenSet[str]) -> bool:
        """Whether a query touching ``attrs`` can be served entirely
        from this group."""
        return bool(attrs) and attrs <= self.attr_set

    def serves(
        self, select_attrs: FrozenSet[str], where_attrs: FrozenSet[str]
    ) -> bool:
        """Whether a query benefits from this candidate: the group covers
        the whole access set, or one full clause (a select group feeds
        the projection/aggregation, a where group drives the selection
        vector — Fig. 6)."""
        all_attrs = select_attrs | where_attrs
        if not all_attrs:
            return False
        if all_attrs <= self.attr_set:
            return True
        if select_attrs and select_attrs <= self.attr_set:
            return True
        return bool(where_attrs) and where_attrs <= self.attr_set


# Eq. 1 costing over attribute bitmasks ------------------------------------------
#
# The advisor runs inside query processing (paper section 3.2), so its
# covers are integer operations: one bit per attribute, a group is a
# (mask, width) pair, and single-column layouts are one ``singles`` mask
# rather than groups, so the greedy scans only multi-attribute groups.

#: A multi-attribute group as the search sees it: (attribute mask, width).
_Group = Tuple[int, int]


class _Pattern:
    """One windowed query shape, plus the parts of its covers that only
    depend on the configuration the phase started from."""

    __slots__ = ("info", "all", "select", "where", "groups", "order",
                 "singles", "narrow")

    def __init__(
        self,
        info: QueryInfo,
        costing: "_Costing",
        multi: Sequence[_Group],
        singles: int,
    ) -> None:
        self.info = info
        self.all = costing.mask(info.all_attrs)
        self.select = costing.mask(info.select_attrs)
        self.where = costing.mask(info.where_attrs)
        self.singles = singles
        #: The configuration's groups this pattern touches, in order.
        self.groups = [group for group in multi if group[0] & self.all]
        #: Attribute bits in ``frozenset(all_attrs)`` order — the order
        #: that fixes the narrow cover's spec order and so the float
        #: sums of Eq. 2.
        self.order = [costing.bits[a] for a in frozenset(info.all_attrs)]
        self.narrow = self._narrowest(self.groups)

    def greedy_cover(
        self, extra: Sequence[_Group]
    ) -> Optional[Tuple[int, ...]]:
        """Greedy fewest-layouts cover over the configuration's groups
        then ``extra``: each step takes the group covering most of what
        remains, then the narrower, then the earlier one.  Leftovers
        fall back to singles (in name order)."""
        groups = self.groups + list(extra)
        remaining = self.all
        chosen: List[int] = []
        while remaining:
            best = best_covered = best_width = 0
            for mask, width in groups:
                covered = _popcount(remaining & mask)
                if covered > best_covered or (
                    covered == best_covered and width < best_width
                ):
                    best, best_covered, best_width = mask, covered, width
            if not best:
                break
            chosen.append(best)
            remaining &= ~best
        if remaining & ~self.singles:
            return None
        while remaining:
            bit = remaining & -remaining
            chosen.append(bit)
            remaining ^= bit
        return tuple(chosen)

    def narrowest_cover(
        self, extra: Sequence[_Group]
    ) -> Optional[Tuple[int, ...]]:
        """Per-attribute narrowest provider (column-store-ish cover)."""
        touched = 0
        for mask, _ in extra:
            touched |= mask
        if not touched & self.all & ~self.singles:
            # Single columns always win, so ``extra`` changes nothing.
            return self.narrow
        return self._narrowest(self.groups + list(extra))

    def _narrowest(
        self, groups: Sequence[_Group]
    ) -> Optional[Tuple[int, ...]]:
        chosen: List[int] = []
        for bit in self.order:
            provider = width = 0
            if bit & self.singles:
                provider = bit
            else:
                for mask, group_width in groups:
                    if mask & bit and (not provider or group_width < width):
                        provider, width = mask, group_width
                if not provider:
                    return None
            if provider not in chosen:
                chosen.append(provider)
        return tuple(chosen)


class _Costing:
    """The q_j(C) terms of Eq. 1 for one configuration, over bitmasks.

    Bits are assigned in attribute-name order, so leftover singles come
    out sorted.  The Eq. 2 pricing — the ``fused_cost``/``late_cost``
    minimum over the cover variants — is memoized by (pattern, covers):
    nothing it reads (layouts, selectivity estimates) changes while one
    object lives, which is one :meth:`LayoutAdvisor.propose` call.  The
    counted specs of a (cover, clause) pair depend on the layout epoch
    only, so ``carried`` hands over the previous phase's.
    """

    def __init__(
        self,
        advisor: "LayoutAdvisor",
        infos: Sequence[QueryInfo],
        extra_groups: Sequence[FrozenSet[str]] = (),
        carried: Optional[Dict[Tuple[Tuple[int, ...], int], SpecCover]] = None,
    ) -> None:
        table = advisor.table
        self.bits = {
            name: 1 << k for k, name in enumerate(sorted(table.schema.names))
        }
        self.cost_model = advisor.cost_model
        self.num_rows = table.num_rows
        self._groups: Dict[FrozenSet[str], _Group] = {}
        multi: List[_Group] = []
        singles = 0
        for attrs in [layout.attrs for layout in table.layouts] + list(
            extra_groups
        ):
            mask = self.mask(attrs)
            width = _popcount(mask)
            if width == 1:
                singles |= mask
            elif width:
                multi.append((mask, width))
        self.patterns = [
            _Pattern(info, self, multi, singles) for info in infos
        ]
        self._memo: Dict[Tuple[int, Tuple[Tuple[int, ...], ...]], float] = {}
        self._specs: Dict[Tuple[Tuple[int, ...], int], SpecCover] = {}
        self._carried = carried or {}

    def mask(self, attrs: Iterable[str]) -> int:
        bits = self.bits
        mask = 0
        for attr in attrs:
            mask |= bits[attr]
        return mask

    def group(self, attrs: FrozenSet[str]) -> _Group:
        """``attrs`` as a (mask, width) pair, memoized per group."""
        group = self._groups.get(attrs)
        if group is None:
            mask = self.mask(attrs)
            group = self._groups[attrs] = (mask, _popcount(mask))
        return group

    def cost(self, index: int, extra: Sequence[_Group] = ()) -> float:
        """Best estimated cost of pattern ``index`` with ``extra``
        hypothetical groups added to the configuration."""
        pattern = self.patterns[index]
        variants: List[Tuple[int, ...]] = []
        greedy = pattern.greedy_cover(extra)
        if greedy is not None:
            variants.append(greedy)
        narrow = pattern.narrowest_cover(extra)
        if narrow is not None and narrow not in variants:
            variants.append(narrow)
        key = (index, tuple(variants))
        cost = self._memo.get(key)
        if cost is None:
            cost = self._memo[key] = self._price(pattern, variants)
        return cost

    def _price(
        self, pattern: _Pattern, variants: Sequence[Tuple[int, ...]]
    ) -> float:
        """Minimum Eq. 2 estimate over cover variants × legal strategies."""
        info = pattern.info
        costs: List[float] = []
        for cover in variants:
            specs = (
                self._spec_cover(cover, pattern.select),
                self._spec_cover(cover, pattern.where),
            )
            # Mirror the planner's fused_allowed rule: anchored by a
            # tuple-bearing group, few singleton streams, few streams.
            if len(cover) <= MAX_FUSED_STREAMS and (
                sum(1 for mask in cover if not mask & (mask - 1))
                <= min(MAX_FUSED_SINGLES, len(cover) - 1)
            ):
                costs.append(self.cost_model.fused_cost(info, *specs))
            costs.append(self.cost_model.late_cost(info, *specs))
        if not costs:
            raise ValueError(
                f"no group cover for attributes {sorted(info.all_attrs)}"
            )
        return min(costs)

    def _spec_cover(self, cover: Tuple[int, ...], needed: int) -> SpecCover:
        """The accesses ``cover`` makes for the ``needed`` attributes,
        counted once per (cover, needed) pair and layout epoch.  Equal
        specs are counted on their (width, useful) pair, which keeps the
        first-seen order a ``Counter`` of the specs would."""
        key = (cover, needed)
        specs = self._specs.get(key)
        if specs is None:
            specs = self._carried.get(key)
            if specs is None:
                counts: Dict[Tuple[int, int], int] = {}
                order: List[GroupSpec] = []
                for mask in cover:
                    useful = needed & mask
                    if useful:
                        shape = (_popcount(mask), _popcount(useful))
                        order.append(GroupSpec.of(*shape, self.num_rows))
                        counts[shape] = counts.get(shape, 0) + 1
                specs = SpecCover(
                    order,
                    tuple(
                        (GroupSpec.of(*shape, self.num_rows), count)
                        for shape, count in counts.items()
                    ),
                )
            self._specs[key] = specs
        return specs


class LayoutAdvisor:
    """Generates and ranks candidate column groups for one table."""

    def __init__(
        self,
        table: Table,
        cost_model: CostModel,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.table = table
        self.cost_model = cost_model
        self.config = config or EngineConfig()
        #: Analyzer facts of the last phase's window shapes, keyed like
        #: the phase's weighted patterns (the key includes the rendered
        #: SQL, so equal keys analyze identically).
        self._infos: Dict[tuple, QueryInfo] = {}
        #: The last phase's per-epoch facts: (layout epoch, counted
        #: cover specs, group build costs).  A phase keeps only what it
        #: used, so neither grows past one phase's working set.
        self._epoch_facts: Tuple[int, dict, dict] = (-1, {}, {})

    def query_cost(
        self, info: QueryInfo, extra_groups: Sequence[FrozenSet[str]] = ()
    ) -> float:
        """Best estimated cost of one query under existing layouts plus
        hypothetical ``extra_groups`` (the q_j(C_i) term of Eq. 1).

        Because layouts replicate, adding a group never increases a
        query's estimated cost (the minimum includes the old covers).
        """
        return _Costing(self, [info], extra_groups).cost(0)

    def _build_cost(self, group: FrozenSet[str]) -> float:
        """Transformation cost estimate for stitching ``group`` from the
        narrowest existing providers."""
        source_width = 0
        counted = set()
        for attr in group:
            providers = self.table.layouts_containing(attr)
            provider = providers[0]
            if id(provider) not in counted:
                counted.add(id(provider))
                source_width += provider.width
        return self.cost_model.build_cost_estimate(
            self.table.num_rows, len(group), source_width
        )

    # Proposal ---------------------------------------------------------------------

    def propose(self, monitor: Monitor) -> List[CandidateLayout]:
        """Run one adaptation phase over the monitoring window.

        Returns the ranked candidate pool (best expected gain first),
        already filtered to groups that actually improve on the current
        configuration net of their transformation cost.

        The search is the paper's pruned enumeration — clause-level
        seeds, iterative pairwise merging, Eq. 1 scoring — implemented
        incrementally: adding a group only re-costs the windowed
        patterns it intersects.  Covers are bitmask operations and each
        distinct (pattern, covers) pair is priced once per phase (see
        :class:`_Costing`).  On adaptive-seq that is 12 % of wall time;
        with frozenset covers and no memo it was 46 %, the largest
        phase and most of the p95 tail.
        """
        window = monitor.window
        if not window:
            return []

        # Deduplicate the window into weighted patterns: repeated
        # queries cost the same, so analyze/cost each shape once.
        weighted: Dict[tuple, list] = {}
        for query in window:
            sig = query.signature()
            key = (sig.select_attrs, sig.where_attrs, sig.structure)
            entry = weighted.get(key)
            if entry is None:
                weighted[key] = [query, 1]
            else:
                entry[1] += 1
        infos: List[QueryInfo] = []
        weights: List[int] = []
        known = self._infos
        self._infos = {}
        for key, (query, count) in weighted.items():
            info = known.get(key)
            if info is None:
                info = analyze_query(query, self.table.schema)
            self._infos[key] = info
            infos.append(info)
            weights.append(count)
        epoch = self.table.layout_epoch
        carried_epoch, carried_specs, carried_builds = self._epoch_facts
        if carried_epoch != epoch:
            carried_specs, carried_builds = {}, {}
        costing = _Costing(self, infos, carried=carried_specs)
        patterns = costing.patterns

        existing = {layout.attr_set for layout in self.table.layouts}

        # Step 1: narrowest candidate groups from clause-level patterns.
        seeds: Dict[FrozenSet[str], str] = {}
        for pattern in monitor.patterns():
            if len(pattern.attrs) >= 2:
                seeds.setdefault(pattern.attrs, pattern.clause)
        # Whole-query access sets are natural fused-scan groups too.
        for attrs, _count in monitor.distinct_access_sets():
            if len(attrs) >= 2:
                seeds.setdefault(attrs, "merge")
        # Affinity clusters (paper: "attributes accessed together and
        # have similar frequencies should be grouped together") seed
        # cross-query groups no single query proposes by itself.
        affinity_floor = max(2.0, len(window) / 8.0)
        for matrix, clause in (
            (monitor.select_affinity, "select"),
            (monitor.where_affinity, "where"),
        ):
            for cluster in matrix.clusters(min_affinity=affinity_floor):
                if 2 <= len(cluster) <= 48:
                    seeds.setdefault(cluster, clause)
        pool = {g: o for g, o in seeds.items() if g not in existing}
        # Bound the search: keep the most promising seeds (frequent and
        # wide patterns first) — the paper prunes the same way ("the
        # size of the initial solution is in the worst case quadratic to
        # the number of narrow partitions").
        if len(pool) > 24:
            freq = {p.attrs: p.count for p in monitor.patterns()}
            ranked = sorted(
                pool, key=lambda g: (-freq.get(g, 1), -len(g), sorted(g))
            )
            pool = {g: pool[g] for g in ranked[:24]}

        build_cost_memo: Dict[FrozenSet[str], float] = {}

        def build_cost(group: FrozenSet[str]) -> float:
            cached = build_cost_memo.get(group)
            if cached is None:
                cached = carried_builds.get(group)
                if cached is None:
                    cached = self._build_cost(group)
                build_cost_memo[group] = cached
            return cached

        # Per-pattern cost under the current configuration + chosen set.
        cost_q = [costing.cost(i) for i in range(len(patterns))]

        # Step 2+3: greedy selection with iterative pairwise merging,
        # evaluated incrementally per intersecting pattern.
        chosen: List[FrozenSet[str]] = []
        chosen_origin: Dict[FrozenSet[str], str] = {}
        # Per pattern, the chosen groups it intersects, in choice order.
        chosen_touching: List[List[_Group]] = [[] for _ in patterns]
        first_net = 0.0
        while len(chosen) < MAX_CANDIDATES:
            candidates = dict(pool)
            # Merging helps only when some query spans both parts (it
            # removes that query's group-joining overhead, section 3.2);
            # merges of unrelated groups are pruned without evaluation.
            for first in chosen:
                first_mask = costing.group(first)[0]
                for second in list(pool) + chosen:
                    merged = first | second
                    if (
                        merged == first
                        or merged == second
                        or merged in existing
                        or merged in candidates
                    ):
                        continue
                    second_mask = costing.group(second)[0]
                    if not any(
                        p.all & first_mask and p.all & second_mask
                        for p in patterns
                    ):
                        continue
                    candidates[merged] = "merge"
            if len(candidates) > 40:
                ranked = sorted(
                    candidates,
                    key=lambda g: (-len(g), sorted(g)),
                )
                candidates = {g: candidates[g] for g in ranked[:40]}
            best_group = None
            best_net = 0.0
            best_origin = ""
            horizon = FUTURE_USE_MULTIPLIER
            for group, origin in candidates.items():
                gain = 0.0
                trial = costing.group(group)
                for i, pattern in enumerate(patterns):
                    if not pattern.all & trial[0]:
                        continue
                    new_cost = costing.cost(i, chosen_touching[i] + [trial])
                    gain += (cost_q[i] - new_cost) * weights[i]
                net = gain * horizon - build_cost(group)
                if net > best_net + 1e-15:
                    best_net = net
                    best_group = group
                    best_origin = origin
            if best_group is None:
                break
            if first_net == 0.0:
                first_net = best_net
            elif best_net < 0.01 * first_net:
                break  # diminishing returns; stop searching
            chosen.append(best_group)
            chosen_origin[best_group] = best_origin
            best = costing.group(best_group)
            for i, pattern in enumerate(patterns):
                if pattern.all & best[0]:
                    chosen_touching[i].append(best)
                    cost_q[i] = costing.cost(i, chosen_touching[i])
            pool.pop(best_group, None)
            # Drop seeds the chosen group already subsumes.
            pool = {g: o for g, o in pool.items() if not g <= best_group}

        # Wrap the chosen groups as lazy candidates with per-use benefit.
        candidates_out: List[CandidateLayout] = []
        order = {n: i for i, n in enumerate(self.table.schema.names)}
        for group in chosen:
            frequency = 0
            saving = 0.0
            alone = costing.group(group)
            outside = ~alone[0]
            for i, pattern in enumerate(patterns):
                serves = pattern.all and (
                    not pattern.all & outside
                    or (pattern.select and not pattern.select & outside)
                    or (pattern.where and not pattern.where & outside)
                )
                if not serves:
                    continue
                base = costing.cost(i)
                with_group = costing.cost(i, [alone])
                if with_group < base:
                    frequency += weights[i]
                    saving += (base - with_group) * weights[i]
            if frequency == 0:
                continue
            candidates_out.append(
                CandidateLayout(
                    attrs=tuple(sorted(group, key=order.__getitem__)),
                    # Expected future uses, not just the windowed count.
                    frequency=max(
                        frequency,
                        int(frequency * FUTURE_USE_MULTIPLIER),
                    ),
                    benefit_per_use=saving / frequency,
                    build_cost=build_cost(group),
                    origin=chosen_origin.get(group, "merge"),
                )
            )
        candidates_out.sort(key=lambda c: -c.expected_gain)
        self._epoch_facts = (epoch, costing._specs, build_cost_memo)
        return candidates_out
