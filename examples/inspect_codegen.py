"""Inspect the operators H2O generates on the fly (paper Figs. 5 & 6).

The same query gets completely different specialized source depending on
how the data is physically stored: a single fused loop when one column
group holds everything, and a selection-vector pipeline when the
predicate and projection attributes live in different layouts.

Run:  python examples/inspect_codegen.py
"""

from repro import generate_table, parse_query
from repro.codegen import operator_source
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query
from repro.storage.stitcher import stitch_group

table = generate_table("r", 10, 10_000, rng=3, initial_layout="column")

# The paper's running example Q1: two predicates, one arithmetic output.
query = parse_query(
    "SELECT sum(a1 + a2 + a3) FROM r WHERE a4 < 100 AND a5 > -100"
)
info = analyze_query(query, table.schema)

# Case 1 (Fig. 5): all five attributes in a single column group.
single_group, _ = stitch_group(
    table.layouts, ("a1", "a2", "a3", "a4", "a5"), table.schema
)
plan = AccessPlan(ExecutionStrategy.FUSED, (single_group,))
print("=" * 72)
print("Fig. 5 analog: one column group R(a1..a5), fused evaluation")
print("=" * 72)
print(operator_source(info, plan))

# Case 2 (Fig. 6): R1(a1,a2,a3) for the select clause, R2(a4,a5) for the
# predicates — a selection vector connects them.
r1, _ = stitch_group(table.layouts, ("a1", "a2", "a3"), table.schema)
r2, _ = stitch_group(table.layouts, ("a4", "a5"), table.schema)
plan2 = AccessPlan(ExecutionStrategy.LATE, (r1, r2))
print()
print("=" * 72)
print("Fig. 6 analog: R1(a1,a2,a3) + R2(a4,a5), selection vector")
print("=" * 72)
print(operator_source(info, plan2))

# Same structure, different constants -> the cached operator is reused.
from repro.codegen.generator import operator_key

other = analyze_query(
    parse_query("SELECT sum(a1 + a2 + a3) FROM r WHERE a4 < 7 AND a5 > 3"),
    table.schema,
)
same = operator_key(info, plan) == operator_key(other, plan)
print()
print(f"operator cache key identical across constants: {same}")
