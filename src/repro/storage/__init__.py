"""Storage substrate: schemas, physical layouts, tables, transformation.

H2O's three layout families (paper section 3.1) are unified around the
*column group*: a row-major layout is one group containing every
attribute; a column-major layout is one single-column group per
attribute.  A :class:`~repro.storage.partition.Partitioning` describes a
covering set of groups abstractly; a
:class:`~repro.storage.relation.Table` owns the physical layouts actually
materialized (possibly replicating attributes across groups, as H2O
allows when different query classes access the same data differently).

The :mod:`~repro.storage.stitcher` implements the offline physical
reorganization primitive — reading source layouts and stitching them
into a new group; the online reorganizer (paper section 3.2, Fig. 13)
stitches morsel by morsel inside the scan that answers its query.
"""

from .schema import Attribute, Schema
from .layout import Layout, LayoutKind
from .column_group import ColumnGroup
from .column_layout import SingleColumn
from .row_layout import build_row_layout
from .partition import (
    Partitioning,
    column_partitioning,
    row_partitioning,
)
from .relation import LayoutSnapshot, Table
from .catalog import Catalog
from .generator import generate_table, uniform_columns, wide_schema
from .stitcher import stitch_group, stitch_single_columns

__all__ = [
    "Attribute",
    "Schema",
    "Layout",
    "LayoutKind",
    "ColumnGroup",
    "SingleColumn",
    "build_row_layout",
    "Partitioning",
    "row_partitioning",
    "column_partitioning",
    "Table",
    "LayoutSnapshot",
    "Catalog",
    "generate_table",
    "uniform_columns",
    "wide_schema",
    "stitch_group",
    "stitch_single_columns",
]
