"""In-memory relational storage engine.

Rows are tuples, relations are :class:`~repro.storage.table.Table` heaps with
hash/ordered indexes, and each component database keeps its relations in a
:class:`~repro.storage.catalog.Catalog`.  A query result on its way between
sites is a columnar :class:`~repro.storage.fragment.Fragment`.
"""

from repro.storage.catalog import Catalog
from repro.storage.fragment import Fragment
from repro.storage.index import HashIndex, Index, OrderedIndex
from repro.storage.schema import Column, Row, TableSchema
from repro.storage.stats import ColumnStats, TableStats, analyze_table
from repro.storage.table import Table
from repro.storage.types import (
    BOOLEAN,
    DATE,
    DECIMAL,
    FLOAT,
    INTEGER,
    TIMESTAMP,
    VARCHAR,
    DataType,
    TypeKind,
    infer_type,
    null_first_key,
    tv_and,
    tv_not,
    tv_or,
)

__all__ = [
    "Catalog",
    "Fragment",
    "HashIndex",
    "Index",
    "OrderedIndex",
    "Column",
    "Row",
    "TableSchema",
    "ColumnStats",
    "TableStats",
    "analyze_table",
    "Table",
    "BOOLEAN",
    "DATE",
    "DECIMAL",
    "FLOAT",
    "INTEGER",
    "TIMESTAMP",
    "VARCHAR",
    "DataType",
    "TypeKind",
    "infer_type",
    "null_first_key",
    "tv_and",
    "tv_not",
    "tv_or",
]
