"""Relation schemas: columns, keys, and row validation."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import CatalogError, IntegrityError
from repro.storage.types import CANONICAL_TYPES, DataType, TypeKind

#: A stored row is an immutable tuple of values, positionally matching the
#: schema's column order.
Row = tuple[object, ...]

_NULL = type(None)


@dataclass(frozen=True)
class Column:
    """One column of a relation."""

    name: str
    datatype: DataType
    nullable: bool = True
    default: object = None

    def validate(self, value: object) -> object:
        """Type-check/coerce one value for this column."""
        if value is None:
            if not self.nullable:
                raise IntegrityError(f"column {self.name!r} is NOT NULL")
            return None
        return self.datatype.validate(value)

    def takes_as_is(self, values: Sequence[object]) -> bool:
        """True when :meth:`validate` returns every value unchanged.

        Read off the set of the values' types: NULL where the column is
        nullable, and otherwise only the canonical Python type of the
        column's type (:data:`~repro.storage.types.CANONICAL_TYPES`), within
        VARCHAR(n)'s length.  ANY takes every value.
        """
        kinds = set(map(type, values))
        if _NULL in kinds:
            if not self.nullable:
                return False
            kinds.discard(_NULL)
        datatype = self.datatype
        if not kinds or datatype.kind is TypeKind.ANY:
            return True
        if kinds != {CANONICAL_TYPES[datatype.kind]}:
            return False
        if datatype.kind is TypeKind.VARCHAR and datatype.params:
            longest = max(map(len, filter(None, values)), default=0)
            return longest <= datatype.params[0]
        return True


@dataclass
class TableSchema:
    """Schema of a stored or derived relation.

    Column names are case-insensitive: lookups go through a lowered-name
    map, but the original spelling is preserved for display.
    """

    name: str
    columns: list[Column]
    primary_key: list[str] = field(default_factory=list)
    _index_by_name: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._rebuild_lookup()
        for key_column in self.primary_key:
            self.column_index(key_column)  # raises if missing

    def _rebuild_lookup(self) -> None:
        self._index_by_name = {}
        for position, column in enumerate(self.columns):
            lowered = column.name.lower()
            if lowered in self._index_by_name:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            self._index_by_name[lowered] = position

    # -- lookups --------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_by_name

    def column_index(self, name: str) -> int:
        """Position of a column by (case-insensitive) name."""
        try:
            return self._index_by_name[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no column {name!r} in table {self.name!r} "
                f"(columns: {', '.join(self.column_names)})"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def primary_key_positions(self) -> list[int]:
        return [self.column_index(name) for name in self.primary_key]

    # -- row handling -----------------------------------------------------

    def validate_row(self, values: list[object] | Row) -> Row:
        """Validate and coerce a full positional row."""
        if len(values) != len(self.columns):
            raise self._width_error(values)
        return tuple(
            column.validate(value) for column, value in zip(self.columns, values)
        )

    def _width_error(self, values: list[object] | Row) -> IntegrityError:
        return IntegrityError(
            f"table {self.name!r} expects {len(self.columns)} values, "
            f"got {len(values)}"
        )

    def row_from_mapping(self, mapping: dict[str, object]) -> Row:
        """Build a row from a column→value mapping, applying defaults."""
        provided = {key.lower(): value for key, value in mapping.items()}
        unknown = set(provided) - set(self._index_by_name)
        if unknown:
            raise CatalogError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        values = [
            provided.get(column.name.lower(), column.default)
            for column in self.columns
        ]
        return self.validate_row(values)

    def key_of(self, row: Row) -> Row | None:
        """Extract the primary-key tuple of a row, or None if no PK."""
        if not self.primary_key:
            return None
        positions = self.primary_key_positions
        return tuple(row[p] for p in positions)

    def rename(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different relation name."""
        return TableSchema(new_name, list(self.columns), list(self.primary_key))
