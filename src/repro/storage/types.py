"""SQL value and type system.

Values are plain Python objects (``int``, ``float``, ``decimal.Decimal``,
``str``, ``bool``, ``datetime.date``, ``datetime.datetime``, and ``None`` for
SQL NULL).  :class:`DataType` carries the SQL-level type identity used for
schema validation, casting, and gateway type mapping.

Three-valued logic lives here as the tiny functions :func:`tv_and`,
:func:`tv_or`, :func:`tv_not` operating on ``True``/``False``/``None``.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from repro.errors import SQLTypeError


class TypeKind(enum.Enum):
    """Canonical SQL type families supported by the engine."""

    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"
    #: Pass-through type for shipped fragment columns holding computed
    #: values (shipped aggregates) whose type is only known dynamically.
    ANY = "ANY"


#: Dialect/global spellings → canonical type kind.
_TYPE_ALIASES: dict[str, TypeKind] = {
    "INT": TypeKind.INTEGER,
    "INTEGER": TypeKind.INTEGER,
    "SMALLINT": TypeKind.INTEGER,
    "BIGINT": TypeKind.INTEGER,
    "FLOAT": TypeKind.FLOAT,
    "DOUBLE": TypeKind.FLOAT,
    "REAL": TypeKind.FLOAT,
    "DECIMAL": TypeKind.DECIMAL,
    "NUMERIC": TypeKind.DECIMAL,
    "NUMBER": TypeKind.DECIMAL,
    "CHAR": TypeKind.VARCHAR,
    "VARCHAR": TypeKind.VARCHAR,
    "VARCHAR2": TypeKind.VARCHAR,
    "TEXT": TypeKind.VARCHAR,
    "STRING": TypeKind.VARCHAR,
    "BOOLEAN": TypeKind.BOOLEAN,
    "BOOL": TypeKind.BOOLEAN,
    "DATE": TypeKind.DATE,
    "TIMESTAMP": TypeKind.TIMESTAMP,
    "DATETIME": TypeKind.TIMESTAMP,
    "ANY": TypeKind.ANY,
}


@dataclass(frozen=True)
class DataType:
    """A concrete SQL type: kind plus optional length/precision parameters."""

    kind: TypeKind
    params: tuple[int, ...] = ()

    @classmethod
    def from_name(cls, name: str, params: tuple[int, ...] = ()) -> "DataType":
        """Resolve a (possibly dialect-specific) type spelling.

        Accepts embedded parameters too: ``VARCHAR(40)``.
        """
        text = name.strip().upper()
        if "(" in text and text.endswith(")"):
            base, _, rest = text.partition("(")
            try:
                params = tuple(int(p) for p in rest[:-1].split(","))
            except ValueError:
                raise SQLTypeError(f"bad type parameters in {name!r}") from None
            text = base.strip()
        kind = _TYPE_ALIASES.get(text)
        if kind is None:
            raise SQLTypeError(f"unknown type name {name!r}")
        # NUMBER(1) is how the Oracle dialect spells BOOLEAN; keep it DECIMAL
        # here — the gateway layer decides how to interpret it.
        return cls(kind, params)

    @property
    def name(self) -> str:
        if self.params:
            return f"{self.kind.value}({','.join(str(p) for p in self.params)})"
        return self.kind.value

    # -- value handling -----------------------------------------------

    def validate(self, value: object) -> object:
        """Coerce ``value`` into this type, raising SQLTypeError if impossible.

        NULL (None) is always accepted here; NOT NULL enforcement is the
        schema's job.
        """
        if value is None:
            return None
        if self.kind is TypeKind.ANY:
            return value
        try:
            coerce = _COERCERS[self.kind]
        except KeyError:  # pragma: no cover - all kinds covered
            raise SQLTypeError(f"unsupported type {self.kind}") from None
        result = coerce(value)
        if (
            self.kind is TypeKind.VARCHAR
            and self.params
            and len(result) > self.params[0]
        ):
            raise SQLTypeError(
                f"value {result!r} exceeds {self.name} length {self.params[0]}"
            )
        return result

    def is_numeric(self) -> bool:
        return self.kind in (TypeKind.INTEGER, TypeKind.FLOAT, TypeKind.DECIMAL)

    def __str__(self) -> str:
        return self.name


# Convenience singletons used throughout the codebase and tests.
ANY = DataType(TypeKind.ANY)
INTEGER = DataType(TypeKind.INTEGER)
FLOAT = DataType(TypeKind.FLOAT)
DECIMAL = DataType(TypeKind.DECIMAL)
VARCHAR = DataType(TypeKind.VARCHAR)
BOOLEAN = DataType(TypeKind.BOOLEAN)
DATE = DataType(TypeKind.DATE)
TIMESTAMP = DataType(TypeKind.TIMESTAMP)


def _coerce_integer(value: object) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise SQLTypeError(f"cannot store non-integral {value!r} as INTEGER")
        return int(value)
    if isinstance(value, Decimal):
        if value != value.to_integral_value():
            raise SQLTypeError(f"cannot store non-integral {value!r} as INTEGER")
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise SQLTypeError(f"cannot convert {value!r} to INTEGER") from None
    raise SQLTypeError(f"cannot convert {type(value).__name__} to INTEGER")


def _coerce_float(value: object) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, Decimal):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise SQLTypeError(f"cannot convert {value!r} to FLOAT") from None
    raise SQLTypeError(f"cannot convert {type(value).__name__} to FLOAT")


def _coerce_decimal(value: object) -> Decimal:
    if isinstance(value, bool):
        return Decimal(int(value))
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(str(value))
    if isinstance(value, str):
        try:
            return Decimal(value.strip())
        except InvalidOperation:
            raise SQLTypeError(f"cannot convert {value!r} to DECIMAL") from None
    raise SQLTypeError(f"cannot convert {type(value).__name__} to DECIMAL")


def _coerce_varchar(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, Decimal)):
        return str(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    raise SQLTypeError(f"cannot convert {type(value).__name__} to VARCHAR")


def _coerce_boolean(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("t", "true", "1", "yes", "y"):
            return True
        if lowered in ("f", "false", "0", "no", "n"):
            return False
    raise SQLTypeError(f"cannot convert {value!r} to BOOLEAN")


def _coerce_date(value: object) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        try:
            return datetime.date.fromisoformat(value.strip())
        except ValueError:
            raise SQLTypeError(f"cannot convert {value!r} to DATE") from None
    raise SQLTypeError(f"cannot convert {type(value).__name__} to DATE")


def _coerce_timestamp(value: object) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    if isinstance(value, datetime.date):
        return datetime.datetime(value.year, value.month, value.day)
    if isinstance(value, str):
        try:
            return datetime.datetime.fromisoformat(value.strip())
        except ValueError:
            raise SQLTypeError(f"cannot convert {value!r} to TIMESTAMP") from None
    raise SQLTypeError(f"cannot convert {type(value).__name__} to TIMESTAMP")


_COERCERS = {
    TypeKind.INTEGER: _coerce_integer,
    TypeKind.FLOAT: _coerce_float,
    TypeKind.DECIMAL: _coerce_decimal,
    TypeKind.VARCHAR: _coerce_varchar,
    TypeKind.BOOLEAN: _coerce_boolean,
    TypeKind.DATE: _coerce_date,
    TypeKind.TIMESTAMP: _coerce_timestamp,
}

#: The Python type each kind's coercion returns unchanged.  Matched with
#: ``type(v) is``: a ``bool`` is no INTEGER and a ``datetime`` no DATE.
CANONICAL_TYPES: dict[TypeKind, type] = {
    TypeKind.INTEGER: int,
    TypeKind.FLOAT: float,
    TypeKind.DECIMAL: Decimal,
    TypeKind.VARCHAR: str,
    TypeKind.BOOLEAN: bool,
    TypeKind.DATE: datetime.date,
    TypeKind.TIMESTAMP: datetime.datetime,
}


def infer_type(value: object) -> DataType:
    """Infer a :class:`DataType` for a Python value (used for literals)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, Decimal):
        return DECIMAL
    if isinstance(value, str):
        return VARCHAR
    if isinstance(value, datetime.datetime):
        return TIMESTAMP
    if isinstance(value, datetime.date):
        return DATE
    if value is None:
        return VARCHAR  # NULL literal: arbitrary; coercion fixes it up
    raise SQLTypeError(f"cannot infer SQL type for {type(value).__name__}")


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------


def tv_and(left: bool | None, right: bool | None) -> bool | None:
    """SQL AND over {TRUE, FALSE, NULL}."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def tv_or(left: bool | None, right: bool | None) -> bool | None:
    """SQL OR over {TRUE, FALSE, NULL}."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def tv_not(value: bool | None) -> bool | None:
    """SQL NOT over {TRUE, FALSE, NULL}."""
    if value is None:
        return None
    return not value


#: Sort key that orders NULLs first and handles mixed numeric types.
def null_first_key(value: object) -> tuple[int, object]:
    """Key function for sorting column values with NULLs first."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, Decimal):
        return (1, float(value))
    return (1, value)
