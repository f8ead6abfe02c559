"""Token definitions for the SQL lexer."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    """Kinds of lexical tokens produced by :func:`repro.sql.lexer.tokenize`."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    QUOTED_IDENTIFIER = "quoted_identifier"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"  # ? positional parameter
    EOF = "eof"


#: Reserved words recognised by the parser.  Anything not in this set lexes
#: as an identifier.  The set is the union of what the MYRIAD global SQL
#: dialect and both gateway dialects need.
KEYWORDS = frozenset(
    {
        "ALL",
        "AND",
        "AS",
        "ASC",
        "BEGIN",
        "BETWEEN",
        "BOOLEAN",
        "BY",
        "CASE",
        "CAST",
        "CHAR",
        "COMMIT",
        "CREATE",
        "CROSS",
        "DATE",
        "DECIMAL",
        "DEFAULT",
        "DELETE",
        "DESC",
        "DISTINCT",
        "DOUBLE",
        "DROP",
        "ELSE",
        "END",
        "ESCAPE",
        "EXCEPT",
        "EXISTS",
        "FALSE",
        "FLOAT",
        "FROM",
        "FULL",
        "GROUP",
        "HAVING",
        "IF",
        "IN",
        "INDEX",
        "INNER",
        "INSERT",
        "INT",
        "INTEGER",
        "INTERSECT",
        "INTO",
        "IS",
        "JOIN",
        "KEY",
        "LEFT",
        "LIKE",
        "LIMIT",
        "NOT",
        "NULL",
        "NUMBER",
        "NUMERIC",
        "OFFSET",
        "ON",
        "OR",
        "ORDER",
        "OUTER",
        "PRIMARY",
        "RIGHT",
        "ROLLBACK",
        "ROWNUM",
        "SELECT",
        "SET",
        "SMALLINT",
        "TABLE",
        "TEXT",
        "THEN",
        "TIMESTAMP",
        "TRANSACTION",
        "TRUE",
        "UNION",
        "UNIQUE",
        "UPDATE",
        "USING",
        "VALUES",
        "VARCHAR",
        "VARCHAR2",
        "WHEN",
        "WHERE",
        "WORK",
    }
)


class Token(NamedTuple):
    """One lexical token.

    ``value`` preserves the original spelling except for keywords, which are
    upper-cased so the parser can compare case-insensitively.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        """Return True if this token has the given type (and value, if given)."""
        if self.type is not token_type:
            return False
        return value is None or self.value == value
