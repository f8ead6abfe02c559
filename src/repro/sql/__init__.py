"""SQL front end: lexer, parser, AST, and dialect-aware printer.

This package implements the global MYRIAD SQL dialect plus the
Oracle/Postgres gateway dialects, entirely from scratch.

Typical usage::

    from repro.sql import parse_statement, to_sql
    from repro.sql.dialect import ORACLE_DIALECT

    stmt = parse_statement("SELECT name, salary FROM emp WHERE salary > 1000")
    oracle_text = to_sql(stmt, ORACLE_DIALECT)
"""

from repro.sql import ast
from repro.sql.dialect import (
    DIALECTS,
    GLOBAL_DIALECT,
    ORACLE_DIALECT,
    POSTGRES_DIALECT,
    Dialect,
    get_dialect,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import (
    Parser,
    parse_expression,
    parse_query,
    parse_script,
    parse_statement,
)
from repro.sql.printer import SQLPrinter, expression_to_sql, to_sql

__all__ = [
    "ast",
    "DIALECTS",
    "GLOBAL_DIALECT",
    "ORACLE_DIALECT",
    "POSTGRES_DIALECT",
    "Dialect",
    "get_dialect",
    "tokenize",
    "Parser",
    "parse_expression",
    "parse_query",
    "parse_script",
    "parse_statement",
    "SQLPrinter",
    "expression_to_sql",
    "to_sql",
]
