"""SQL lexer: one compiled master pattern, matched token after token.

Turns SQL text into a list of :class:`~repro.sql.tokens.Token` (the "Writing
a Tokenizer" recipe of Python's ``re`` documentation).  ``_PATTERN`` is one
alternation with a named group per kind of token; alternatives are tried in
order, so comments come before the ``-`` and ``/`` operators, a ``.5``
float before the ``.`` punctuation, and a closed string before the
unterminated-quote alternative.  It accepts:

- keywords (case-insensitive) and identifiers (``[A-Za-z_][A-Za-z0-9_$#]*``)
- double-quoted delimited identifiers (``"Weird Name"``) with ``""`` escaping
- single-quoted string literals with ``''`` escaping
- integer and float literals (``1.``, ``.5``, ``1e-3``; ``1.e5`` is ``1``,
  ``.``, ``e5`` and a bare ``1e`` is ``1``, ``e``)
- line comments (``-- ...``) and block comments (``/* ... */``)
- multi-character operators (``<>``, ``!=``, ``>=``, ``<=``, ``||``)
- ``?`` positional parameters

A quote body is written unrolled, ``'[^']*(?:''[^']*)*'(?!')``, so that it
cannot backtrack to a quote that is half of an escaped pair: ``'a''b`` is
unterminated, not ``'a'`` followed by more text.  Line and column come from
the newlines in each consumed span.  The pattern keeps to syntax Python 3.10
accepts (no atomic groups or possessive quantifiers) and spells classes as
``[A-Za-z_]`` and ``[0-9]``, not ``\\w`` and ``\\d``, because non-ASCII
letters and digits are not SQL identifier or number characters here.
"""

from __future__ import annotations

import re

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, Token, TokenType

_PATTERN = re.compile(
    r"""
      (?P<SKIP>(?:[ \t\r\n]+ | --[^\n]* | /\*[\s\S]*?\*/)+)
    | (?P<WORD>[A-Za-z_][A-Za-z0-9_$#]*)
    | (?P<FLOAT>(?:[0-9]+\.(?:[0-9]+|(?![A-Za-z_])) | \.[0-9]+)(?:[eE][+-]?[0-9]+)?
               | [0-9]+[eE][+-]?[0-9]+)
    | (?P<INTEGER>[0-9]+)
    | '(?P<STRING>[^']*(?:''[^']*)*)'(?!')
    | "(?P<QUOTED_IDENTIFIER>[^"]*(?:""[^"]*)*)"(?!")
    | (?P<UNTERMINATED>' | " | /\*)
    | (?P<OPERATOR><> | != | >= | <= | \|\| | [-+*/%<>=])
    | (?P<PUNCTUATION>[(),.;])
    | (?P<PARAMETER>\?)
    | (?P<UNEXPECTED>.)
    """,
    re.VERBOSE,
)

_TYPES = {
    kind: TokenType[kind]
    for kind in (
        "FLOAT", "INTEGER", "STRING", "QUOTED_IDENTIFIER", "OPERATOR",
        "PUNCTUATION", "PARAMETER",
    )
}
_ESCAPED_QUOTE = {"STRING": ("''", "'"), "QUOTED_IDENTIFIER": ('""', '"')}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "/*": "unterminated block comment",
}


def tokenize(text: str) -> list[Token]:
    """Scan the whole input and return tokens, ending with an EOF token."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _PATTERN.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        start, end = match.span()
        column = start - line_start + 1
        if kind == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, value, line, column))
        elif kind in _TYPES:
            if kind in _ESCAPED_QUOTE:
                value = value.replace(*_ESCAPED_QUOTE[kind])
            tokens.append(Token(_TYPES[kind], value, line, column))
        elif kind == "UNTERMINATED":
            raise LexerError(_UNTERMINATED[value], len(text), line, column)
        elif kind == "UNEXPECTED":
            raise LexerError(f"unexpected character {value!r}", start, line, column)
        last_newline = text.rfind("\n", start, end)
        if last_newline >= 0:
            line += text.count("\n", start, end)
            line_start = last_newline + 1
    tokens.append(Token(TokenType.EOF, "", line, len(text) - line_start + 1))
    return tokens
