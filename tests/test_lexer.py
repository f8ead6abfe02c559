"""Lexer unit tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.sql.lexer import _PATTERN, tokenize
from repro.sql.tokens import KEYWORDS, TokenType


def kinds(text):
    return [t.type for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_whitespace_only(self):
        assert tokenize("   \n\t  ")[-1].type is TokenType.EOF
        assert len(tokenize("   \n\t  ")) == 1

    def test_keywords_are_uppercased(self):
        assert values("select From WHERE") == ["SELECT", "FROM", "WHERE"]
        assert kinds("select From WHERE") == [TokenType.KEYWORD] * 3

    def test_identifiers_preserve_case(self):
        tokens = tokenize("myTable Col_1")
        assert tokens[0].value == "myTable"
        assert tokens[1].value == "Col_1"
        assert tokens[0].type is TokenType.IDENTIFIER

    def test_identifier_with_dollar_and_hash(self):
        assert values("emp$x t#2") == ["emp$x", "t#2"]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.INTEGER
        assert tokens[0].value == "42"

    def test_float_literals(self):
        for text in ("3.14", "0.5", ".5", "1e3", "1E-3", "2.5e+7", "1."):
            token = tokenize(text)[0]
            assert token.type is TokenType.FLOAT, text

    def test_integer_not_float(self):
        assert tokenize("123")[0].type is TokenType.INTEGER

    def test_string_literal(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_string_with_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string_literal(self):
        assert tokenize("''")[0].value == ""

    def test_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.QUOTED_IDENTIFIER
        assert token.value == "Weird Name"

    def test_quoted_identifier_with_escaped_quote(self):
        assert tokenize('"a""b"')[0].value == 'a"b'

    def test_parameter(self):
        assert tokenize("?")[0].type is TokenType.PARAMETER


class TestOperators:
    def test_multi_char_operators(self):
        assert values("<> != >= <= ||") == ["<>", "!=", ">=", "<=", "||"]

    def test_single_char_operators(self):
        assert values("+ - * / % < > =") == list("+-*/%<>=")

    def test_punctuation(self):
        assert values("( ) , . ;") == list("(),.;")

    def test_greedy_matching(self):
        # "<=" must not lex as "<" then "="
        assert values("a<=b") == ["a", "<=", "b"]


class TestComments:
    def test_line_comment(self):
        assert values("SELECT -- comment here\n 1") == ["SELECT", "1"]

    def test_line_comment_at_eof(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", "1"]

    def test_block_comment(self):
        assert values("SELECT /* hi */ 1") == ["SELECT", "1"]

    def test_multiline_block_comment(self):
        assert values("SELECT /* line1\nline2 */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("SELECT /* oops")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(LexerError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT @")

    def test_error_carries_position(self):
        with pytest.raises(LexerError) as exc:
            tokenize("SELECT\n  @")
        assert exc.value.line == 2


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("SELECT\n  name")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3

    def test_matches_helper(self):
        token = tokenize("SELECT")[0]
        assert token.matches(TokenType.KEYWORD, "SELECT")
        assert not token.matches(TokenType.KEYWORD, "FROM")
        assert token.matches(TokenType.KEYWORD)


# ---------------------------------------------------------------------------
# Differential test against the character-at-a-time scanner the regex lexer
# replaced.  The scanner is kept here, unchanged in behaviour, as the oracle:
# for any text both must give the same (type, value, line, column) tokens or
# the same LexerError message, position, line and column.
# ---------------------------------------------------------------------------


class ReferenceScanner:
    """The former hand-written lexer: one character per ``_advance``."""

    IDENT_START = frozenset(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    )
    IDENT_CONT = IDENT_START | frozenset("0123456789$#")
    DIGITS = frozenset("0123456789")
    MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||")
    SINGLE_CHAR_OPERATORS = frozenset("+-*/%<>=")
    PUNCTUATION = frozenset("(),.;")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _peek(self, offset=0):
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.column = 1
                else:
                    self.column += 1
                self.pos += 1

    def tokenize(self):
        tokens = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.text):
                tokens.append((TokenType.EOF, "", self.line, self.column))
                return tokens
            tokens.append(self._next_token())

    def _skip_whitespace_and_comments(self):
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexerError(
                        "unterminated block comment", self.pos, start_line, start_col
                    )
            else:
                return

    def _next_token(self):
        ch = self._peek()
        line, column = self.line, self.column
        if ch in self.IDENT_START:
            start = self.pos
            while self.pos < len(self.text) and self._peek() in self.IDENT_CONT:
                self._advance()
            word = self.text[start : self.pos]
            if word.upper() in KEYWORDS:
                return (TokenType.KEYWORD, word.upper(), line, column)
            return (TokenType.IDENTIFIER, word, line, column)
        if ch in self.DIGITS or (ch == "." and self._peek(1) in self.DIGITS):
            return self._number(line, column)
        if ch == "'":
            return self._quoted("'", TokenType.STRING, "string literal", line, column)
        if ch == '"':
            return self._quoted(
                '"', TokenType.QUOTED_IDENTIFIER, "quoted identifier", line, column
            )
        if ch == "?":
            self._advance()
            return (TokenType.PARAMETER, "?", line, column)
        for op in self.MULTI_CHAR_OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                return (TokenType.OPERATOR, op, line, column)
        if ch in self.SINGLE_CHAR_OPERATORS:
            self._advance()
            return (TokenType.OPERATOR, ch, line, column)
        if ch in self.PUNCTUATION:
            self._advance()
            return (TokenType.PUNCTUATION, ch, line, column)
        raise LexerError(f"unexpected character {ch!r}", self.pos, line, column)

    def _number(self, line, column):
        start = self.pos
        is_float = False
        while self._peek() in self.DIGITS:
            self._advance()
        if self._peek() == "." and self._peek(1) in self.DIGITS:
            is_float = True
            self._advance()
            while self._peek() in self.DIGITS:
                self._advance()
        elif self._peek() == "." and self._peek(1) not in self.IDENT_START:
            is_float = True
            self._advance()
        if self._peek() in ("e", "E"):
            lookahead = 2 if self._peek(1) in ("+", "-") else 1
            if self._peek(lookahead) in self.DIGITS:
                is_float = True
                self._advance(lookahead)
                while self._peek() in self.DIGITS:
                    self._advance()
        token_type = TokenType.FLOAT if is_float else TokenType.INTEGER
        return (token_type, self.text[start : self.pos], line, column)

    def _quoted(self, quote, token_type, what, line, column):
        self._advance()
        parts = []
        while True:
            if self.pos >= len(self.text):
                raise LexerError(f"unterminated {what}", self.pos, line, column)
            ch = self._peek()
            if ch == quote:
                if self._peek(1) == quote:
                    parts.append(quote)
                    self._advance(2)
                else:
                    self._advance()
                    return (token_type, "".join(parts), line, column)
            else:
                parts.append(ch)
                self._advance()


def outcome(lex, text):
    """Tokens as plain tuples, or the LexerError's observable fields."""
    try:
        return [tuple(token) for token in lex(text)]
    except LexerError as error:
        return ("LexerError", str(error), error.position, error.line, error.column)


def reference_tokenize(text):
    return ReferenceScanner(text).tokenize()


#: Fragments that sit on the lexer's edges and lex cleanly on their own.
LEXABLE_FRAGMENTS = (
    "--", "-- note\n", "-", "*/", "/* c */", "/**/", "/* a\nb */",
    "''", "'it''s'", "'x\ny'", '""', '"a""b"',
    "1", "42", "1.", ".5", "1e-3", "1e", "1E+", "1.e5", "3..4", "2.5e+7", ".",
    "e", "E", "e5", "x", "ab", "_", "emp$x", "t#2",
    " ", "\t", "\r", "\n", "\r\n",
    "+", "*", "%", "<", ">", "=", "<>", "!=", ">=", "<=", "||",
    "(", ")", ",", ";", "?", "SELECT", "select", "From", "in", "null",
)
#: Fragments that open an unterminated token or hold a character SQL rejects.
TROUBLE_FRAGMENTS = (
    "'", "'a''b", '"', '"a""b""', "/*", "/*/", "$", "#", "!", "|", "@",
    "\u00e9", "\u00df", "\u0663", "\u65e5\u672c", "\x0b", "\u00a0",
)

lexable_text = st.lists(st.sampled_from(LEXABLE_FRAGMENTS), max_size=24).map(
    "".join
)
any_text = st.lists(
    st.sampled_from(LEXABLE_FRAGMENTS + TROUBLE_FRAGMENTS)
    | st.text(alphabet="ab1e.'\"-/*+ \n$#\u00e9?", max_size=3)
    | st.text(max_size=2),
    max_size=24,
).map("".join)


class TestDifferentialAgainstReferenceScanner:
    @settings(max_examples=400, deadline=None)
    @given(lexable_text)
    def test_same_tokens(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @settings(max_examples=400, deadline=None)
    @given(any_text)
    def test_same_tokens_or_same_error(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @settings(max_examples=200, deadline=None)
    @given(lexable_text, st.sampled_from(["'", '"', "/*"]))
    def test_unterminated_after_a_valid_prefix(self, prefix, opener):
        text = prefix + " " + opener + "tail"
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM t WHERE b IN (1, 2.5, .5, 1e-3, 'x''y') -- done",
            'SELECT "Weird ""Name""" FROM /* c\n */ t\nWHERE x <> ?',
            "1.e5 3..4 1e 1E+ x.e e1 1.5e",
            "emp$x t#2 $x",
        ],
    )
    def test_examples(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


class TestRegexTraps:
    """Three ways a master-pattern lexer can part from the scanner."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("'a''b", "unterminated string literal"),
            ("x = 'a''b''c", "unterminated string literal"),
            ('"a""b""', "unterminated quoted identifier"),
            ('SELECT "a""b""c', "unterminated quoted identifier"),
        ],
    )
    def test_quote_body_does_not_close_on_an_escaped_pair(self, text, message):
        with pytest.raises(LexerError, match=message) as exc:
            tokenize(text)
        assert exc.value.position == len(text)
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_unterminated_block_comment_is_not_slash_star(self):
        with pytest.raises(LexerError, match="unterminated block comment") as exc:
            tokenize("SELECT 1\n  /* open")
        assert (exc.value.position, exc.value.line, exc.value.column) == (18, 2, 3)

    @pytest.mark.parametrize("text", ["é", "xé", "٣", "1٣", "ß", " ", "\x0b"])
    def test_non_ascii_letters_digits_and_spaces_are_rejected(self, text):
        with pytest.raises(LexerError, match="unexpected character"):
            tokenize(text)
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_pattern_uses_no_syntax_newer_than_python_3_10(self):
        # Atomic groups "(?>...)" and possessive quantifiers ("*+", "++",
        # "?+", "{m,n}+") first compile on Python 3.11.
        source = _PATTERN.pattern
        assert "(?>" not in source
        assert not re.search(r"[*+?}]\+", source)
