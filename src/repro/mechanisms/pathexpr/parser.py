"""Parser for the path-expression concrete syntax.

Hand-written tokenizer + recursive-descent parser; see
:mod:`repro.mechanisms.pathexpr.ast` for the grammar.  Errors carry position
information so malformed paths in user programs are easy to pinpoint.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .ast import Burst, Name, PathExpr, PathNode, Selection, Sequence, _normalize


class PathSyntaxError(ValueError):
    """Raised on malformed path-expression text."""

    def __init__(self, message: str, position: int, text: str) -> None:
        super().__init__(
            "{} at position {}: ...{!r}".format(message, position, text[position:position + 20])
        )
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # 'path', 'end', 'name', ';', ',', '{', '}', '(', ')'
    value: str
    position: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<number>\d+)|(?P<punct>[;,{}():]))"
)


_COMMENT_RE = re.compile(r"--[^\n]*")


def tokenize(text: str) -> List[_Token]:
    """Split path text into tokens; raises :class:`PathSyntaxError` on junk.

    ``--`` starts a comment running to end of line (stripped before
    tokenizing, preserving character positions for error messages).
    """
    text = _COMMENT_RE.sub(lambda m: " " * len(m.group(0)), text)
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:]
            if remainder.strip() == "":
                break
            # Point at the offending character, not the whitespace before it.
            offender = position + len(remainder) - len(remainder.lstrip())
            raise PathSyntaxError("unexpected character", offender, text)
        if match.group("name"):
            word = match.group("name")
            kind = word if word in ("path", "end") else "name"
            tokens.append(_Token(kind, word, match.start("name")))
        elif match.group("number"):
            tokens.append(
                _Token("number", match.group("number"), match.start("number"))
            )
        else:
            punct = match.group("punct")
            tokens.append(_Token(punct, punct, match.start("punct")))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], text: str) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0

    def _peek(self) -> _Token:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return _Token("eof", "", len(self._text))

    def _advance(self) -> _Token:
        token = self._peek()
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise PathSyntaxError(
                "expected {!r}, found {!r}".format(kind, token.value or "end of input"),
                token.position,
                self._text,
            )
        return self._advance()

    # path ::= 'path' [NUMBER ':'] selection 'end'
    def parse_path(self) -> PathExpr:
        self._expect("path")
        multiplicity = 1
        if self._peek().kind == "number":
            token = self._advance()
            multiplicity = int(token.value)
            if multiplicity < 1:
                raise PathSyntaxError(
                    "numeric operator must be >= 1", token.position, self._text
                )
            self._expect(":")
        body = self.parse_selection()
        self._expect("end")
        return PathExpr(body, multiplicity)

    # selection ::= sequence (',' sequence)*
    def parse_selection(self) -> PathNode:
        alternatives = [self.parse_sequence()]
        while self._peek().kind == ",":
            self._advance()
            alternatives.append(self.parse_sequence())
        return _normalize(Selection(tuple(alternatives)))

    # sequence ::= element (';' element)*
    def parse_sequence(self) -> PathNode:
        elements = [self.parse_element()]
        while self._peek().kind == ";":
            self._advance()
            elements.append(self.parse_element())
        return _normalize(Sequence(tuple(elements)))

    # element ::= NAME | '{' selection '}' | '(' selection ')'
    def parse_element(self) -> PathNode:
        token = self._peek()
        if token.kind == "name":
            self._advance()
            return Name(token.value)
        if token.kind == "{":
            self._advance()
            body = self.parse_selection()
            self._expect("}")
            return Burst(body)
        if token.kind == "(":
            self._advance()
            body = self.parse_selection()
            self._expect(")")
            return body
        raise PathSyntaxError(
            "expected operation name, '{{' or '('; found {!r}".format(
                token.value or "end of input"
            ),
            token.position,
            self._text,
        )


def parse_path(text: str) -> PathExpr:
    """Parse one ``path ... end`` declaration.

    >>> parse_path("path { read } , write end").unparse()
    'path { read } , write end'
    """
    parser = _Parser(tokenize(text), text)
    result = parser.parse_path()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise PathSyntaxError(
            "trailing input after 'end'", trailing.position, text
        )
    return result


#: Memo of parsed programs: text -> its declarations.  The AST nodes are
#: frozen, so every caller can share them; each call gets a fresh list.
#: A program that fails to parse is never stored.
_PROGRAMS: Dict[str, Tuple[PathExpr, ...]] = {}
#: The memo is cleared when it reaches this size.
_PROGRAMS_MAX = 1024


def parse_paths(text: str) -> List[PathExpr]:
    """Parse a program of several path declarations, in order.

    Declarations may be separated by arbitrary whitespace/newlines::

        path writeattempt end
        path { requestread } , requestwrite end
    """
    program = _PROGRAMS.get(text)
    if program is None:
        program = tuple(_parse_program(text))
        if len(_PROGRAMS) >= _PROGRAMS_MAX:
            _PROGRAMS.clear()
        _PROGRAMS[text] = program
    return list(program)


def _parse_program(text: str) -> List[PathExpr]:
    tokens = tokenize(text)
    parser = _Parser(tokens, text)
    paths: List[PathExpr] = []
    while parser._peek().kind != "eof":
        paths.append(parser.parse_path())
    if not paths:
        raise PathSyntaxError("no path declarations found", 0, text)
    return paths
