"""Tokenizer shared by the element grammar and the session language."""

from __future__ import annotations

from .errors import ParseError

# Single- and double-character operator tokens, longest match first.
_SYMBOLS = ("==", "->", "(", ")", "+", "-", "*", "/", "^", ";", ",", "=", ":", "@")
_DIGITS = frozenset("0123456789")

#: Deepest parenthesis nesting accepted.  The recursive-descent parsers
#: spend at most five stack frames per level, so this stays far below
#: Python's default recursion limit of 1000.
MAX_NESTING = 64

#: Longest integer literal accepted, far below Python's default limit of
#: 4300 digits on converting a string to an int.
MAX_DIGITS = 1000


class Token:
    __slots__ = ("kind", "text", "pos", "line", "column")

    def __init__(self, kind: str, text: str, pos: int, line: int, column: int):
        self.kind = kind  # "int", "name", one of _SYMBOLS, or "end"
        self.text = text
        self.pos = pos
        self.line = line
        self.column = column


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens; ``#`` starts a comment to end of line."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    depth = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:  # str.isdigit() also admits digits int() rejects, such as "²"
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", i,
                                 line=line, column=col)
            tokens.append(Token("int", source[i:j], i, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], i, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                if sym == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", i,
                                         line=line, column=col)
                elif sym == ")":
                    depth = max(depth - 1, 0)
                tokens.append(Token(sym, sym, i, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i, line=line, column=col)
    tokens.append(Token("end", "", n, line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with backtracking support."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "end":
            self.index += 1
        return tok

    def save(self) -> int:
        return self.index

    def restore(self, mark: int) -> None:
        self.index = mark

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'}"
                + (f" {tok.text!r}" if tok.text else ""),
                tok.pos,
                expected={what or kind},
                line=tok.line,
                column=tok.column,
            )
        return self.next()

    def error(self, message: str, expected=(), at: Token | None = None) -> ParseError:
        """A parse error located at token ``at``, by default the next one."""
        tok = at or self.peek()
        return ParseError(message, tok.pos, expected=expected, line=tok.line, column=tok.column)
