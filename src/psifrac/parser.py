"""Tiny closed grammar for function specs on the command line.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' signed-integer)?
    atom   := NUMBER | 't' | 'x' | 'u' | 'psi' | 'exp' '(' expr ')' | '(' expr ')'

:func:`parse` returns an expression tree (:mod:`psifrac.tree`), with no
sympy; :func:`parse_expr` converts it to sympy.  ``psi`` denotes the
shifted kernel value psi(t) - psi(a) and maps to the variable ``w`` (the
:data:`psifrac.jets.W` symbol in sympy), to be replaced by the caller.
Exponents must be integer literals; everything else that needs non-integer
powers is expressed via ``exp`` or left to the library API.  Deliberately
not sympify(): the input surface stays small and injection-proof.

Nesting of ``(``, ``exp(`` and unary ``-``, counted together, stops at
:data:`MAX_DEPTH`: sympy and the tree walks recurse once per level, and
deeper specs exhaust the stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError
from .tree import T, U, W, X, num, to_sympy

__all__ = ["parse", "parse_expr", "ParseError", "MAX_DEPTH"]

#: deepest nesting of '(', 'exp(' and unary '-' in one spec
MAX_DEPTH = 32


class ParseError(DomainError):
    """Raised when a function spec does not conform to the grammar."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_NAMES = {"t": T, "x": X, "u": U, "psi": W}


@dataclass
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            tail = src[pos:].lstrip()
            if not tail:
                break
            raise ParseError(f"unexpected character {tail[0]!r} at position {pos} in {src!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            text = m.group(kind)
            if text is not None:
                tokens.append(_Token(kind, text, m.start()))
                break
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        if self.cur.kind != "op" or self.cur.text != text:
            raise ParseError(f"expected {text!r} at position {self.cur.pos} in {self.src!r}")
        self.advance()

    def nested(self, parse) -> tuple:
        """parse() one nesting level below the token just read."""
        if self.depth == MAX_DEPTH:
            pos = self.tokens[self.i - 1].pos
            raise ParseError(
                f"nesting deeper than {MAX_DEPTH} levels at position {pos} in {self.src!r}")
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def parse(self) -> tuple:
        e = self.expr()
        if self.cur.kind != "end":
            raise ParseError(
                f"trailing input {self.cur.text!r} at position {self.cur.pos} in {self.src!r}"
            )
        return e

    def expr(self) -> tuple:
        e = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = ("add", e, rhs if op == "+" else _neg(rhs))
        return e

    def term(self) -> tuple:
        e = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            rhs = self.unary()
            e = ("mul", e, rhs if op == "*" else ("pow", rhs, num(-1)))
        return e

    def unary(self) -> tuple:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return _neg(self.nested(self.unary))
        return self.power()

    def power(self) -> tuple:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            sign = 1
            if self.cur.kind == "op" and self.cur.text == "-":
                self.advance()
                sign = -1
            tok = self.cur
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                raise ParseError(
                    f"exponent must be an integer literal at position {tok.pos} in {self.src!r}"
                )
            self.advance()
            return ("pow", base, num(sign * int(tok.text)))
        return base

    def atom(self) -> tuple:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            # a decimal stays text: sympy reads it at the precision its digits give
            return num(int(tok.text) if "." not in tok.text else tok.text)
        if tok.kind == "name":
            self.advance()
            if tok.text == "exp":
                self.expect("(")
                arg = self.nested(self.expr)
                self.expect(")")
                return ("exp", arg)
            try:
                return _NAMES[tok.text]
            except KeyError:
                raise ParseError(
                    f"unknown name {tok.text!r} at position {tok.pos} in {self.src!r}"
                ) from None
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.nested(self.expr)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {tok.text!r} at position {tok.pos} in {self.src!r}")


def _neg(e: tuple) -> tuple:
    return ("mul", num(-1), e)


def parse(spec: str) -> tuple:
    """Parse a function spec into a tree over x, t, u and w (``psi``)."""
    if not spec or not spec.strip():
        raise ParseError("empty function spec")
    return _Parser(spec).parse()


def parse_expr(spec: str):
    """Parse a function spec into a sympy expression over x, t, u and psi.

    ``psi`` is returned as the :data:`psifrac.jets.W` symbol, to be
    substituted with ``psi(t) - psi(a)`` by the caller.
    """
    return to_sympy(parse(spec))
