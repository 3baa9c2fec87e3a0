"""Expression language for the Chow calculator.

Grammar (whitespace between tokens is ignored, no implicit multiplication,
no unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER | IDENT | IDENT '(' args? ')' | '(' expr ')'
    NUMBER := INT ('/' INT)?

Variables: c1 c2 c3 h d.  Functions: push(x), euler_twist(k), K(),
nodal_divisor(), reduce(x), nf(x, smooth|nodal, INT), where INT must equal
the degree of evaluation.  Every syntax tree node carries a source span;
parse and evaluation failures raise diagnostics that point back into the
input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from . import chow, moduli
from .groebner import normal_form
from .mpoly import MPoly
from .scalars import D, UniPoly


class Span(NamedTuple):
    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


class Diagnostic(Exception):
    """A parse or evaluation failure pinned to a source span."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self) -> str:
        return f"error: {self.message} at {self.span}"


class ParseError(Diagnostic):
    pass


class EvalError(Diagnostic):
    pass


class Num(NamedTuple):
    value: Union[int, Fraction]
    span: Span


class Var(NamedTuple):
    name: str
    span: Span


class BinOp(NamedTuple):
    op: str
    left: "Ast"
    right: "Ast"
    span: Span


class Pow(NamedTuple):
    base: "Ast"
    exponent: int
    span: Span


class Call(NamedTuple):
    name: str
    args: tuple
    span: Span


class NormalFormCall(NamedTuple):
    expr: "Ast"
    ideal: str
    at: int
    span: Span


Ast = Union[Num, Var, BinOp, Pow, Call, NormalFormCall]


def _same_node(a: Ast, b: object) -> bool:
    """Tree equality ignores spans; every node keeps its span last."""
    return type(a) is type(b) and a[:-1] == b[:-1]


for _node in Ast.__args__:
    _node.__eq__ = _same_node
    _node.__ne__ = lambda a, b: not _same_node(a, b)
    _node.__hash__ = lambda a: hash((type(a), a[:-1]))

VARIABLE_NAMES = ("c1", "c2", "c3", "h", "d")
FUNCTION_ARITY = {
    "push": 1,
    "euler_twist": 1,
    "K": 0,
    "nodal_divisor": 0,
    "reduce": 1,
    "nf": 3,
}
IDEAL_PRESETS = ("smooth", "nodal")

#: Largest exponent evaluated after '^'; a power is expanded before it is
#: reduced, so this bounds its work (bench/workloads.py uses at most 10).
MAX_EXPONENT = 64


class _Token(NamedTuple):
    kind: str  # NUM INT IDENT + - * ^ ( ) , EOF
    text: str
    value: object
    span: Span


def _is_digit(ch: str) -> bool:
    # str.isdigit also accepts unicode digits that int() rejects
    return "0" <= ch <= "9"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            numerator = int(text[i:j])
            if j < n and text[j] == "/" and j + 1 < n and _is_digit(text[j + 1]):
                k = j + 1
                while k < n and _is_digit(text[k]):
                    k += 1
                denominator = int(text[j + 1 : k])
                if denominator == 0:
                    raise ParseError("zero denominator", Span(i, k))
                tokens.append(
                    _Token(
                        "NUM",
                        text[i:k],
                        Fraction(numerator, denominator),
                        Span(i, k),
                    )
                )
                i = k
                continue
            tokens.append(_Token("INT", text[i:j], numerator, Span(i, j)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], text[i:j], Span(i, j)))
            i = j
            continue
        if ch in "+-*^(),":
            tokens.append(_Token(ch, ch, ch, Span(i, i + 1)))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", Span(i, i + 1))
    tokens.append(_Token("EOF", "", None, Span(n, n)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.span)
        return self.advance()

    def parse_expr(self) -> Ast:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.parse_term()
            node = BinOp(
                op.kind, node, right, Span(node.span.start, right.span.end)
            )
        return node

    def parse_term(self) -> Ast:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            right = self.parse_factor()
            node = BinOp(
                "*", node, right, Span(node.span.start, right.span.end)
            )
        return node

    def parse_factor(self) -> Ast:
        node = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise ParseError("expected an integer exponent after '^'", tok.span)
            self.advance()
            node = Pow(node, tok.value, Span(node.span.start, tok.span.end))
        return node

    def parse_atom(self) -> Ast:
        tok = self.peek()
        if tok.kind in ("NUM", "INT"):
            self.advance()
            return Num(tok.value, tok.span)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            close = self.expect(")", "')'")
            return node._replace(span=Span(tok.span.start, close.span.end))
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "(":
                return self.parse_call(tok)
            if tok.value not in VARIABLE_NAMES:
                raise ParseError(f"unknown identifier '{tok.value}'", tok.span)
            return Var(tok.value, tok.span)
        raise ParseError("expected a number, identifier or '('", tok.span)

    def parse_call(self, name_tok: _Token) -> Ast:
        name = name_tok.value
        if name not in FUNCTION_ARITY:
            raise ParseError(f"unknown function '{name}'", name_tok.span)
        self.expect("(", "'('")
        if name == "nf":
            expr = self.parse_expr()
            self.expect(",", "','")
            ideal_tok = self.expect("IDENT", "ideal name ('smooth' or 'nodal')")
            if ideal_tok.value not in IDEAL_PRESETS:
                raise ParseError(
                    f"unknown ideal preset '{ideal_tok.value}'",
                    ideal_tok.span,
                )
            self.expect(",", "','")
            d_tok = self.expect("INT", "integer degree")
            close = self.expect(")", "')'")
            return NormalFormCall(
                expr,
                ideal_tok.value,
                d_tok.value,
                Span(name_tok.span.start, close.span.end),
            )
        args = []
        if self.peek().kind != ")":
            args.append(self.parse_expr())
            while self.peek().kind == ",":
                self.advance()
                args.append(self.parse_expr())
        close = self.expect(")", "')'")
        if len(args) != FUNCTION_ARITY[name]:
            raise ParseError(
                f"'{name}' takes {FUNCTION_ARITY[name]} argument(s), got {len(args)}",
                Span(name_tok.span.start, close.span.end),
            )
        return Call(
            name, tuple(args), Span(name_tok.span.start, close.span.end)
        )


def parse(text: str) -> Ast:
    """Parse an expression; raises ParseError, never anything else."""
    try:
        parser = _Parser(_tokenize(text))
        node = parser.parse_expr()
        tok = parser.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.span)
    except RecursionError:
        raise ParseError(
            "expression nested too deeply", Span(0, len(text))
        ) from None
    return node


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def render(node: Ast) -> str:
    """Canonical text for a tree; parse(render(t)) == t up to spans."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Pow):
        base = render(node.base)
        if isinstance(node.base, (BinOp, Pow)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(render(a) for a in node.args)})"
    if isinstance(node, NormalFormCall):
        return f"nf({render(node.expr)}, {node.ideal}, {node.at})"
    left = render(node.left)
    right = render(node.right)
    prec = _PRECEDENCE[node.op]
    if isinstance(node.left, BinOp) and _PRECEDENCE[node.left.op] < prec:
        left = f"({left})"
    if isinstance(node.right, BinOp) and _PRECEDENCE[node.right.op] <= prec:
        right = f"({right})"
    return f"{left} {node.op} {right}"


class _Evaluator:
    def __init__(self, at: int | None):
        self.at = at
        self.d_scalar = D if at is None else at

    def eval(self, node: Ast) -> MPoly:
        if isinstance(node, Num):
            value = node.value
            if value.denominator == 1:
                return MPoly.const(value.numerator)
            if self.at is None:
                return MPoly.const(UniPoly.const(value))
            return MPoly.const(value)
        if isinstance(node, Var):
            if node.name == "d":
                return MPoly.const(self.d_scalar)
            return MPoly.variable(node.name)
        if isinstance(node, BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return chow.reduce_class(left * right)
        if isinstance(node, Pow):
            if node.exponent > MAX_EXPONENT:
                msg = f"exponent {node.exponent} exceeds the budget {MAX_EXPONENT}"
                raise EvalError(msg, node.span)
            return chow.reduce_class(self.eval(node.base) ** node.exponent)
        if isinstance(node, NormalFormCall):
            if self.at is None:
                raise EvalError(
                    "nf(...) needs a specific degree; pass --d", node.span
                )
            arg = self.eval(node.expr)
            if not arg.uses_only(("c1", "c2", "c3")):
                raise EvalError(
                    "nf(...) expects a class without h; apply push(...) first",
                    node.expr.span,
                )
            if node.at < 1:
                msg = f"curve degree must be a positive integer, got {node.at}"
                raise EvalError(msg, node.span)
            if node.at != self.at:
                msg = f"nf(...) is at degree {node.at} but --d is {self.at}"
                raise EvalError(msg, node.span)
            return normal_form(arg, moduli.groebner_basis(node.ideal, node.at))
        return self.eval_call(node)

    def eval_call(self, node: Call) -> MPoly:
        if node.name == "K":
            return chow.canonical_class()
        if node.name == "nodal_divisor":
            return chow.nodal_divisor_class(self.d_scalar)
        arg = self.eval(node.args[0])
        if node.name == "push":
            return chow.integrate(arg)
        if node.name == "reduce":
            return chow.reduce_class(arg)
        # euler_twist: the argument must be a pure scalar
        try:
            k = arg.constant_scalar()
        except ValueError:
            raise EvalError(
                "euler_twist expects a scalar argument",
                node.args[0].span,
            ) from None
        return chow.euler_twist(k)


def evaluate(node: Ast, at: int | None = None) -> MPoly:
    """Evaluate a tree generically (at=None) or at one specific degree.

    Results are kept reduced, so anything returned has h-degree at most 2.
    """
    if at is not None and (not isinstance(at, int) or at < 1):
        raise ValueError(f"degree must be a positive integer, got {at!r}")
    try:
        return _Evaluator(at).eval(node)
    except RecursionError:
        raise EvalError("expression nested too deeply", node.span) from None


def run(text: str, at: int | None = None) -> MPoly:
    """Parse and evaluate in one go."""
    return evaluate(parse(text), at)
