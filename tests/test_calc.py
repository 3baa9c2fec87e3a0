"""Parser, renderer, and evaluator for the expression language."""

import random
import time
from fractions import Fraction

import pytest

from planechow import chow
from planechow.calc import (
    MAX_EXPONENT,
    BinOp,
    Diagnostic,
    EvalError,
    Num,
    NormalFormCall,
    ParseError,
    Pow,
    Span,
    Var,
    evaluate,
    parse,
    render,
    run,
)
from planechow.moduli import delta_pullback
from planechow.mpoly import C1, C2, C3, H, MPoly
from planechow.scalars import D, UniPoly

from conftest import random_ast


def test_parse_structure():
    tree = parse("c1 + c2 * h")
    assert tree == BinOp(
        "+",
        Var("c1", Span(0, 2)),
        BinOp("*", Var("c2", Span(5, 7)), Var("h", Span(10, 11)), Span(5, 11)),
        Span(0, 11),
    )
    assert tree.span == Span(0, 11)
    # equality and hashing ignore spans
    grouped = parse("(c1 + (c2*h))")
    assert tree == grouped and not tree != grouped
    assert hash(tree) == hash(grouped)
    assert tree != parse("c1 + c2 * c3")


def test_parse_numbers():
    assert parse("12") == Num(Fraction(12), Span(0, 2))
    assert parse("3/4") == Num(Fraction(3, 4), Span(0, 3))
    assert parse("6/4") == Num(Fraction(3, 2), Span(0, 3))


def test_parse_power_and_calls():
    assert parse("c1^3") == Pow(Var("c1", Span(0, 2)), 3, Span(0, 4))
    tree = parse("nf(c1^4, nodal, 7)")
    assert isinstance(tree, NormalFormCall)
    assert tree.ideal == "nodal" and tree.at == 7


def test_parse_precedence():
    flat = parse("c1 + c2 * c3")
    assert flat.op == "+" and flat.right.op == "*"
    grouped = parse("(c1 + c2) * c3")
    assert grouped.op == "*" and grouped.left.op == "+"


@pytest.mark.parametrize(
    "text, message, start, end",
    [
        ("c1 + * c2", "expected a number, identifier or '('", 5, 6),
        ("2 c1", "unexpected 'c1'", 2, 4),
        ("-c1", "expected a number, identifier or '('", 0, 1),
        ("1/0", "zero denominator", 0, 3),
        ("x + c1", "unknown identifier 'x'", 0, 1),
        ("foo(c1)", "unknown function 'foo'", 0, 3),
        ("push(c1, c2)", "'push' takes 1 argument(s), got 2", 0, 12),
        ("(c1 + c2", "expected ')'", 8, 8),
        ("c1^h", "expected an integer exponent after '^'", 3, 4),
        ("c1^2^3", "unexpected '^'", 4, 5),
        ("c1 @ c2", "unexpected character '@'", 3, 4),
        ("nf(c1, weird, 4)", "unknown ideal preset 'weird'", 7, 12),
    ],
)
def test_parse_diagnostics(text, message, start, end):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.message == message
    assert exc.value.span == Span(start, end)
    assert exc.value.render() == f"error: {message} at {start}..{end}"


def test_parse_depth_limit():
    deep = "(" * 20000 + "c1" + ")" * 20000
    with pytest.raises(ParseError) as exc:
        parse(deep)
    assert exc.value.message == "expression nested too deeply"


def test_evaluate_depth_limit():
    # a flat chain parses iteratively but evaluates as a 5,000-deep tree
    chain = " + ".join(["c1"] * 5000)
    tree = parse(chain)
    for at in (None, 4):
        with pytest.raises(EvalError) as exc:
            evaluate(tree, at=at)
        assert exc.value.message == "expression nested too deeply"
        assert exc.value.span == Span(0, len(chain))


def test_evaluate_exponent_budget():
    assert MAX_EXPONENT >= 10
    assert run(f"c1^{MAX_EXPONENT}") == C1**MAX_EXPONENT
    text = "2*(c1 + h)^100000000"
    # the tree still parses and renders; only evaluation refuses it
    assert parse(render(parse(text))) == parse(text)
    for at in (None, 4):
        start = time.perf_counter()
        with pytest.raises(EvalError) as exc:
            run(text, at=at)
        assert time.perf_counter() - start < 1
        assert exc.value.message == (
            f"exponent 100000000 exceeds the budget {MAX_EXPONENT}"
        )
        assert exc.value.span == Span(2, len(text))


def test_render_goldens():
    cases = [
        ("c1+c2*c3", "c1 + c2 * c3"),
        ("(c1+c2)*c3", "(c1 + c2) * c3"),
        ("(c1^2)^3", "(c1^2)^3"),
        ("c1 - (c2 - c3)", "c1 - (c2 - c3)"),
        ("c1-c2-c3", "c1 - c2 - c3"),
        ("nf(c1^4,nodal,7)", "nf(c1^4, nodal, 7)"),
        ("push( euler_twist( d - 1 ) )", "push(euler_twist(d - 1))"),
        ("3/4*h", "3/4 * h"),
    ]
    for text, want in cases:
        assert render(parse(text)) == want


def test_render_parse_round_trip_random():
    rng = random.Random(20240)
    for _ in range(300):
        tree = random_ast(rng)
        assert parse(render(tree)) == tree


def test_evaluate_basics():
    assert run("c1 + c2") == C1 + C2
    assert run("2*c1 - c1") == C1
    assert run("3/4*c1", at=5) == C1.scale(Fraction(3, 4))
    assert run("3/4*c1") == C1.scale(Fraction(3, 4))
    assert run("d^2 - 3*d + 3", at=4) == MPoly.const(Fraction(7))
    assert run("d^2 - 3*d + 3") == MPoly.const(D * D - 3 * D + 3)


def test_evaluate_keeps_classes_reduced():
    assert run("h^3") == -(C1 * H**2 + C2 * H + C3)
    assert run("h^2 * h^2") == chow.reduce_class(H**4)
    assert run("(h + c1)^3").degree_in("h") <= 2


def test_evaluate_chow_functions():
    assert run("K()") == H.scale(-3) - C1
    assert run("nodal_divisor()", at=3) == C1.scale(-2)
    assert run("nodal_divisor()") == H.scale(2 * D - 6) - C1.scale(2)
    assert run("euler_twist(2)") == chow.euler_twist(2)
    assert run("euler_twist(d - 1)") == chow.euler_twist(D - 1)
    assert run("push(euler_twist(d - 1))") == delta_pullback(D)
    assert run("push(h^2)") == MPoly.const(1)
    assert run("reduce(h^2)") == H**2


def test_evaluate_normal_form():
    assert run("nf(c1^4, nodal, 7)", at=7).is_zero
    assert run("nf(c1, smooth, 3)", at=3).is_zero
    assert not run("nf(c1, nodal, 3)", at=3).is_zero
    # nf reduces in the ideal of the degree everything else is evaluated at
    with pytest.raises(EvalError) as exc:
        run("nf(c1^4, nodal, 5)", at=9)
    assert exc.value.message == "nf(...) is at degree 5 but --d is 9"
    assert exc.value.span == Span(0, 18)


@pytest.mark.parametrize(
    "text, at, fragment",
    [
        ("nf(c1, nodal, 4)", None, "needs a specific degree"),
        ("nf(h, nodal, 4)", 4, "apply push(...) first"),
        ("nf(c1, nodal, 0)", 4, "positive integer"),
        ("euler_twist(c1)", None, "expects a scalar argument"),
        ("euler_twist(K())", 4, "expects a scalar argument"),
    ],
)
def test_evaluate_errors(text, at, fragment):
    with pytest.raises(EvalError) as exc:
        run(text, at=at)
    assert fragment in exc.value.message
    assert exc.value.span.end >= exc.value.span.start


def test_evaluate_rejects_bad_degree():
    with pytest.raises(ValueError):
        evaluate(parse("c1"), at=0)
    with pytest.raises(ValueError):
        evaluate(parse("c1"), at="4")


def test_random_trees_only_raise_diagnostics():
    rng = random.Random(99)
    for at in (None, 4):
        for _ in range(200):
            tree = random_ast(rng)
            try:
                result = evaluate(tree, at=at)
            except Diagnostic:
                continue
            assert isinstance(result, MPoly)
            assert result.degree_in("h") <= 2


_LEAVES = ("c1", "c2", "c3", "h", "d", "1/2", "3", "K()", "nodal_divisor()")
_INTEGRAL_LEAVES = tuple(leaf for leaf in _LEAVES if leaf != "1/2")


def _random_scalar(rng: random.Random, depth: int, leaves=_LEAVES) -> str:
    """Random expression in d and numbers only: an euler_twist argument."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([leaf for leaf in ("d", "1/2", "3") if leaf in leaves])
    left = _random_scalar(rng, depth - 1, leaves)
    right = _random_scalar(rng, depth - 1, leaves)
    return f"({left} {rng.choice('+-*')} {right})"


def _random_expression(rng: random.Random, depth: int, leaves=_LEAVES) -> str:
    """Random calculator text that evaluates both with d formal and at d."""
    choice = rng.randrange(5) if depth > 0 else 4
    if choice == 0:
        left = _random_expression(rng, depth - 1, leaves)
        right = _random_expression(rng, depth - 1, leaves)
        return f"({left} {rng.choice('+-*')} {right})"
    if choice == 1:
        # a shallow base: a power is expanded before it is reduced
        base = _random_expression(rng, min(depth - 1, 1), leaves)
        return f"({base})^{rng.randint(0, 3)}"
    if choice == 2:
        return f"push({_random_expression(rng, depth - 1, leaves)})"
    if choice == 3:
        return f"euler_twist({_random_scalar(rng, depth - 1, leaves)})"
    return rng.choice(leaves)


def test_generic_then_specialised_equals_specific():
    # metamorphic: evaluating with d formal and then pinning d agrees with
    # evaluating at that d from the start
    rng = random.Random(2024)
    for _ in range(300):
        text = _random_expression(rng, 4)
        d = rng.randint(1, 12)
        generic = run(text).specialize(d)
        specific = run(text, at=d)
        assert generic == specific, f"{text} at d={d}"


def test_generic_power_of_euler_twist_specialises():
    # 330 terms with coefficients of degree 27 in d: integral UniPoly
    # coefficients keep this a fraction of a second
    text = "((euler_twist(d))^3)^3"
    assert run(text).specialize(8) == run(text, at=8)


def test_integral_data_stay_int():
    rng = random.Random(4051)
    for _ in range(200):
        text = _random_expression(rng, 4, _INTEGRAL_LEAVES)
        d = rng.randint(1, 12)
        for c in run(text, at=d).terms.values():
            assert type(c) is int, f"{text} at d={d}: {c!r}"
        for c in run(text).terms.values():
            entries = c.coeffs if isinstance(c, UniPoly) else (c,)
            assert all(type(x) is int for x in entries), f"{text}: {c!r}"


def _fix(printed: str) -> str:
    """Printed class as calculator text: the grammar has no unary minus."""
    text = printed.replace("(-", "(0 - ")
    return "0 - " + text[1:] if text.startswith("-") else text


def test_printed_class_reads_back():
    # metamorphic: the printer is a fixed point of parse-and-evaluate, for
    # int, Fraction and UniPoly coefficients alike
    rng = random.Random(7)
    for i in range(1200):
        text = _random_expression(rng, 4)
        at = None if i % 2 else rng.randint(1, 12)
        value = run(text, at=at)
        assert run(_fix(str(value)), at=at) == value, f"{text} at d={at}"
