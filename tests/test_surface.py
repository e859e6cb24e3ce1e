"""Parsers, printers, and their round-trip guarantees."""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
import random

import pytest

from debruijn import (
    Assignment,
    BindingArity,
    Diagnostic,
    ExplicitSubst,
    MetaVar,
    NOp,
    NVar,
    Op,
    ParseError,
    Renaming,
    TOp,
    TVar,
    TypeGrammar,
    Var,
    alpha_eq,
    arrow,
    base,
    from_named,
    lambda_signature,
    parse_assignment,
    parse_renaming,
    parse_signature_file,
    parse_term,
    parse_theory_file,
    parse_type,
    print_assignment,
    print_json,
    print_signature,
    print_term,
    term_from_json,
    term_to_json,
    to_named,
)
from debruijn import surface
from debruijn.gen import random_assignment, random_term
from debruijn.signature import _subst_type

from helpers import app, lam, ref_parse, ref_term_from_json, ref_tokenize, timed

SIG = lambda_signature()


# --- nameless terms -----------------------------------------------------


def test_parse_nameless():
    assert parse_term("(lam (app 1 0))") == lam(app(Var(1), Var(0)))
    assert parse_term("7") == Var(7)


def test_parse_nameless_checks_arity():
    with pytest.raises(ParseError):
        parse_term("(app 0)", sig=SIG)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as e:
        parse_term("(lam ))")
    d = e.value.diagnostics[0]
    assert d.severity == "error"
    assert d.span is not None and d.span.line == 1


def test_print_nameless_canonical():
    assert print_term(lam(app(Var(1), Var(0)))) == "(lam (app 1 0))"


def test_nameless_round_trip():
    rng = random.Random(2)
    for _ in range(500):
        t = random_term(SIG, rng)
        assert parse_term(print_term(t)) == t


# --- named terms --------------------------------------------------------


def test_parse_named():
    got = parse_term("(lam [x] (app x x0))", "named")
    assert got == NOp("lam", ((("x",), NOp("app", (((), NVar("x")), ((), NVar("x0"))))),))


@pytest.mark.parametrize("text, message", [
    ("(lam [a 1] a)", "1:9: error: expected 'ident', found '1'"),
    ("(lam [a b", "1:10: error: expected 'ident', found 'end of input'"),
    ("(lam [(a)] a)", "1:7: error: expected 'ident', found '('"),
    ("(lam [a] [b] a)", "1:10: error: expected '(', found '['"),
    ("[a] a", "1:1: error: expected '(', found '['"),
])
def test_named_binder_list_diagnostics_are_pinned(text, message):
    """The named reader reads a ``[a b]`` binder list off the token list;
    a token there that is not a name fails where the grammar's rule did."""
    with pytest.raises(ParseError) as e:
        parse_term(text, "named")
    assert str(e.value) == message


def test_named_printing_uses_letter_supply():
    named = to_named(SIG, lam(lam(app(Var(1), Var(0)))))
    assert print_term(named) == "(lam [a] (lam [b] (app a b)))"


def test_named_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        t = to_named(SIG, random_term(SIG, rng))
        assert alpha_eq(parse_term(print_term(t), "named"), t)


def test_print_nameless_as_named():
    out = print_term(to_named(SIG, lam(app(Var(1), Var(0)))))
    assert out == "(lam [a] (app x0 a))"


# --- typed terms --------------------------------------------------------


def test_parse_typed():
    a = base("a")
    got = parse_term("(op[lam; a, a] (#0 : a))", "typed")
    assert got == TOp("lam", (a, a), (TVar(0, a),))


def test_typed_round_trip():
    a = base("a")
    t = TOp(
        "app",
        (a, a),
        (TOp("lam", (a, a), (TVar(0, a),)), TVar(2, a)),
    )
    assert parse_term(print_term(t), "typed") == t


def test_parse_type():
    a, b = base("a"), base("b")
    assert parse_type("a -> a -> b") == arrow(a, arrow(a, b))
    assert parse_type("(a -> a) -> b") == arrow(arrow(a, a), b)
    assert parse_type("list(a)") == __import__("debruijn").TypeExpr("list", (a,))


def _nested_types(n: int) -> dict[str, str]:
    """Types written ``n`` levels deep: arrows, parentheses, constructor
    arguments, and left-nested arrows, a level per parenthesis and one for
    the innermost arrow's right side."""
    return {
        "arrows": "a -> " * (n - 1) + "a",
        "parentheses": "(" * (n - 1) + "a" + ")" * (n - 1),
        "constructors": "pair(a, " * (n - 1) + "a" + ")" * (n - 1),
        "left arrows": "(" * (n - 2) + "a" + " -> a)" * (n - 2),
    }


def test_type_nesting_is_bounded():
    """A type nested ``MAX_TYPE_NESTING`` levels deep parses, and the walks
    over types that recurse take it; one level more is a parse error at
    the token that opens it."""
    n = surface.MAX_TYPE_NESTING
    grammar = TypeGrammar({"a": 0, "b": 0, "pair": 2, "->": 2})
    for text in _nested_types(n).values():
        ty = parse_type(text)
        assert grammar.wellformed(ty) == []
        assert _subst_type(ty, {"a": base("b")}) != ty
        assert parse_type(str(ty)) == ty
        assert parse_type(text) == ty and not parse_type(text) != ty
    # where level n + 1 opens
    starts = {"arrows": 5 * n, "parentheses": n, "constructors": 8 * (n - 1) + 5, "left arrows": n + 4}
    for kind, text in _nested_types(n + 1).items():
        with pytest.raises(ParseError, match=f"type nested more than {n} levels deep") as e:
            parse_type(text)
        assert e.value.diagnostics[0].span.start == starts[kind]


# --- literals -----------------------------------------------------------


def test_parse_assignment_literal():
    got = parse_assignment("[(lam 0); ^0]", SIG)
    assert got == Assignment((lam(Var(0)),), 0)
    assert parse_assignment("[; ^1]") == Assignment((), 1)


def test_parse_renaming_literal():
    assert parse_renaming("[3, 1; ^2]") == Renaming((3, 1), 2)


def test_assignment_print_round_trip():
    rng = random.Random(5)
    for _ in range(200):
        a = random_assignment(SIG, rng)
        assert parse_assignment(print_assignment(a)) == a


def test_renaming_print_round_trip():
    # a renaming's entries are naturals, which print_term prints as digits
    assert print_assignment(Renaming((0, 4), 1)) == "[0, 4; ^1]"
    assert parse_renaming(print_assignment(Renaming((0, 4), 1))) == Renaming((0, 4), 1)


# --- JSON ---------------------------------------------------------------


def test_json_shape():
    t = lam(Var(0))
    assert term_to_json(t) == {"op": "lam", "args": [{"var": 0}]}
    assert term_from_json({"op": "lam", "args": [{"var": 0}]}) == t


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(SIG, rng)
        assert term_from_json(term_to_json(t)) == t


# operation names that json.dumps escapes: quotes, backslashes, control
# characters, non-ASCII text and a surrogate pair
JSON_NAMES = ("lam", "app", 'q"uote', "back\\slash", "tab\tnl\n\x00", "λ", "snow☃", "\U0001d11e", "")


def _named_ops(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.randrange(6))
    return Op(rng.choice(JSON_NAMES), tuple(_named_ops(rng, depth - 1) for _ in range(rng.randrange(4))))


def test_print_json_is_json_dumps_of_term_to_json():
    rng = random.Random(71)
    for _ in range(400):
        t = random_term(SIG, rng) if rng.random() < 0.5 else _named_ops(rng, 6)
        assert print_json(t) == json.dumps(term_to_json(t), separators=(", ", ": "))
    assert print_json(Op("c", ())) == '{"op": "c", "args": []}'
    assert print_json(Var(3)) == '{"var": 3}'
    with pytest.raises(TypeError):
        print_json(lam("not a term"))


def test_term_from_json_matches_the_recursive_one():
    rng = random.Random(72)
    for _ in range(400):
        t = random_term(SIG, rng) if rng.random() < 0.5 else _named_ops(rng, 6)
        data = json.loads(json.dumps(term_to_json(t)))
        assert term_from_json(data) == ref_term_from_json(data) == t


@pytest.mark.parametrize("data", [
    {"var": True},
    {"var": 0, "op": "c"},
    {"op": "lam", "args": [{"var": 0}], "x": 1},
    {"op": "lam", "args": ({"var": 0},)},
    {"op": "lam", "args": {"var": 0}},
    {"op": "lam", "args": [[{"var": 0}]]},
    {"op": "app", "args": [{"var": 0}, {"var": False}]},
    {"op": "lam", "args": [{"op": "lam", "args": [{"var": 1, "y": 2}]}]},
    [{"var": 0}],
    "lam",
    None,
], ids=[
    "var-bool", "extra-key", "op-extra-key", "args-tuple", "args-dict", "arg-list",
    "late-bool", "deep-extra-key", "list", "str", "none",
])
def test_term_from_json_rejects_what_the_recursive_one_does(data):
    with pytest.raises(ValueError) as want:
        ref_term_from_json(data)
    with pytest.raises(ValueError) as got:
        term_from_json(data)
    assert str(got.value) == str(want.value)


# --- signature files ----------------------------------------------------


LAMBDA_SIG_TEXT = """\
signature lambda {
  op lam : (1);
  op app : (0, 0);
}
"""


def test_parse_signature_file():
    f = parse_signature_file(LAMBDA_SIG_TEXT)
    assert f.signatures["lambda"].ops == SIG.ops


def test_signature_print_round_trip():
    text = print_signature("lambda", SIG)
    assert parse_signature_file(text).signatures["lambda"].ops == SIG.ops


def test_parse_signature_duplicate_op():
    with pytest.raises(ParseError) as e:
        parse_signature_file("signature s { op f : (0); op f : (1); }")
    assert any("duplicate" in str(d) for d in e.value.diagnostics)


@pytest.mark.parametrize("text, message", [
    ("signature a { op f : (0); } signature a { op g : (1); }",
     "duplicate signature name 'a'"),
    ("types { a; } signature a { op f [s] : -> s; } signature a { op f : (0); }",
     "duplicate signature name 'a'"),
    ("types { a; } types { a(1); }", "duplicate type constructor 'a'"),
    ("signature s { op f [s] : (|- s), -> s; }", "expected '(', found '->'"),
])
def test_parse_signature_file_drops_no_input(text, message):
    with pytest.raises(ParseError) as e:
        parse_signature_file(text)
    assert [d.message for d in e.value.diagnostics] == [message]


def test_parse_typed_signature_file():
    text = """
    types { a; b; }
    signature stlc {
      op lam [s, t] : (s |- t) -> s -> t;
      op app [s, t] : (|- s -> t), (|- s) -> t;
    }
    """
    f = parse_signature_file(text)
    sch = f.schemas["stlc"]
    s, t = base("s"), base("t")
    assert sch.schemas["lam"].template.premises == (((s,), t),)
    assert sch.schemas["lam"].template.conclusion == arrow(s, t)
    assert sch.schemas["app"].template.premises == (((), arrow(s, t)), ((), s))
    assert sch.grammar.ctors == {"a": 0, "b": 0, "->": 2}


def test_parse_nullary_arity():
    f = parse_signature_file("signature fo { op c : (); op f : (0, 0); }")
    assert f.signatures["fo"].ops["c"] == BindingArity(())


# --- theory files -------------------------------------------------------


BETA_THEORY_TEXT = """\
signature lambda {
  op lam : (1);
  op app : (0, 0);
}
eq beta [(1, 0)] : (app (lam ?0) ?1) = { ?0 [?1; ^0] };
"""


def test_parse_theory_file():
    th = parse_theory_file(BETA_THEORY_TEXT)
    rule = th.rules[0]
    assert rule.name == "beta"
    assert rule.arity == BindingArity((1, 0))
    assert rule.left == Op("app", (Op("lam", (MetaVar(0),)), MetaVar(1)))
    assert rule.right == ExplicitSubst(MetaVar(0), Assignment((MetaVar(1),), 0))


def test_parse_theory_file_bare_arity_brackets():
    th = parse_theory_file(BETA_THEORY_TEXT.replace("[(1, 0)]", "[1, 0]"))
    assert th.rules[0].arity == BindingArity((1, 0))


def test_theory_file_matches_builtin():
    from debruijn import beta_theory

    th = parse_theory_file(BETA_THEORY_TEXT)
    assert th.rules == beta_theory().rules


def test_theory_file_rejects_nonlinear():
    text = BETA_THEORY_TEXT.replace("(app (lam ?0) ?1)", "(app ?0 ?0)")
    with pytest.raises(ParseError):
        parse_theory_file(text)


def test_diagnostic_str():
    d = Diagnostic("error", "boom")
    assert str(d) == "error: boom"


# --- pinned behaviour ---------------------------------------------------


PIN_SIG_FILES = [
    LAMBDA_SIG_TEXT,
    "signature fo { op c : (); op f : (0, 0); op m : (2, 0, 1); }",
    "signature a { op f : (0); }\nsignature b { op g : (1, 1); }",
    """
    types { a; b; }
    signature stlc {
      op lam [s, t] : (s |- t) -> s -> t;
      op app [s, t] : (|- s -> t), (|- s) -> t;
    }
    """,
    """
    types { a; list(1); }
    types { pair(2); }
    signature lists {
      op nil [s] : -> list(s);
      op cons [s] : (|- s), (|- list(s)) -> list(s);
      op fold [s, t] : (s, t |- t), (|- t), (|- list(s)) -> t;
      op mk [s, t] : (|- s), (|- t) -> pair(s, t);
      op k [] : -> a;
    }
    signature lam { op lam : (1); }
    """,
    "",
]
PIN_THEORY_FILES = [
    BETA_THEORY_TEXT,
    BETA_THEORY_TEXT.replace("[(1, 0)]", "[1, 0]"),
    """
    signature lambda { op lam : (1); op app : (0, 0); }
    eq beta [(1, 0)] : (app (lam ?0) ?1) = { ?0 [?1; ^0] };
    eq eta [0] : (lam (app { ?0 [; ^1] } 0)) = ?0;
    """,
    """
    eq unit [(0)] : (f ?0 (c)) = ?0;
    signature mon { op f : (0, 0); op c : (); }
    eq assoc [0, 0, 0] : (f (f ?0 ?1) ?2) = (f ?0 (f ?1 ?2));
    """,
    "signature empty { }",
]
PIN_TERMS = {
    "nameless": [
        "0", "42", "(lam 0)", "(lam (app 1 0))", " ( app\n (lam 0)\t7 ) ",
        "(c)", "(f (g) 3 (h 1 2))",
    ],
    "named": [
        "x", "(lam [x] x)", "(lam [x] (app x x0))", "(f [a b] (g a b) c)",
        "(lam [] y)", "(c)",
    ],
    "typed": [
        "(#0 : a)", "(#3 : a -> b)", "(op[lam; a, a] (#0 : a))",
        "(op[app; a, a] (op[lam; a, a] (#0 : a)) (#2 : a))",
        "(op[k;] )", "(op[k] )", "(op[nil; list(a)])",
    ],
}
PIN_TYPES = ["a", "a -> a -> b", "(a -> a) -> b", "list(a)", "pair(a, b -> c)", "((a))"]
PIN_ASSIGNMENTS = ["[; ^0]", "[; ^3]", "[(lam 0); ^0]", "[0, (lam 1), 2; ^1]", "[1, 1; ^0]"]
PIN_RENAMINGS = ["[; ^0]", "[3, 1; ^2]", "[0, 1; ^2]", "[0, 4; ^1]"]

PIN_FAULTS = {
    "type": ["", "a ->", "(a", "a(", "a()", "list(a,)", "a b", "->", "a $"],
    "nameless": [
        "", "x", "(lam", "(lam ))", "(0 1)", "(lam 0) 1", "-1", "(lam [x] 0)", "01",
        "(app 0)", "(foo 0)", "(lam 0 1)",
    ],
    "named": ["", "0", "(lam [x x)", "(lam [0] x)", "(lam x", "x y", "(lam [x] [y] x)"],
    "typed": [
        "", "0", "(#0 a)", "(#x : a)", "(#0 : )", "(lam 0)", "(op lam)", "(op[lam; a, a]",
        "(op[lam; a,] (#0 : a))", "(op[; a] (#0 : a))", "(#0 : a) x",
    ],
    "renaming": ["", "[", "[1; 2]", "[x; ^0]", "[1, ; ^0]", "[1 2; ^0]", "[; ^x]", "[; ^0", "[; ^0] 1"],
    "assignment": [
        "", "[(lam 0) ^0]", "[(app 0); ^0]", "[0, (foo 1); ^0]", "[x; ^0]", "[; ^0]]",
    ],
    "signature": [
        "signature s { op f : (0); op f : (1); }",
        "signature s { op f [s] : (|- s) -> s; op f [t] : -> t; }",
        "signature s { op f [s] : (|- s) -> s; op g : (0); }",
        "signature s { op g : (0); op f [s] : (|- s) -> s; }",
        "signature s { op f (0); }",
        "signature s { ops f : (0); }",
        "signature s { op f : (0) }",
        "signature s { op f : (0,); }",
        "signature s { op f : (x); }",
        "signature s { op f : (0); ",
        "signature { op f : (0); }",
        "sig s { }",
        "types { a; a; } signature s { op c [] : -> a; }",
        "types { a(x); }",
        "types { a }",
        "signature s { op f [s, s] : (|- s) -> s; }",
        "signature s { op f [s] : (|- s) -> b; }",
        "types { a; } signature s { op f [s] : (|- a(s)) -> s; }",
        "signature s { op f [s] : (|- s) s; }",
        "signature s { op f [s] : (s) -> s; }",
        "signature s { op f [s,] : -> s; }",
        "signature s { op f [s] -> s; }",
        "signature s { op f : (0); } %",
    ],
    "theory": [
        "",
        "signature s { op f : (0); op f : (1); }",
        "signature s { op f [s] : (|- s) -> s; }",
        "signature s { op f : (0); } signature t { op g : (0); }",
        "eq r [0] : (f ?0) = ?0;",
        "signature s { op f : (0); } rule r [0] : (f ?0) = ?0;",
        "signature s { op f : (0, 0); } eq r [0, 0] : (f ?0 ?0) = ?0;",
        "signature s { op f : (0); } eq r [0] : (f ?0) = ?1;",
        "signature s { op f : (0); } eq r [0] : (g ?0) = ?0;",
        "signature s { op f : (0); } eq r [(0] : (f ?0) = ?0;",
        "signature s { op f : (0); } eq r [0,] : (f ?0) = ?0;",
        "signature s { op f : (0); } eq r [0] : (f ?0) = ?0",
        "signature s { op f : (0); } eq r [0] (f ?0) = ?0;",
        "signature s { op f : (0); } eq r [0] : (f ?0) ?0;",
        "signature s { op f : (0); } eq r [0] : (f ?0) = { ?0 [?0 ^0] };",
        "signature s { op f : (0); } eq r [0] : (f ?x) = ?0;",
        "signature s { op f : (0); ope }",
    ],
}


def _pinned_parser_helps() -> list[str]:
    import argparse

    from debruijn.cli import build_parser

    helps, todo = [], [build_parser()]
    while todo:
        parser = todo.pop(0)
        helps.append(parser.format_help())
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                todo.extend(action.choices.values())
    return helps


def surface_behaviour_digest() -> str:
    """SHA-256 over what the surface layer reads and prints: parse results
    and printed forms of well-formed input, the diagnostics of single-fault
    input, and the help text of every CLI (sub)command."""
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode() + b"\n")

    for text in PIN_TYPES:
        ty = parse_type(text)
        put(text, repr(ty), str(ty))
    for mode, texts in PIN_TERMS.items():
        for text in texts:
            t = parse_term(text, mode)
            put(mode, text, repr(t), print_term(t))
    for text in PIN_TERMS["nameless"][:5]:
        put("sig", text, print_term(parse_term(text, sig=SIG)))
    for text in PIN_ASSIGNMENTS:
        a = parse_assignment(text, SIG)
        put(text, repr(a), print_assignment(a))
    for text in PIN_RENAMINGS:
        put(text, repr(parse_renaming(text)))
    for text in PIN_SIG_FILES:
        f = parse_signature_file(text)
        put(text, repr(f.signatures), repr(f.schemas))
        for name, sig in f.signatures.items():
            put(print_signature(name, sig))
    for text in PIN_THEORY_FILES:
        put(text, repr(parse_theory_file(text)))
    readers = {
        "type": parse_type,
        "nameless": parse_term,
        "named": lambda text: parse_term(text, "named"),
        "typed": lambda text: parse_term(text, "typed"),
        "renaming": parse_renaming,
        "assignment": lambda text: parse_assignment(text, SIG),
        "signature": parse_signature_file,
        "theory": parse_theory_file,
    }
    for kind, texts in PIN_FAULTS.items():
        for text in texts:
            read = readers[kind] if kind != "nameless" else (lambda s: parse_term(s, sig=SIG))
            with pytest.raises(ParseError) as e:
                read(text)
            put(kind, text, [(d.severity, d.message, d.span, d.path) for d in e.value.diagnostics])
    with pytest.raises(ValueError) as e:
        parse_term("0", "lisp")
    put(str(e.value))
    for text in _pinned_parser_helps():
        put(text)
    return h.hexdigest()


def test_surface_behaviour_is_pinned(monkeypatch):
    # recorded before the surface layer was given one reader per construct
    # and one printer; the help texts are those of CPython 3.11's argparse
    monkeypatch.setenv("COLUMNS", "80")
    assert surface_behaviour_digest() == (
        "cf3722198044fe754d7fa7a7ada6f43e4461d6cbd3f70ac6cf53a3d431c3e41f"
    )


# --- the one-pass readers against the recursive ones --------------------


def _random_type_text(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice(["a", "b", "t'"])
    if r < 0.7:
        left = _random_type_text(rng, depth - 1)
        if "->" in left or rng.random() < 0.2:
            left = f"({left})"
        return f"{left} -> {_random_type_text(rng, depth - 1)}"
    if r < 0.85:
        return f"list({_random_type_text(rng, depth - 1)})"
    return f"pair({_random_type_text(rng, depth - 1)}, {_random_type_text(rng, depth - 1)})"


def _random_nameless_text(rng: random.Random, depth: int, meta: bool = False) -> str:
    r = rng.random()
    if depth == 0 or r < 0.3:
        return f"?{rng.randrange(3)}" if meta and r < 0.1 else str(rng.randrange(12))
    if meta and r < 0.4:
        body = _random_nameless_text(rng, depth - 1, meta)
        entries = [_random_nameless_text(rng, depth - 1, meta) for _ in range(rng.randrange(3))]
        return f"{{{body} [{', '.join(entries)}; ^{rng.randrange(3)}]}}"
    name = rng.choice(["lam", "app", "f", "c", "x'", "_g1"])
    args = [_random_nameless_text(rng, depth - 1, meta) for _ in range(rng.randrange(4))]
    return "(" + " ".join([name, *args]) + ")"


def _random_named_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "y", "x0", "a'"])
    parts = [rng.choice(["lam", "app", "f", "c"])]
    for _ in range(rng.randrange(4)):
        if rng.random() < 0.5:
            parts.append("[" + " ".join(rng.choice("xyz") for _ in range(rng.randrange(3))) + "]")
        parts.append(_random_named_text(rng, depth - 1))
    return "(" + " ".join(parts) + ")"


def _random_typed_text(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return f"(#{rng.randrange(5)} : {_random_type_text(rng, 2)})"
    head = "op[" + rng.choice(["lam", "app", "k"])
    if rng.random() < 0.8:
        head += "; " + ", ".join(_random_type_text(rng, 1) for _ in range(rng.randrange(3)))
    args = [_random_typed_text(rng, depth - 1) for _ in range(rng.randrange(3))]
    return "(" + " ".join([head + "]", *args]) + ")"


def _random_literal_text(rng: random.Random, entry) -> str:
    entries = [entry() for _ in range(rng.randrange(4))]
    return f"[{', '.join(entries)}; ^{rng.randrange(4)}]"


DIFF_TEXTS = {
    "type": lambda rng: _random_type_text(rng, 3),
    "nameless": lambda rng: _random_nameless_text(rng, 4),
    "meta": lambda rng: _random_nameless_text(rng, 4, meta=True),
    "named": lambda rng: _random_named_text(rng, 4),
    "typed": lambda rng: _random_typed_text(rng, 3),
    "renaming": lambda rng: _random_literal_text(rng, lambda: str(rng.randrange(6))),
    "assignment": lambda rng: _random_literal_text(rng, lambda: _random_nameless_text(rng, 2)),
}


def _read_meta(text: str):
    p = surface._Parser(text)
    t = surface._read_nameless(p, meta=True)
    p.done()
    return t


DIFF_READERS = {
    "type": parse_type,
    "nameless": parse_term,
    "meta": _read_meta,
    "named": lambda text: parse_term(text, "named"),
    "typed": lambda text: parse_term(text, "typed"),
    "renaming": parse_renaming,
    "assignment": parse_assignment,
}


_BAD_CHARS = "$%-|>'!é²\\"


def _respace(rng: random.Random, texts: list[str]) -> str:
    """``texts`` joined by random whitespace, none next to punctuation
    half the time: the tokens stay the same."""
    out = [texts[0]] if texts else []
    for left, right in zip(texts, texts[1:]):
        glued = not (left[-1].isalnum() or left[-1] in "_'") or not (
            right[0].isalnum() or right[0] in "_(")
        out.append(rng.choice(["", " "] if glued else [" ", "\n  ", "\t"]))
        out.append(right)
    return "".join(out)


def _mutants(rng: random.Random, text: str) -> list[str]:
    """Single faults of ``text``: a token deleted, duplicated or swapped
    with the next, or a bad character inserted."""
    toks = [tok.text for tok in ref_tokenize(text)[:-1]]
    out = []
    i = rng.randrange(len(toks))
    out.append(_respace(rng, toks[:i] + toks[i + 1:]))
    out.append(_respace(rng, toks[:i + 1] + toks[i:]))
    if len(toks) > 1:
        j = rng.randrange(len(toks) - 1)
        out.append(_respace(rng, toks[:j] + [toks[j + 1], toks[j]] + toks[j + 2:]))
    k = rng.randrange(len(text) + 1)
    out.append(text[:k] + rng.choice(_BAD_CHARS) + text[k:])
    return out


def _outcome(read, text: str):
    """The result of ``read(text)``, or what it raised: every field of
    every diagnostic of a ParseError, else the exception's type and text."""
    try:
        out = read(text)
    except ParseError as e:
        return "error", [(d.severity, d.message, d.span, d.path) for d in e.diagnostics]
    except Exception as e:
        return "raised", type(e).__name__, str(e)
    return "ok", repr(out)


@pytest.mark.parametrize("kind", list(DIFF_TEXTS))
def test_readers_agree_with_the_recursive_readers(kind):
    rng = random.Random(sorted(DIFF_TEXTS).index(kind))
    sig = SIG if kind in ("nameless", "assignment") else None
    read = DIFF_READERS[kind]
    faults = 0
    for _ in range(250):
        text = _respace(rng, [t.text for t in ref_tokenize(DIFF_TEXTS[kind](rng))[:-1]])
        for sample in [text, *_mutants(rng, text)]:
            for s in (None, sig) if sig else (None,):
                new = _outcome(lambda x: read(x, sig=s) if s else read(x), sample)
                old = _outcome(lambda x: ref_parse(x, kind, s), sample)
                assert new == old, sample
            faults += new[0] != "ok"
    assert faults > 500  # the mutants do reach the diagnostics


# --- deep terms ------------------------------------------------------------


def _deep_chains(depth: int):
    """``lam (app t 0)`` nested ``depth`` deep over the free leaf
    ``depth``: nameless, named (built directly, each ``lam`` binding
    ``a``; the leaf is ``x0``) and typed."""
    t, n = Var(depth), NVar("x0")
    a = base("a")
    typed = TVar(depth, a)
    for _ in range(depth):
        t = lam(app(t, Var(0)))
        n = NOp("lam", ((("a",), NOp("app", (((), n), ((), NVar("a"))))),))
        typed = TOp("lam", (a, a), (TOp("app", (a, a), (typed, TVar(0, a))),))
    return t, n, typed


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_repr(depth):
    """``repr`` of a term 100 000 binders deep, in time linear in the depth."""
    t = Var(depth)
    for _ in range(depth):
        t = lam(app(t, Var(0)))
    text = timed(1.0 + depth * 20e-6, lambda: repr(t))
    assert text == (
        "Op(name='lam', args=(Op(name='app', args=(" * depth + f"Var(index={depth})"
        + ", Var(index=0))),))" * depth
    )


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_terms_read_and_print(depth):
    """Every reader, ``print_term``, both JSON converters, ``print_json``
    and ``from_named`` take terms 100 000 binders deep, each call in time linear in the depth."""
    bound = 1.0 + depth * 50e-6
    t, n, typed = _deep_chains(depth)
    text = timed(bound, lambda: print_term(t))
    assert text == "(lam (app " * depth + str(depth) + " 0))" * depth
    js = timed(bound, lambda: term_to_json(t))
    for _ in range(depth):
        assert js["op"] == "lam"
        (body,) = js["args"]
        assert body["op"] == "app" and body["args"][1] == {"var": 0}
        js = body["args"][0]
    assert js == {"var": depth}
    json_text = timed(bound, lambda: print_json(t))
    assert json_text == (
        '{"op": "lam", "args": [{"op": "app", "args": [' * depth + f'{{"var": {depth}}}'
        + ', {"var": 0}]}]}' * depth
    )
    assert timed(bound, lambda: term_from_json(term_to_json(t))) == t
    assert timed(bound, lambda: parse_term(text, sig=SIG)) == t
    named = timed(bound, lambda: print_term(n))
    assert named == "(lam [a] (app " * depth + "x0" + " a))" * depth
    back = timed(bound, lambda: parse_term(named, "named"))
    assert timed(bound, lambda: print_term(back)) == named
    assert timed(bound, lambda: from_named(SIG, back)) == t
    assert timed(bound, lambda: from_named(SIG, n)) == t
    typed_text = timed(bound, lambda: print_term(typed))
    assert typed_text == (
        "(op[lam; a, a] (op[app; a, a] " * depth + f"(#{depth} : a)" + " (#0 : a)))" * depth
    )
    back = timed(4 * bound, lambda: parse_term(typed_text, "typed"))
    assert timed(bound, lambda: print_term(back)) == typed_text


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_assignment_read_and_print(depth):
    """``print_assignment`` and ``parse_assignment`` of an entry 100 000
    binders deep, each call in time linear in the depth."""
    bound = 1.0 + depth * 50e-6
    a = Assignment((_deep_chains(depth)[0], Var(3)), 2)
    text = timed(bound, lambda: print_assignment(a))
    assert text == "[" + "(lam (app " * depth + str(depth) + " 0))" * depth + ", 3; ^2]"
    assert timed(bound, lambda: parse_assignment(text, SIG)) == a


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_pickle_and_copy(depth):
    """``pickle`` round-trips nameless, named and typed terms 100 000
    binders deep, each call in time linear in the depth, and ``copy`` and
    ``deepcopy`` return the term itself; an interned variable comes back
    as the table's node."""
    bound = 1.0 + depth * 50e-6
    for t in _deep_chains(depth):
        data = timed(bound, lambda: pickle.dumps(t))
        back = timed(bound, lambda: pickle.loads(data))
        assert back == t and back is not t
        assert timed(bound, lambda: copy.deepcopy(t)) is t and copy.copy(t) is t
    back = pickle.loads(pickle.dumps(_deep_chains(depth)[0]))
    assert back.args[0].args[1] is Var(0)
