"""Parsers, printers, and their round-trip guarantees."""

from __future__ import annotations

import hashlib
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
    Var,
    alpha_eq,
    arrow,
    base,
    lambda_signature,
    parse_assignment,
    parse_renaming,
    parse_signature_file,
    parse_term,
    parse_theory_file,
    parse_type,
    print_assignment,
    print_signature,
    print_term,
    term_from_json,
    term_to_json,
    to_named,
)
from debruijn.gen import random_assignment, random_term

from helpers import app, lam

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
