"""Command-line driver: subcommands, formats, and exit codes."""

from __future__ import annotations

import json
import time

import pytest

from debruijn.cli import main
from debruijn.surface import MAX_TYPE_NESTING

from helpers import DEEP_LIST_BAD, DEEP_LIST_ERROR, DEEP_LIST_OK, DEEP_LIST_SIG

LAMBDA_SIG = """\
signature lambda {
  op lam : (1);
  op app : (0, 0);
}
"""

STLC_SIG = """\
types { a; }
signature stlc {
  op lam [s, t] : (s |- t) -> s -> t;
  op app [s, t] : (|- s -> t), (|- s) -> t;
}
"""

BETA_THEORY = LAMBDA_SIG + """\
eq beta [(1, 0)] : (app (lam ?0) ?1) = { ?0 [?1; ^0] };
"""


@pytest.fixture
def lam_sig(tmp_path):
    p = tmp_path / "lambda.sig"
    p.write_text(LAMBDA_SIG)
    return str(p)


@pytest.fixture
def stlc_sig(tmp_path):
    p = tmp_path / "stlc.sig"
    p.write_text(STLC_SIG)
    return str(p)


@pytest.fixture
def beta_file(tmp_path):
    p = tmp_path / "beta.theory"
    p.write_text(BETA_THEORY)
    return str(p)


def test_sig_check_ok(lam_sig, capsys):
    assert main(["sig", "check", lam_sig]) == 0
    assert "ok" in capsys.readouterr().out


def test_sig_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.sig"
    p.write_text("signature s { op f (0); }")
    assert main(["sig", "check", str(p)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("nesting", ["arrows", "parentheses"])
def test_sig_check_of_a_type_2000_levels_deep_exits_2(tmp_path, capsys, nesting):
    """The parser bounds type nesting, so the deep type is a parse error
    at the token past the bound, not an internal error."""
    premise = "a -> " * 2000 + "a" if nesting == "arrows" else "(" * 2000 + "a" + ")" * 2000
    p = tmp_path / "deep.sig"
    p.write_text(f"types {{ a; }}\nsignature s {{\n  op f [] : (|- {premise}) -> a;\n}}\n")
    assert main(["sig", "check", str(p)]) == 2
    column = 17 + MAX_TYPE_NESTING * (5 if nesting == "arrows" else 1)
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip().endswith(
        f"3:{column}: error: type nested more than {MAX_TYPE_NESTING} levels deep"
    )


def test_sig_check_missing_file(capsys):
    assert main(["sig", "check", "/nonexistent.sig"]) == 2


def test_term_subst(lam_sig, capsys):
    code = main([
        "term", "subst", "--sig", lam_sig,
        "--term", "(lam (app 1 0))", "--assign", "[(lam 0); ^0]",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(lam (app (lam 0) 0))"


def test_term_subst_json(lam_sig, capsys):
    code = main([
        "term", "subst", "--sig", lam_sig,
        "--term", json.dumps({"op": "lam", "args": [{"var": 0}]}),
        "--assign", "[; ^3]",
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"op": "lam", "args": [{"var": 0}]}


def test_term_rename(lam_sig, capsys):
    code = main([
        "term", "rename", "--sig", lam_sig,
        "--term", "(app 0 1)", "--renaming", "[; ^1]",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(app 1 2)"


def test_term_to_named(lam_sig, capsys):
    code = main(["term", "to-named", "--sig", lam_sig, "--term", "(lam (app 1 0))"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(lam [a] (app x0 a))"


def test_term_to_named_names_each_binder_of_a_group_apart(tmp_path, capsys):
    p = tmp_path / "mixed.sig"
    p.write_text("signature mixed {\n  op m : (2, 0, 1);\n}\n")
    code = main(["term", "to-named", "--sig", str(p), "--term", "(m 4 1 (m (m 3 3 3) 0 0))"])
    assert code == 0
    named = capsys.readouterr().out.strip()
    assert named == "(m [a b] x2 x1 [a] (m [c b] (m [d b] c x0 [b] a) a [a] a))"
    assert main(["term", "from-named", "--sig", str(p), "--term", named]) == 0
    assert capsys.readouterr().out.strip() == "(m 4 1 (m (m 3 3 3) 0 0))"


def test_term_from_named(lam_sig, capsys):
    code = main([
        "term", "from-named", "--sig", lam_sig, "--term", "(lam [a] (app x0 a))",
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(lam (app 1 0))"


@pytest.mark.parametrize("term, message", [
    ("(app x0 x1 x2)", "operation 'app' expects 2 arguments, got 3"),
    ("(app x0)", "operation 'app' expects 2 arguments, got 1"),
    ("(foo x0)", "unknown operation 'foo'"),
], ids=["too-many", "too-few", "unknown"])
def test_term_from_named_rejects_bad_operations(lam_sig, capsys, term, message):
    assert main(["term", "from-named", "--sig", lam_sig, "--term", term]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == message


def test_term_from_named_key_error_is_an_internal_error(lam_sig, capsys, monkeypatch):
    # from_named reports bad input as ValueError only, so a KeyError is a bug
    import debruijn.cli as cli

    def lookup_bug(sig, t):
        raise KeyError("x0")

    monkeypatch.setattr(cli, "from_named", lookup_bug)
    assert main(["term", "from-named", "--sig", lam_sig, "--term", "x0"]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'x0'\n"


def test_term_parse_error_exit_code(lam_sig, capsys):
    assert main(["term", "subst", "--sig", lam_sig, "--term", "(app 0)",
                 "--assign", "[; ^0]"]) == 2


def test_norm_builtin_beta(capsys):
    code = main(["norm", "--theory", "beta", "--term", "(app (lam 0) 3)",
                 "--fuel", "10"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_norm_theory_file(beta_file, capsys):
    code = main(["norm", "--theory", beta_file, "--term", "(app (lam 0) 3)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_norm_fuel_exhaustion(capsys):
    omega = "(app (lam (app 0 0)) (lam (app 0 0)))"
    code = main(["norm", "--theory", "beta", "--term", omega, "--fuel", "50"])
    assert code == 3


def test_norm_trace_prints_each_step(capsys):
    # the beta step five levels down creates the eta redex at the root
    term = "(lam (app (app 3 (lam (lam (app (lam 4) 2)))) 0))"
    code = main(["norm", "--theory", "betaeta", "--term", term, "--trace"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip() == "(app 2 (lam (lam 2)))"
    assert out.err.splitlines() == [
        "step 1 rule=beta at=[0, 0, 1, 0, 0]",
        "step 2 rule=eta at=[]",
    ]
    assert main(["norm", "--theory", "betaeta", "--term", term]) == 0
    assert capsys.readouterr().err == ""


def test_equiv_yes(capsys):
    code = main(["equiv", "--theory", "beta", "--left", "(app (lam 0) 3)",
                 "--right", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_equiv_no(capsys):
    code = main(["equiv", "--theory", "beta", "--left", "0", "--right", "1"])
    assert code == 1
    assert capsys.readouterr().out.strip() == "no"


def test_equiv_unknown(capsys):
    omega = "(app (lam (app 0 0)) (lam (app 0 0)))"
    code = main(["equiv", "--theory", "beta", "--left", omega, "--right", "0",
                 "--fuel", "50"])
    assert code == 3
    assert capsys.readouterr().out.strip() == "unknown"


@pytest.mark.parametrize("argv", [
    ["norm", "--term", "(app (lam 0) (lam 0))"],
    ["equiv", "--left", "(app (lam 0) (lam 0))", "--right", "(lam 0)"],
], ids=["norm", "equiv"])
def test_negative_fuel_exits_2(argv, capsys):
    assert main([*argv, "--theory", "beta", "--fuel", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--fuel must be at least 0, got -1" in out.err
    # zero fuel is valid: the redex is left, so neither command finishes,
    # and a normal form needs no fuel
    assert main([*argv, "--theory", "beta", "--fuel", "0"]) == 3
    assert main(["norm", "--theory", "beta", "--term", "(lam 0)", "--fuel", "0"]) == 0


def test_equiv_betaeta(capsys):
    code = main(["equiv", "--theory", "betaeta", "--left", "(lam (app 6 0))",
                 "--right", "5"])
    assert code == 0


def test_typecheck_ok(stlc_sig, capsys):
    code = main(["typecheck", "--sig", stlc_sig, "--term", "(op[lam; a, a] (#0 : a))"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "a -> a"


def test_typecheck_type_error(stlc_sig, capsys):
    code = main(["typecheck", "--sig", stlc_sig,
                 "--term", "(op[app; a, a] (#0 : a) (#0 : a))"])
    assert code == 1
    assert "type error" in capsys.readouterr().err


def test_typecheck_of_deeply_instantiated_types(tmp_path, capsys):
    """Types nested 380 deep by instantiation typecheck (exit 0) or fail
    with a type error (exit 1), not an internal error."""
    sig = tmp_path / "deep.sig"
    sig.write_text(DEEP_LIST_SIG)
    assert main(["typecheck", "--sig", str(sig), "--term", DEEP_LIST_OK]) == 0
    assert capsys.readouterr().out == "a\n"
    assert main(["typecheck", "--sig", str(sig), "--term", DEEP_LIST_BAD]) == 1
    assert capsys.readouterr().err == f"type error: {DEEP_LIST_ERROR}\n"


def test_typecheck_deep_chain(stlc_sig, capsys):
    """A 10 000-deep ``app (lam #0) ...`` chain typechecks."""
    n = 10_000
    text = "(op[app; a, a] (op[lam; a, a] (#0 : a)) " * n + "(#0 : a)" + ")" * n
    assert main(["typecheck", "--sig", stlc_sig, "--term", text]) == 0
    assert capsys.readouterr().out == "a\n"


def test_typecheck_deep_fault_prints_a_short_line(stlc_sig, capsys):
    """A fault at the leaf of a 10 000-deep chain names its depth and the
    last steps of its path, not all 10 000."""
    n = 10_000
    text = "(op[app; a, a] (op[lam; a, a] (#0 : a)) " * n + "(#0 : c)" + ")" * n
    assert main(["typecheck", "--sig", stlc_sig, "--term", text]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and len(out.err) < 200
    assert f"at depth {n}, path ending {[1] * 8}" in out.err


@pytest.mark.parametrize("argv, kind", [
    (["term", "subst", "--sig", "stlc", "--term", "0", "--assign", "[; ^0]"], "untyped"),
    (["fuzz", "--sig", "stlc"], "untyped"),
    (["typecheck", "--sig", "lambda", "--term", "(#0 : a)"], "typed"),
], ids=["subst-typed-file", "fuzz-typed-file", "typecheck-untyped-file"])
def test_signature_file_without_the_kind_asked_for_exits_2(lam_sig, stlc_sig, capsys, argv, kind):
    i = argv.index("--sig") + 1
    path = {"stlc": stlc_sig, "lambda": lam_sig}[argv[i]]
    assert main([*argv[:i], path, *argv[i + 1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{path}: no {kind} signature declared\n"


def test_fuzz_all_laws(lam_sig, capsys):
    code = main(["fuzz", "--sig", lam_sig, "--laws", "monad,binding,morphism",
                 "--cases", "50", "--seed", "42"])
    assert code == 0
    out = capsys.readouterr().out
    assert "LAW associativity PASS seed=42" in out
    assert "LAW binding:lam PASS seed=42" in out
    assert "LAW morphism:op:app PASS seed=42" in out


def test_fuzz_prints_the_shrunk_counterexample_of_a_broken_model(lam_sig, capsys, monkeypatch):
    # a term model whose substitution ignores the assignment
    monkeypatch.setattr("debruijn.model.subst", lambda t, a, sig: t)
    assert main(["fuzz", "--sig", lam_sig, "--laws", "monad", "--cases", "20", "--seed", "3"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "LAW associativity PASS seed=3",
        "LAW left-unitality FAIL seed=3 case=0 counterexample=(x=0 f=[; ^1] g=[; ^0] n=0)",
        "LAW right-unitality PASS seed=3",
    ]


def test_fuzz_unknown_law_group(lam_sig, capsys):
    assert main(["fuzz", "--sig", lam_sig, "--laws", "nonsense"]) == 2


def test_fuzz_deterministic(lam_sig, capsys):
    main(["fuzz", "--sig", lam_sig, "--cases", "30", "--seed", "5"])
    first = capsys.readouterr().out
    main(["fuzz", "--sig", lam_sig, "--cases", "30", "--seed", "5"])
    assert capsys.readouterr().out == first


def test_unexpected_exception_is_an_internal_error(lam_sig, capsys, monkeypatch):
    # a crash must not read as a verdict: exit 4, not EXIT_FAIL (1)
    import debruijn.cli as cli

    def boom(text):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "parse_signature_file", boom)
    code = main(["sig", "check", lam_sig])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_repeated_in_process_calls_give_the_same_output(lam_sig, capsys):
    # the parser is built once per process and reused by every call
    argv = ["term", "subst", "--sig", lam_sig, "--term", "(lam (app 1 0))",
            "--assign", "[(lam 0); ^0]"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out == "(lam (app (lam 0) 0))\n"


@pytest.mark.parametrize("argv", [
    ["--term", '{"var": "x"}'],
    ["--term", '{"var": true}'],
    ["--term", '{"var": 1.5}'],
    ["--term", '{"var": 0, "op": "lam"}'],
    ["--term", '{"op": "lam"}'],
    ["--term", '{"op": "lam", "args": [{"var": 0}], "note": 1}'],
    ["--term", '{"op": 3, "args": []}'],
    ["--term", '{"op": "lam", "args": {"var": 0}}'],
    ["--term", '{"op": "lam", "args": [[0]]}'],
    ["--term", "[0]"],
    ["--term", "0"],
    ["--term", "{"],
    ["--term", '{"op": "lam", "args": []}'],
    ["--term", '{"op": "pair", "args": [{"var": 0}, {"var": 1}]}'],
    ["fuzz", "--cases", "0"],
    ["fuzz", "--cases", "-3"],
], ids=[
    "var-str", "var-bool", "var-float", "var-extra-key", "op-no-args", "op-extra-key",
    "op-not-str", "args-not-list", "arg-not-object", "list", "number", "not-json",
    "wrong-arity", "unknown-op", "cases-zero", "cases-negative",
])
def test_malformed_request_exits_2_with_empty_stdout(lam_sig, capsys, argv):
    if argv[0] == "fuzz":
        argv = ["fuzz", "--sig", lam_sig, *argv[1:]]
    else:
        argv = ["term", "subst", "--sig", lam_sig, "--assign", "[; ^0]",
                "--format", "json", *argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err != ""


DEEP = 3_000  # past the recursion limit, which the json module's reader meets


def _deep_json(depth: int) -> str:
    return '{"op": "lam", "args": [' * depth + '{"var": 0}' + "]}" * depth


def test_deep_sexpr_requests_succeed(lam_sig, capsys):
    deep = "(lam " * DEEP + "0" + ")" * DEEP
    assert main(["term", "subst", "--sig", lam_sig, "--term", deep, "--assign", "[; ^0]"]) == 0
    assert capsys.readouterr().out.strip() == deep
    named = "(lam [a] " * DEEP + "a" + ")" * DEEP
    assert main(["term", "from-named", "--sig", lam_sig, "--term", named]) == 0
    assert capsys.readouterr().out.strip() == deep
    assert main(["norm", "--theory", "beta", "--term", deep]) == 0
    assert capsys.readouterr().out.strip() == deep


def test_deep_rule_sides(tmp_path, capsys):
    """A theory file whose left or right side is 100k levels deep reads,
    matches and rewrites."""
    n = 100_000
    deep = "(f " * n + "?0" + ")" * n
    header = "signature s {\n  op f : (0);\n  op c : ();\n}\n"
    left, right = tmp_path / "left.theory", tmp_path / "right.theory"
    left.write_text(header + f"eq r [0] : {deep} = ?0;\n")
    right.write_text(header + f"eq r [0] : (f ?0) = {deep};\n")
    start = time.perf_counter()
    assert main(["norm", "--theory", str(left), "--term", "(f (f (c)))", "--fuel", "1"]) == 0
    assert capsys.readouterr().out == "(f (f (c)))\n"
    assert main(["norm", "--theory", str(right), "--term", "(f (f (c)))", "--fuel", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == "(f " * (n + 1) + "(c)" + ")" * (n + 1) + "\n"
    assert out.err == "fuel exhausted\n"
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("argv", [
    ["--term", _deep_json(DEEP), "--assign", "[; ^0]"],
], ids=["input"])
def test_deep_json_terms_exit_2(lam_sig, capsys, argv):
    """A JSON term deeper than the json module's nesting limit, read, is a
    usage error that points to --format sexpr."""
    assert main(["term", "subst", "--sig", lam_sig, *argv, "--format", "json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "nesting limit" in out.err and "--format sexpr" in out.err
    assert "internal error" not in out.err


def test_deep_json_output_is_written(lam_sig, capsys):
    """A JSON term of any depth is written: the writer has no nesting
    limit.  The expected text is built as a string, since ``json.loads``
    could not read it back."""
    deep = "(lam " * DEEP + "0" + ")" * DEEP
    argv = ["term", "subst", "--sig", lam_sig, "--term", '{"var": 0}',
            "--assign", f"[{deep}; ^0]", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == _deep_json(DEEP) + "\n"
    assert out.err == ""
