"""Equational theories: metaterm evaluation, rewriting, normalization,
and three-valued equivalence."""

from __future__ import annotations

import math
import operator
import random
import time
from collections import Counter

import pytest

from debruijn import (
    Assignment,
    BindingArity,
    EquationalTheory,
    ExplicitSubst,
    MetaVar,
    NormalizeResult,
    Op,
    Renaming,
    Rule,
    Var,
    alpha_eq,
    beta_eta_theory,
    beta_theory,
    check_theory,
    compile_metaterm,
    compile_pattern,
    equiv,
    eval_metaterm,
    lambda_signature,
    make_signature,
    match_pattern,
    named_model,
    nat_monad,
    normalize,
    parse_theory_file,
    rename,
    subst,
    support,
    term_model,
    to_named,
    validate_theory,
    wellformed,
)
from debruijn import equational
from debruijn.equational import check_half_equation
from debruijn.gen import random_assignment, random_term

from helpers import (
    CHURCH_PLUS,
    OMEGA,
    app,
    church,
    lam,
    random_rule_side,
    ref_eval_metaterm,
    ref_match_pattern,
    ref_moved,
    ref_reach,
    ref_unshift,
    ref_validate_theory,
    rewrite_step,
)

SIG = lambda_signature()
TM = term_model(SIG)
SIGS = (SIG, make_signature({"f": (0, 0), "c": ()}), make_signature({"m": (2, 0, 1)}))
BETA = beta_theory()
BETAETA = beta_eta_theory()

L_BETA = BETA.rules[0].left
R_BETA = BETA.rules[0].right


def bindings(left, got):
    """A compiled match's list as the dict of the metavariables ``left``
    binds, the form of ``ref_match_pattern``'s result."""
    return None if got is None else {i: got[i] for i, r in enumerate(left.gather) if r != -1}


# --- metaterm evaluation ------------------------------------------------


def test_eval_left_beta():
    got = eval_metaterm(TM, [Var(0), Var(1)], compile_metaterm(L_BETA))
    assert got == app(lam(Var(0)), Var(1))


def test_eval_right_beta():
    got = eval_metaterm(TM, [Var(0), Var(1)], compile_metaterm(R_BETA))
    assert got == Var(1)


def test_eval_metavar():
    t = lam(Var(0))
    assert eval_metaterm(TM, [t], compile_metaterm(MetaVar(0))) == t


def _outcome(fn, *args):
    """(True, the result) of a call, or (False, the type it raised)."""
    try:
        return True, fn(*args)
    except (TypeError, ValueError, IndexError, KeyError, AttributeError) as e:
        return False, type(e)


def test_eval_metaterm_matches_reference():
    """The explicit-stack evaluator against the recursion it replaced, in
    the term model, the named model (up to alpha) and the naturals, on
    metaterms with nested explicit substitutions, shifts, wrong argument
    counts and nodes that are not metaterms: the same result, or the same
    exception."""
    rng = random.Random(83)
    outcomes = {True: 0, False: 0}
    for sig in SIGS:
        models = (
            (term_model(sig), lambda: random_term(sig, rng, max_depth=3), operator.eq, True),
            (named_model(sig), lambda: to_named(sig, random_term(sig, rng, max_depth=3)),
             alpha_eq, True),
            (nat_monad(), lambda: rng.randrange(6), operator.eq, False),
        )
        for model, draw, same, ops in models:
            for _ in range(150):
                mt = random_rule_side(sig, rng, 3, ops=ops)
                env = [draw() for _ in range(3)]
                ok, got = _outcome(eval_metaterm, model, env, compile_metaterm(mt))
                ref_ok, want = _outcome(ref_eval_metaterm, model, env, mt)
                assert ok == ref_ok
                assert same(got, want) if ok else got is want
                outcomes[ok] += 1
    assert outcomes[True] > 800 and outcomes[False] > 50


# --- validation ---------------------------------------------------------


def test_builtin_theories_validate():
    assert validate_theory(BETA) == []
    assert validate_theory(BETAETA) == []


def test_nonlinear_pattern_rejected():
    rule = Rule(
        "dup",
        BindingArity((0,)),
        Op("app", (MetaVar(0), MetaVar(0))),
        MetaVar(0),
    )
    errs = validate_theory(EquationalTheory(SIG, (rule,)))
    assert any("twice" in e for e in errs)


def test_general_explicit_subst_pattern_rejected():
    rule = Rule(
        "bad",
        BindingArity((0, 0)),
        ExplicitSubst(MetaVar(0), Assignment((MetaVar(1),), 0)),
        MetaVar(0),
    )
    errs = validate_theory(EquationalTheory(SIG, (rule,)))
    assert any("shift" in e for e in errs)


def random_metaterm(rng: random.Random, depth: int):
    """A metaterm that is often malformed or not a pattern: metavariables
    and indices out of range, unknown operations, wrong argument counts,
    repeated metavariables, explicit substitutions of every shape and
    nodes that are not metaterms."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        leaf = rng.randrange(10)
        if leaf < 4:
            return MetaVar(rng.randrange(-1, 4))
        if leaf < 9:
            return Var(rng.randrange(-1, 3))
        return "junk"
    if roll < 0.8:
        name = rng.choice(("lam", "app", "app", "nope"))
        return Op(name, tuple(random_metaterm(rng, depth - 1) for _ in range(rng.randrange(4))))
    prefix = [random_metaterm(rng, depth - 1) for _ in range(rng.choice((0, 0, 1, 2)))]
    return ExplicitSubst(random_metaterm(rng, depth - 1), Assignment(prefix, rng.randrange(3)))


def test_validate_theory_matches_reference():
    """One walk per side gives the two recursions' diagnostics, in order."""
    rng = random.Random(17)
    kinds = set()
    for _ in range(3000):
        rules = tuple(
            Rule(
                rng.choice(("r", "s", "t")),
                BindingArity((0,) * rng.randrange(4)),
                random_metaterm(rng, 4),
                random_metaterm(rng, 3),
            )
            for _ in range(rng.randrange(1, 3))
        )
        theory = EquationalTheory(SIG, rules)
        errs = validate_theory(theory)
        assert errs == ref_validate_theory(theory), rules
        kinds.update(e.split(": ", 1)[-1].split(" ")[0] for e in errs)
    assert {"metavariable", "negative", "unknown", "operation", "not", "explicit", "bad"} <= kinds


def test_identity_explicit_subst_is_a_shift_pattern():
    # [0; ^1] trims to the identity [; ^0], the shift by zero, so it is a
    # valid pattern that matches any term and binds it unchanged
    theory = parse_theory_file(
        "signature lambda { op lam : (1); op app : (0, 0); }\n"
        "eq idsub [0] : (lam {?0 [0; ^1]}) = (lam ?0);\n"
    )
    left = theory.rules[0].left
    assert left == lam(ExplicitSubst(MetaVar(0), Assignment((), 0)))
    assert validate_theory(theory) == []
    t = app(Var(0), Var(3))
    assert match_pattern(compile_pattern(left, 1), lam(t), SIG) == [t]


def test_shift_pattern_matches_reference():
    # ?0[^k] binds t renamed by -k, or fails on a free index below k; half
    # the subterms have their support memoized, so the kernel skips closed
    # ones and must still see every free index
    rng = random.Random(41)
    matched = failed = 0
    for sig in SIGS:
        for _ in range(300):
            t = random_term(sig, rng, max_depth=6, max_index=6)
            stack = [t]
            while stack:
                node = stack.pop()
                if isinstance(node, Op):
                    if rng.random() < 0.5:
                        support(node, sig)
                    stack.extend(node.args)
            for k in range(4):
                pattern = ExplicitSubst(MetaVar(0), Assignment((), k))
                want = ref_unshift(t, k, sig)
                got = match_pattern(compile_pattern(pattern, 1), t, sig)
                assert got == (None if want is None else [want])
                matched += want is not None
                failed += want is None
    assert matched > 300 and failed > 300


def test_match_pattern_matches_reference():
    """The explicit-stack matcher against the recursion it replaced, None
    included, on random patterns (shift patterns, variables, wrong
    argument counts, explicit substitutions, repeated metavariables, nodes
    that are not metaterms) against random terms and instances of the
    pattern itself."""
    rng = random.Random(89)
    hits = misses = 0
    for sig in SIGS:
        tm = term_model(sig)
        for _ in range(400):
            pat = random_rule_side(sig, rng, 3)
            subjects = [random_term(sig, rng, max_depth=4)]
            env = [random_term(sig, rng, max_depth=3) for _ in range(3)]
            ok, instance = _outcome(ref_eval_metaterm, tm, env, pat)
            if ok and not wellformed(sig, instance):
                subjects.append(instance)
            left = compile_pattern(pat, 3)
            for t in subjects:
                got = match_pattern(left, t, sig)
                assert bindings(left, got) == ref_match_pattern(pat, t, sig)
                hits += got is not None
                misses += got is None
    assert hits > 300 and misses > 300


def test_compiled_sides_match_and_evaluate_as_the_metaterms_do():
    """A compiled pattern's match lists, for each of the rule's
    metavariables, the binding the reference's dict holds, or Var(0); a
    compiled metaterm evaluates to what the reference does, or raises the
    same."""
    rng = random.Random(97)
    hits = 0
    for sig in SIGS:
        tm = term_model(sig)
        for _ in range(300):
            side = random_rule_side(sig, rng, 3)
            env = [random_term(sig, rng, max_depth=3) for _ in range(3)]
            ok, t = _outcome(ref_eval_metaterm, tm, env, side)
            assert _outcome(eval_metaterm, tm, env, compile_metaterm(side)) == (ok, t)
            for subject in (t, random_term(sig, rng, max_depth=4)) if ok else (env[0],):
                want = ref_match_pattern(side, subject, sig)
                got = match_pattern(compile_pattern(side, 3), subject, sig)
                assert got == (None if want is None else [want.get(i, Var(0)) for i in range(3)])
                hits += got is not None
    assert hits > 200


@pytest.mark.parametrize("sig", SIGS, ids=["lambda", "FO", "MIXED"])
def test_compiled_sides_carry_head_reach_and_moved(sig):
    """What normalize reads off the programs against the recursions they
    replaced: a left side's head, and its reach, exact when its program
    holds no bad step and at most the recursion's otherwise; and a right
    side's moved metavariables."""
    rng = random.Random(101)
    seen = Counter()
    for _ in range(600):
        side = random_rule_side(sig, rng, 3)
        left, right = compile_pattern(side, 3), compile_metaterm(side)
        assert left.head == (side.name if type(side) is Op else None)
        bad = bool(left.steps) and left.steps[-1][0] == "bad"
        if bad:
            assert left.reach <= ref_reach(side)
        else:
            assert left.reach == ref_reach(side)
        assert right.moved == ref_moved(side)
        seen["bad" if bad else "inf" if left.reach == math.inf else "finite"] += 1
        seen["head"] += left.head is not None
        seen["moved"] += bool(right.moved)
    assert min(seen.values()) > 40, seen


def test_negative_binder_count_of_a_rule_is_reported():
    rule = Rule("r", BindingArity((-1,)), lam(MetaVar(0)), MetaVar(0))
    theory = EquationalTheory(SIG, (rule,))
    assert validate_theory(theory) == ["rule 'r' has a negative binder count"]
    assert ref_validate_theory(theory) == validate_theory(theory)


@pytest.mark.parametrize("assign", ["not an assignment", (MetaVar(1),)], ids=["str", "tuple"])
def test_explicit_substitution_without_an_assignment_is_not_a_metaterm(assign):
    junk = ExplicitSubst(MetaVar(0), assign)
    rule = Rule("r", BindingArity((0, 0)), lam(junk), app(junk, MetaVar(1)))
    theory = EquationalTheory(SIG, (rule,))
    assert validate_theory(theory) == [
        f"rule 'r' left: not a metaterm: {junk!r}",
        f"rule 'r' right: not a metaterm: {junk!r}",
        "rule 'r' left: explicit substitution in a pattern must be a shift of a metavariable",
    ]
    assert ref_validate_theory(theory) == validate_theory(theory)
    assert compile_metaterm(junk).steps == (("bad", junk, None),)
    with pytest.raises(TypeError):
        eval_metaterm(TM, [Var(0), Var(1)], compile_metaterm(rule.right))
    assert match_pattern(compile_pattern(rule.left, 2), lam(Var(0)), SIG) is None


def test_meta_signature():
    msig = BETA.meta_signature()
    assert msig.ops["beta"] == BindingArity((1, 0))


# --- half-equation checks -----------------------------------------------


def test_beta_half_equations_pass():
    for side in (L_BETA, R_BETA):
        report = check_half_equation(SIG, BindingArity((1, 0)), side, cases=200)
        assert report.ok, str(report)


def test_wrong_arity_half_equation_fails():
    # declaring the beta right side with arity (0,0) skips the lifting
    report = check_half_equation(SIG, BindingArity((0, 0)), R_BETA, cases=300)
    assert not report.ok


def test_check_theory_builtin():
    report = check_theory(BETAETA, cases=150)
    assert report.ok, str(report)


# --- rewriting ----------------------------------------------------------


def test_rewrite_beta_redex():
    assert rewrite_step(BETA, app(lam(Var(0)), Var(3))) == [Var(3)]


def test_rewrite_no_redex():
    assert rewrite_step(BETA, Var(0)) == []


def test_rewrite_self_application():
    got = rewrite_step(BETA, app(lam(app(Var(0), Var(0))), Var(3)))
    assert got == [app(Var(3), Var(3))]


def test_rewrite_order_is_leftmost_outermost():
    redex = app(lam(Var(0)), Var(1))
    t = app(redex, redex)
    results = rewrite_step(BETA, t)
    # outer positions first, then left argument, then right argument
    assert results[0] == app(Var(1), redex)
    assert results[1] == app(redex, Var(1))


def test_normalize_beta():
    r = normalize(BETA, app(lam(Var(0)), Var(3)), 10)
    assert not r.exhausted and r.term == Var(3)


def test_normalize_church_addition():
    two_plus_two = app(app(CHURCH_PLUS, church(2)), church(2))
    r = normalize(BETA, two_plus_two, 10_000)
    assert not r.exhausted
    assert r.term == church(4)


def test_normalize_omega_exhausts():
    r = normalize(BETA, OMEGA, 50)
    assert r.exhausted


def test_normalize_deterministic():
    t = app(app(CHURCH_PLUS, church(1)), church(2))
    a = normalize(BETA, t, 1000)
    b = normalize(BETA, t, 1000)
    assert a == b


DEEP = 100_000
F_SIG = make_signature({"f": (0,), "c": ()})


def f_chain(n: int, leaf):
    for _ in range(n):
        leaf = Op("f", (leaf,))
    return leaf


def test_rule_sides_of_any_depth():
    """A left side and a right side 100k levels deep validate, match,
    evaluate and rewrite, with no recursion on the way."""
    c = Op("c", ())
    start = time.perf_counter()
    deep = f_chain(DEEP, MetaVar(0))
    left, right = compile_pattern(deep, 1), compile_metaterm(deep)
    assert (left.head, left.reach, right.moved) == ("f", DEEP, ())
    assert match_pattern(left, f_chain(DEEP + 1, c), F_SIG) == [f_chain(1, c)]
    assert match_pattern(left, f_chain(DEEP - 1, c), F_SIG) is None
    assert eval_metaterm(term_model(F_SIG), [c], right) == f_chain(DEEP, c)
    left = EquationalTheory(F_SIG, (Rule("r", BindingArity((0,)), deep, MetaVar(0)),))
    right = EquationalTheory(F_SIG, (Rule("r", BindingArity((0,)), f_chain(1, MetaVar(0)), deep),))
    assert validate_theory(left) == validate_theory(right) == []
    assert normalize(left, f_chain(2, c), 1) == NormalizeResult(f_chain(2, c), False, 0)
    assert normalize(left, f_chain(DEEP + 1, c), 1) == NormalizeResult(f_chain(1, c), False, 1)
    assert normalize(right, f_chain(2, c), 1) == NormalizeResult(f_chain(DEEP + 1, c), True, 1)
    assert time.perf_counter() - start < 30


def subst_chain(n: int, leaf):
    """``f(0)[leaf; ^0]`` with each leaf the next such substitution, n
    deep: a metaterm that denotes ``f^n(leaf)``."""
    for _ in range(n):
        leaf = ExplicitSubst(Op("f", (Var(0),)), Assignment((leaf,), 0))
    return leaf


def test_right_sides_nested_in_explicit_substitutions_of_any_depth():
    """A right side 100k explicit substitutions deep validates, evaluates
    and rewrites, with no recursion on the way."""
    c = Op("c", ())
    start = time.perf_counter()
    deep = subst_chain(DEEP, MetaVar(0))
    right = compile_metaterm(deep)
    assert right.moved == (0,)
    assert eval_metaterm(term_model(F_SIG), [c], right) == f_chain(DEEP, c)
    theory = EquationalTheory(F_SIG, (Rule("r", BindingArity((0,)), f_chain(1, MetaVar(0)), deep),))
    assert validate_theory(theory) == []
    assert normalize(theory, f_chain(2, c), 1) == NormalizeResult(f_chain(DEEP + 1, c), True, 1)
    assert time.perf_counter() - start < 30


def test_each_rule_side_is_compiled_once(monkeypatch):
    """normalize compiles each rule side once per call, not once per match
    or contraction; check_half_equation compiles its side once per check,
    not once per sample."""
    calls = Counter()
    for name in ("compile_pattern", "compile_metaterm"):
        def counted(*args, _compile=getattr(equational, name), _name=name):
            calls[_name] += 1
            return _compile(*args)

        monkeypatch.setattr(equational, name, counted)
    r = normalize(BETAETA, app(app(CHURCH_PLUS, church(2)), church(2)), 100)
    assert r.steps > 5 and r.term == church(4)
    assert calls == {"compile_pattern": 2, "compile_metaterm": 2}
    calls.clear()
    assert check_half_equation(SIG, BindingArity((1, 0)), R_BETA, cases=50).ok
    assert calls == {"compile_metaterm": 1}


# --- equivalence --------------------------------------------------------


def test_equiv_yes():
    assert equiv(BETA, app(lam(Var(0)), Var(3)), Var(3)) == "yes"


def test_equiv_no():
    assert equiv(BETA, Var(0), Var(1)) == "no"


def test_equiv_unknown():
    assert equiv(BETA, OMEGA, Var(0), 50) == "unknown"


def test_eta_identification():
    t = Var(5)
    expansion = lam(app(rename(t, Renaming((), 1), SIG), Var(0)))
    assert equiv(BETAETA, expansion, t) == "yes"
    # plain beta does not identify them
    assert equiv(BETA, expansion, t) == "no"


def test_beta_inside_betaeta():
    assert rewrite_step(BETAETA, app(lam(Var(0)), Var(3)))[0] == Var(3)


def test_eta_requires_no_capture():
    # lam(app(Var 0, Var 0)) is NOT an eta-redex: the inner Var 0 in
    # function position refers to the binder
    assert rewrite_step(BETAETA, lam(app(Var(0), Var(0)))) == []


def test_congruence_with_fuel():
    a = app(lam(Var(0)), Var(2))
    b = Var(2)
    assert equiv(BETA, lam(a), lam(b), 100) == "yes"
    assert equiv(BETA, app(a, a), app(b, b), 100) == "yes"


def test_one_step_terms_are_equivalent():
    rng = random.Random(17)
    for _ in range(100):
        t = random_term(SIG, rng, max_depth=5)
        for u in rewrite_step(BETA, t)[:3]:
            assert equiv(BETA, t, u, 500) == "yes"


def test_rewrite_stable_under_substitution():
    rng = random.Random(21)
    checked = 0
    while checked < 100:
        t = random_term(SIG, rng, max_depth=5)
        steps = rewrite_step(BETA, t)
        if not steps:
            continue
        sigma = random_assignment(SIG, rng, max_depth=3)
        t_s = subst(t, sigma, SIG)
        u_s = subst(steps[0], sigma, SIG)
        assert u_s in rewrite_step(BETA, t_s)
        checked += 1
