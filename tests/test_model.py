"""Model contracts, law fuzzing, the named-term oracle, and conversions."""

from __future__ import annotations

import hashlib
import random

import pytest

from debruijn import (
    Assignment,
    BindingArity,
    DBAlgebra,
    NOp,
    NVar,
    Var,
    alpha_eq,
    beta_eta_theory,
    check_binding_conditions,
    check_monad_laws,
    check_morphism,
    check_theory,
    free_names,
    from_named,
    initial_fold,
    lambda_signature,
    make_signature,
    model_compose,
    model_lift_n,
    named_model,
    named_subst,
    nat_monad,
    print_term,
    subst,
    term_model,
    to_named,
)
from debruijn.equational import check_half_equation
from helpers import debruijn_to_named_direct
from debruijn.gen import random_assignment, random_term, shrink_law_sample

from helpers import app, lam

SIG = lambda_signature()
TM = term_model(SIG)
NM = named_model(SIG)


def gen_elem(rng):
    return random_term(SIG, rng, max_depth=5)


def gen_assign(rng):
    a = random_assignment(SIG, rng)
    return Assignment(a.prefix, a.tail_shift)


# --- term model ---------------------------------------------------------


def test_term_model_shape():
    assert TM.variables(3) == Var(3)
    assert TM.interpretations["lam"]([Var(0)]) == lam(Var(0))


def test_term_model_substitution_under_binder():
    # lam(Var 1)[Var 0 . id]: the lifted assignment sends 1 to Var 1
    got = TM.substitution(lam(Var(1)), Assignment((Var(0),), 0))
    assert got == lam(Var(1))


def test_term_model_laws():
    report = check_monad_laws(TM, gen_elem, gen_assign, cases=500, seed=0,
                              shrink=shrink_law_sample)
    assert report.ok, str(report)
    report = check_binding_conditions(TM, SIG, gen_elem, gen_assign, cases=500, seed=0)
    assert report.ok, str(report)


def test_nat_monad_laws():
    m = nat_monad()
    report = check_monad_laws(
        m,
        lambda rng: rng.randrange(8),
        lambda rng: Assignment(
            tuple(rng.randrange(20) for _ in range(rng.randint(0, 4))),
            rng.randint(0, 3),
        ),
        cases=500,
        seed=0,
    )
    assert report.ok, str(report)


def test_broken_model_reports_counterexample():
    broken = DBAlgebra(
        variables=Var,
        substitution=lambda t, a: t,  # ignores the assignment entirely
        interpretations=TM.interpretations,
    )
    report = check_monad_laws(broken, gen_elem, gen_assign, cases=200, seed=1)
    failed = {r.law for r in report.results if not r.ok}
    assert "left-unitality" in failed
    line = next(r.line() for r in report.results if not r.ok)
    assert line.startswith("LAW ") and "FAIL" in line and "seed=1" in line


def test_unlifted_lam_model_fails_binding():
    def bad_subst(t, a):
        # substitutes under lam without lifting
        sigma = Assignment(tuple(a.prefix), a.tail_shift)

        def go(node):
            if isinstance(node, Var):
                return subst(node, sigma, SIG)
            return type(node)(node.name, tuple(go(x) for x in node.args))

        return go(t)

    bad = DBAlgebra(
        variables=Var, substitution=bad_subst, interpretations=TM.interpretations
    )
    report = check_binding_conditions(bad, SIG, gen_elem, gen_assign, cases=300, seed=0)
    assert not report.ok


def test_report_line_format():
    report = check_monad_laws(TM, gen_elem, gen_assign, cases=10, seed=7)
    for line in report.lines():
        assert line.startswith("LAW ")
        assert " PASS " in line or " FAIL " in line
        assert "seed=7" in line


# --- model assignment algebra -------------------------------------------


def test_model_lift_matches_term_lift():
    from debruijn import lift

    rng = random.Random(3)
    for _ in range(100):
        a = random_assignment(SIG, rng)
        got = model_lift_n(TM, Assignment(a.prefix, a.tail_shift), 1)
        want = lift(a, SIG)
        assert Assignment(tuple(got.prefix), got.tail_shift) == want


def test_model_compose_matches_term_compose():
    from debruijn import compose

    rng = random.Random(4)
    for _ in range(100):
        a = random_assignment(SIG, rng)
        b = random_assignment(SIG, rng)
        got = model_compose(
            TM, Assignment(a.prefix, a.tail_shift), Assignment(b.prefix, b.tail_shift)
        )
        want = compose(a, b, SIG)
        assert Assignment(tuple(got.prefix), got.tail_shift) == want


# --- named terms --------------------------------------------------------


def a_(name):
    return NVar(name)


def nlam(binder, body):
    return NOp("lam", (((binder,), body),))


def napp(f, x):
    return NOp("app", (((), f), ((), x)))


def test_alpha_eq_basic():
    assert alpha_eq(nlam("x", a_("x")), nlam("y", a_("y")))
    assert not alpha_eq(nlam("x", a_("x")), nlam("y", a_("z")))
    assert alpha_eq(a_("x"), a_("x"))
    assert not alpha_eq(a_("x"), a_("y"))


def test_alpha_eq_shadowing():
    # λx.λx.x vs λx.λy.y agree; λx.λy.x differs
    assert alpha_eq(
        nlam("x", nlam("x", a_("x"))), nlam("x", nlam("y", a_("y")))
    )
    assert not alpha_eq(
        nlam("x", nlam("x", a_("x"))), nlam("x", nlam("y", a_("x")))
    )


def test_free_names():
    t = nlam("x", napp(a_("x"), a_("y")))
    assert free_names(t) == {"y"}


def test_named_subst_capture_avoidance():
    # (λx1. x0 x1)[x0 := x1] must rename the binder, not capture
    t = nlam("x1", napp(a_("x0"), a_("x1")))
    got = named_subst(t, {"x0": a_("x1")})
    assert alpha_eq(got, nlam("z", napp(a_("x1"), a_("z"))))
    assert not alpha_eq(got, nlam("z", napp(a_("z"), a_("z"))))


def test_named_model_variables():
    assert NM.variables(0) == a_("x0")


def test_named_model_laws():
    def gen_named(rng):
        return to_named(SIG, random_term(SIG, rng, max_depth=4))

    def gen_named_assign(rng):
        a = random_assignment(SIG, rng, max_depth=3)
        return Assignment(tuple(to_named(SIG, t) for t in a.prefix), a.tail_shift)

    report = check_monad_laws(NM, gen_named, gen_named_assign, cases=500, seed=0)
    assert report.ok, str(report)
    report = check_binding_conditions(
        NM, SIG, gen_named, gen_named_assign, cases=300, seed=0
    )
    assert report.ok, str(report)


# --- folds and conversions ----------------------------------------------


def test_fold_into_term_model_is_identity():
    rng = random.Random(8)
    for _ in range(500):
        t = random_term(SIG, rng)
        assert initial_fold(SIG, TM, t) == t


def test_to_named_examples():
    got = to_named(SIG, lam(app(Var(1), Var(0))))
    assert alpha_eq(got, nlam("b", napp(a_("x0"), a_("b"))))

    got = to_named(SIG, lam(lam(app(Var(1), Var(0)))))
    assert alpha_eq(got, nlam("p", nlam("q", napp(a_("p"), a_("q")))))


def test_from_named():
    nt = nlam("a", nlam("b", napp(a_("a"), a_("b"))))
    assert from_named(SIG, nt) == lam(lam(app(Var(1), Var(0))))


def test_from_named_rejects_foreign_free_names():
    with pytest.raises(ValueError):
        from_named(SIG, a_("hello"))


def test_from_named_rejects_arity_mismatch_and_unknown_operations():
    x0 = a_("x0")
    with pytest.raises(ValueError, match=r"^operation 'app' expects 2 arguments, got 3$"):
        from_named(SIG, NOp("app", (((), x0), ((), x0), ((), x0))))
    with pytest.raises(ValueError, match=r"^operation 'app' expects 2 arguments, got 1$"):
        from_named(SIG, NOp("app", (((), x0),)))
    with pytest.raises(ValueError, match=r"^unknown operation 'foo'$"):
        from_named(SIG, NOp("foo", (((), x0),)))


def test_round_trips():
    rng = random.Random(9)
    for _ in range(500):
        t = random_term(SIG, rng)
        nt = to_named(SIG, t)
        assert from_named(SIG, nt) == t
        assert alpha_eq(to_named(SIG, from_named(SIG, nt)), nt)


def test_fold_commutes_with_subst():
    rng = random.Random(10)
    for _ in range(300):
        t = random_term(SIG, rng, max_depth=4)
        a = random_assignment(SIG, rng, max_depth=3)
        lhs = to_named(SIG, subst(t, a, SIG))
        rhs = NM.substitution(
            to_named(SIG, t),
            Assignment(tuple(to_named(SIG, u) for u in a.prefix), a.tail_shift),
        )
        assert alpha_eq(lhs, rhs)


def test_direct_converter_agrees_with_fold():
    rng = random.Random(12)
    for _ in range(500):
        t = random_term(SIG, rng)
        assert alpha_eq(to_named(SIG, t), debruijn_to_named_direct(SIG, t))


def test_direct_converter_deep_binders_do_not_capture_free_variables():
    # binder names run a..z, a1..z1, ...; the binder at depth 49 would be
    # x1, the name of free variable 1, unless supply names are skipped
    depth = 64
    body = app(app(Var(depth), Var(depth + 1)), app(Var(depth - 50), Var(depth + 3)))
    t = body
    for _ in range(depth):
        t = lam(t)
    direct = debruijn_to_named_direct(SIG, t)
    assert alpha_eq(direct, to_named(SIG, t))
    assert from_named(SIG, direct) == t


def test_morphism_check_accepts_fold():
    report = check_morphism(
        lambda t: to_named(SIG, t), TM, NM, SIG, gen_elem, gen_assign,
        cases=300, seed=0,
    )
    assert report.ok, str(report)


def test_morphism_check_rejects_constant_map():
    report = check_morphism(
        lambda t: NVar("x0"), TM, NM, SIG, gen_elem, gen_assign, cases=100, seed=0
    )
    assert not report.ok


# --- pinned law reports -------------------------------------------------


def law_report_digest() -> str:
    """SHA-256 over the LAW lines of every law checker, on models that pass
    and on models that fail some laws (so case indices, counterexamples and
    shrunk samples are covered), over three signatures."""
    fo_sig = make_signature({"f": (0, 0), "c": ()})
    mixed_sig = make_signature({"m": (2, 0, 1)})
    h = hashlib.sha256()

    def add(report):
        for line in report.lines():
            h.update(line.encode() + b"\n")

    for k, sig in enumerate((SIG, fo_sig, mixed_sig)):
        seed = 20 + k
        tm, nm = term_model(sig), named_model(sig)
        ignoring = DBAlgebra(
            variables=Var, substitution=lambda t, a: t, interpretations=tm.interpretations
        )
        constant = DBAlgebra(
            variables=Var,
            substitution=tm.substitution,
            interpretations={name: lambda args: Var(0) for name in sig.ops},
        )

        def gen_t(rng, sig=sig):
            return random_term(sig, rng, max_depth=4)

        def gen_a(rng, sig=sig):
            return random_assignment(sig, rng, max_depth=3)

        def gen_n(rng, sig=sig):
            return to_named(sig, gen_t(rng))

        def gen_na(rng, sig=sig):
            a = gen_a(rng)
            return Assignment(tuple(to_named(sig, t) for t in a.prefix), a.tail_shift, nm.variables)

        def show(s, sig=sig):
            x, f, g, n = s
            return f"{print_term(x)} {f!r} {g!r} {n}"

        def shifted(t, sig=sig):
            return to_named(sig, subst(t, Assignment((), 1), sig))

        for m in (tm, ignoring):
            add(check_monad_laws(m, gen_t, gen_a, cases=80, seed=seed, shrink=shrink_law_sample))
        add(check_monad_laws(ignoring, gen_t, gen_a, cases=80, seed=seed, show=show))
        add(check_monad_laws(nm, gen_n, gen_na, cases=40, seed=seed))
        for m in (tm, ignoring, constant):
            add(check_binding_conditions(m, sig, gen_t, gen_a, cases=80, seed=seed))
        add(check_binding_conditions(nm, sig, gen_n, gen_na, cases=40, seed=seed))
        for fn, target in (
            (lambda t, sig=sig: to_named(sig, t), nm),
            (lambda t: NVar("x0"), nm),
            (shifted, nm),
            (lambda t: t, constant),
        ):
            add(check_morphism(fn, tm, target, sig, gen_t, gen_a, cases=60, seed=seed))
    theory = beta_eta_theory()
    add(check_theory(theory, cases=60, seed=3))
    # beta's right side under a wrong arity breaks its binding condition
    beta = theory.rules[0]
    add(check_half_equation(SIG, BindingArity((0, 0)), beta.right, cases=60, seed=3))
    return h.hexdigest()


def test_law_reports_are_pinned():
    # recorded before the law checkers shared one sample stream: any change
    # of a verdict, case index or counterexample changes the digest
    assert law_report_digest() == (
        "ebbc2a01bc30428bc41cae22e318d6ca74e3c2f4304f53ce9fb25abaeb804106"
    )
