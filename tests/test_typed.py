"""Simply-typed extension: typechecking, per-type lifting/substitution,
typed laws, the degenerate single-type reduction, and the values
signature built from application binary trees."""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import FrozenInstanceError
from functools import partial

import pytest

from debruijn import (
    BTLeaf,
    BTNode,
    TOp,
    TVar,
    TypecheckError,
    TypedArity,
    TypeExpr,
    TypedAssignment,
    Var,
    alpha_eq,
    arrow,
    base,
    bt_conclusion,
    bt_context,
    bt_enumerate,
    degenerate_schema,
    instantiate_schema,
    from_degenerate,
    lambda_signature,
    parse_signature_file,
    parse_term,
    parse_type,
    stlc_schema,
    subst,
    t_initial_fold,
    tcompose,
    tlift_gamma,
    to_degenerate,
    tsubst,
    typecheck,
    typed_named_model,
    typed_term_model,
    typed_to_named,
    values_arity,
)
from debruijn.gen import (
    ground_types,
    random_assignment,
    random_term,
    random_typed_assignment,
    random_typed_term,
)
from debruijn.typed import op_arity, typed_assignment_at

from helpers import (
    DEEP_LIST_BAD,
    DEEP_LIST_ERROR,
    DEEP_LIST_OK,
    DEEP_LIST_SIG,
    DataTOp,
    DataTVar,
    app,
    as_dataclasses,
    lam,
    ref_typecheck,
    same_term,
    timed,
)

SCH = stlc_schema({"a"})
SCH2 = stlc_schema({"a", "b"})
A, B = base("a"), base("b")


def tlam(s, t, body):
    return TOp("lam", (s, t), (body,))


def tapp(s, t, fn, arg):
    return TOp("app", (s, t), (fn, arg))


# --- nodes ----------------------------------------------------------------


def test_typed_nodes_match_the_frozen_dataclasses():
    """``==``, ``hash``, ``repr``, pickling, keyword construction, frozen
    fields and ``__match_args__`` of the typed nodes are those of the frozen
    dataclasses they replaced."""
    rng = random.Random(61)
    types = ground_types(SCH2.grammar)
    pool = [random_typed_term(SCH2, rng, rng.choice(types), max_depth=d) for d in (2, 5) * 60]
    pool += [pickle.loads(pickle.dumps(t)) for t in pool[::4]]  # equal, unshared
    for t in pool:
        d = as_dataclasses(t)
        assert repr(t) == repr(d)
        assert hash(t) == hash(d)
        assert pickle.loads(pickle.dumps(t)) == t
    for _ in range(2000):
        s, t = rng.choice(pool), rng.choice(pool)
        assert (s == t) == (as_dataclasses(s) == as_dataclasses(t))
        assert (s != t) == (as_dataclasses(s) != as_dataclasses(t))
    assert TVar.__match_args__ == DataTVar.__match_args__ == ("index", "ty")
    assert TOp.__match_args__ == DataTOp.__match_args__ == ("name", "type_args", "args")
    made = TOp(name="app", type_args=[A, A], args=[TVar(index=1, ty=A), partial(TVar, ty=A)(0)])
    assert made == TOp("app", (A, A), (TVar(1, A), TVar(0, A)))
    assert repr(made) == repr(DataTOp("app", [A, A], [DataTVar(1, A), DataTVar(0, A)]))
    for node, field in ((made, "args"), (TVar(0, A), "index"), (DataTVar(0, A), "index")):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(node, field, ())
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(node, field)
    assert TVar(0, A) != DataTVar(0, A) and TVar(0, A) != Var(0)


def test_typed_variables_compare_in_place():
    """``==`` compares a typed variable by index and then by type, at the
    root and as an argument, as the frozen dataclasses do structurally."""
    types = [A, B, arrow(A, B), arrow(B, A), TypeExpr("->", (A, B)), parse_type("b -> a")]
    tvars = [TVar(i, ty) for i in (0, 1) for ty in types]
    tvars += [pickle.loads(pickle.dumps(v)) for v in tvars]  # equal, unshared
    for x in tvars:
        for y in tvars:
            want = as_dataclasses(x) == as_dataclasses(y)
            assert (x == y) == want and (x != y) != want
            s, t = tapp(A, A, x, TVar(0, A)), tapp(A, A, y, TVar(0, A))
            assert (s == t) == want and (s != t) != want


# --- typechecking -------------------------------------------------------


def test_typecheck_identity():
    assert typecheck(SCH, tlam(A, A, TVar(0, A))) == arrow(A, A)


def test_typecheck_application():
    t = tapp(A, A, tlam(A, A, TVar(0, A)), TVar(0, A))
    assert typecheck(SCH, t) == A


def test_typecheck_rejects_bad_function_position():
    t = tapp(A, A, TVar(0, A), TVar(0, A))
    with pytest.raises(TypecheckError) as e:
        typecheck(SCH, t)
    assert "expected" in str(e.value)


def test_typecheck_error_carries_path():
    bad = tlam(A, A, tapp(A, A, TVar(0, A), TVar(0, A)))
    with pytest.raises(TypecheckError) as e:
        typecheck(SCH, bad)
    assert e.value.path == (0,)


def test_typecheck_unknown_schema():
    with pytest.raises(TypecheckError):
        typecheck(SCH, TOp("pair", (), ()))


@pytest.mark.parametrize("t, message, path", [
    (TVar(0, TypeExpr("c")), "unknown type constructor 'c'", ()),
    (tlam(A, A, TVar(0, arrow(A, TypeExpr("->", (A,))))),
     "type constructor '->' expects 2 arguments, got 1", (0,)),
    (tlam(A, A, TVar(-1, A)), "negative variable index", (0,)),
    (TVar(-1, TypeExpr("c")), "unknown type constructor 'c'", ()),
    (TOp("app", (A, A), (tlam(A, A, TVar(0, A)),)),
     "operation 'app' expects 2 arguments, got 1", ()),
    (TOp("lam", (A, A), (TVar(0, A), TVar(0, A))),
     "operation 'lam' expects 1 arguments, got 2", ()),
    (tapp(A, A, tlam(A, A, TVar(0, A)), "x"), "not a typed term: 'x'", (1,)),
    (Var(0), "not a typed term: Var(index=0)", ()),
    (tapp(A, A, tlam(A, A, TVar(0, A)), TOp("lam", (A,), (TVar(0, A),))),
     "schema 'lam' expects 2 type arguments, got 1", (1,)),
], ids=["ill-formed-type", "ill-formed-argument-type", "negative-index",
        "ill-formed-type-first", "too-few-arguments", "too-many-arguments",
        "non-term-argument", "untyped-node", "bad-type-arguments"])
def test_typecheck_faults(t, message, path):
    for check in (typecheck, ref_typecheck):
        with pytest.raises(TypecheckError) as e:
            check(SCH, t)
        assert e.value.path == path
        assert str(e.value) == (f"{message} (at {list(path)})" if path else message)


def test_typecheck_compares_and_prints_instantiated_types_of_any_depth():
    """Instantiating a schema nests types past the parser's bound; the
    typecheck compares them, and its error prints them, without recursion."""
    schema = parse_signature_file(DEEP_LIST_SIG).schemas["s"]
    assert typecheck(schema, parse_term(DEEP_LIST_OK, "typed")) == base("a")
    with pytest.raises(TypecheckError) as e:
        typecheck(schema, parse_term(DEEP_LIST_BAD, "typed"))
    assert str(e.value) == DEEP_LIST_ERROR


@pytest.mark.parametrize("depth", [8, 9, 1_000])
def test_typecheck_error_message_shortens_long_paths(depth):
    """A path of up to 8 steps is spelled out; a longer one as its depth and
    its last 8 steps.  ``path`` keeps every step."""
    t = tlam(A, A, TVar(0, TypeExpr("c")))
    for _ in range(depth - 1):
        t = tapp(A, A, tlam(A, A, TVar(0, A)), t)
    path = (1,) * (depth - 1) + (0,)
    with pytest.raises(TypecheckError) as e:
        typecheck(SCH, t)
    assert e.value.path == path
    where = (f"at {list(path)}" if depth <= 8
             else f"at depth {depth}, path ending {list(path[-8:])}")
    assert str(e.value) == f"unknown type constructor 'c' ({where})"


def _positions(t, path=()):
    """Every (path, subterm) of a typed term, in preorder."""
    yield path, t
    if type(t) is TOp:
        for i, a in enumerate(t.args):
            yield from _positions(a, path + (i,))


def _replace(t, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    return TOp(t.name, t.type_args, t.args[:i] + (_replace(t.args[i], rest, new),) + t.args[i + 1:])


def _mutate(t, rng, pool):
    """``t`` with one subterm changed: a wrong type, a wrong argument
    count, a negative index, an ill-formed type or a non-term leaf."""
    path, node = rng.choice(list(_positions(t)))
    kind = rng.randrange(5)
    if kind == 0:
        new = TVar(rng.randrange(3), rng.choice(pool))
    elif kind == 1 and type(node) is TOp:
        args = node.args[:-1] if node.args and rng.random() < 0.5 else node.args + (node,)
        new = TOp(node.name, node.type_args, args)
    elif kind == 2:
        new = TVar(-1 - rng.randrange(2), rng.choice(pool))
    elif kind == 3:
        ty = rng.choice([TypeExpr("c"), TypeExpr("a", (A,)), TypeExpr("->", (A,))])
        new = TVar(rng.choice([0, -1]), ty)
    else:
        new = rng.choice(["x", Var(0), None])
    return _replace(t, path, new)


def _outcome(check, t):
    try:
        return check(SCH2, t)
    except TypecheckError as e:
        return str(e), e.path


def test_typecheck_matches_reference():
    """The explicit-stack walk gives the recursive definition's type, or
    its first fault with the same message and path, on seeded well-typed
    terms and on mutants with one to three faults."""
    rng = random.Random(41)
    pool = ground_types(SCH2.grammar)
    faults = 0
    for _ in range(400):
        ty = rng.choice(pool)
        t = random_typed_term(SCH2, rng, ty)
        assert typecheck(SCH2, t) == ref_typecheck(SCH2, t) == ty
        for _ in range(3):
            bad = t
            for _ in range(rng.randint(1, 3)):
                bad = _mutate(bad, rng, pool)
            want = _outcome(ref_typecheck, bad)
            assert _outcome(typecheck, bad) == want, bad
            faults += type(want) is tuple
    assert faults > 600  # most mutants do fault


def _identity_chain(depth: int, leaf):
    """``app (lam #0) (app (lam #0) ... leaf)`` at type ``a``, ``depth``
    applications deep."""
    ident = tlam(A, A, TVar(0, A))
    t = leaf
    for _ in range(depth):
        t = tapp(A, A, ident, t)
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_typecheck_deep_sweep(depth):
    """``typecheck`` takes terms 100 000 levels deep, each call in time
    linear in the depth, and reports a fault at the bottom with its path."""
    bound = 1.0 + depth * 50e-6
    good, bad = _identity_chain(depth, TVar(0, A)), _identity_chain(depth, TVar(-1, A))
    start = time.perf_counter()
    assert typecheck(SCH, good) == A
    assert time.perf_counter() - start < bound
    start = time.perf_counter()
    with pytest.raises(TypecheckError) as e:
        typecheck(SCH, bad)
    assert time.perf_counter() - start < bound
    assert e.value.path == (1,) * depth


@pytest.mark.parametrize("t", [
    TOp("pair", (), ()),
    TOp("lam", (A,), (TVar(0, A),)),
], ids=["unknown-schema", "missing-type-argument"])
def test_typed_to_named_rejects_what_typecheck_rejects(t):
    with pytest.raises(TypecheckError):
        typecheck(SCH, t)
    with pytest.raises(TypecheckError):
        typed_to_named(SCH, t)


# --- typed assignments and lifting --------------------------------------


def test_typed_assignment_canonicalization():
    sigma = TypedAssignment({A: ((TVar(0, A),), 1)})
    assert sigma.components == {}  # pointwise identity collapses

    # a reproducible trailing entry is popped into the tail shift
    sigma = TypedAssignment({A: ((TVar(4, A),), 5)})
    assert sigma.component(A) == ((), 4)


def test_tlift_identity():
    assert tlift_gamma(TypedAssignment(), (A,), SCH) == TypedAssignment()


def test_tlift_single_type():
    # [TVar 3; ^9] maps 0 -> 3, n+1 -> 9+n; lifting gives [0, 4; ^10]
    sigma = TypedAssignment({A: ((TVar(3, A),), 9)})
    lifted = tlift_gamma(sigma, (A,), SCH)
    assert lifted.component(A) == ((TVar(0, A), TVar(4, A)), 10)


def test_tlift_leaves_other_types_alone():
    sigma = TypedAssignment({A: ((TVar(3, A),), 9)})
    lifted = tlift_gamma(sigma, (B,), SCH2)
    # the b-shift fixes a-indices, so the a-component is untouched
    assert lifted.component(A) == sigma.component(A)
    assert lifted.component(B) == ((TVar(0, B),), 1) or lifted.component(B) == ((), 0)


def test_tlift_shifts_cross_type_occurrences():
    # a component at type a->a that mentions an a-variable must see the
    # a-shift when lifting at a
    f = arrow(A, A)
    sigma = TypedAssignment({f: ((tlam(A, A, TVar(1, A)),), 0)})
    lifted = tlift_gamma(sigma, (A,), SCH)
    assert lifted.component(f)[0][0] == tlam(A, A, TVar(2, A))


def test_tlift_gamma():
    sigma = TypedAssignment({A: ((TVar(3, A),), 0)})
    assert tlift_gamma(sigma, (), SCH) == sigma
    # the one-step lift at a: [3; ^0] becomes [0, 4; ^1]
    assert tlift_gamma(sigma, (A,), SCH) == TypedAssignment({A: ((TVar(0, A), TVar(4, A)), 1)})
    lift_a = tlift_gamma(sigma, (A,), SCH2)
    assert tlift_gamma(sigma, (A, B), SCH2) == tlift_gamma(lift_a, (B,), SCH2)


# --- typed substitution -------------------------------------------------


def test_tsubst_variable_clause():
    u = tlam(A, A, TVar(0, A))
    sigma = TypedAssignment({arrow(A, A): ((u,), 0)})
    assert tsubst(TVar(0, arrow(A, A)), sigma, SCH) == u


def test_tsubst_under_binder():
    # typed analogue of lam(app(1,0))[lam(0) . id]; the function position
    # has arrow type, so the free variable lives in the arrow-type index
    # space at index 0 even under the a-binder
    body = tapp(A, A, TVar(0, arrow(A, A)), TVar(0, A))
    t = tlam(A, A, body)
    ident = tlam(A, A, TVar(0, A))
    sigma = TypedAssignment({arrow(A, A): ((ident,), 0)})
    got = tsubst(t, sigma, SCH)
    assert got == tlam(A, A, tapp(A, A, ident, TVar(0, A)))


def test_tsubst_identity():
    rng = random.Random(31)
    for _ in range(100):
        ty = rng.choice(ground_types(SCH.grammar))
        t = random_typed_term(SCH, rng, ty)
        assert tsubst(t, TypedAssignment(), SCH) == t


def test_tsubst1():
    u = tlam(A, A, TVar(0, A))
    t = TVar(0, arrow(A, A))
    assert tsubst(t, TypedAssignment({arrow(A, A): ((u,), 0)}), SCH) == u


def test_subject_invariance():
    rng = random.Random(37)
    pool = ground_types(SCH.grammar)
    for _ in range(300):
        ty = rng.choice(pool)
        t = random_typed_term(SCH, rng, ty)
        sigma = random_typed_assignment(SCH, rng)
        assert typecheck(SCH, tsubst(t, sigma, SCH)) == ty


def test_typed_monad_laws():
    rng = random.Random(41)
    pool = ground_types(SCH.grammar)
    for _ in range(300):
        ty = rng.choice(pool)
        t = random_typed_term(SCH, rng, ty)
        f = random_typed_assignment(SCH, rng)
        g = random_typed_assignment(SCH, rng)
        assert tsubst(tsubst(t, f, SCH), g, SCH) == tsubst(t, tcompose(f, g, SCH), SCH)
        n = rng.randrange(5)
        assert tsubst(TVar(n, ty), f, SCH) == typed_assignment_at(f, ty, n)
        assert tsubst(t, TypedAssignment(), SCH) == t


def test_typed_binding_condition():
    rng = random.Random(43)
    tm = typed_term_model(SCH)
    pool = ground_types(SCH.grammar)
    for _ in range(200):
        # sample an operation instance and check Eq-style commutation
        s, t_ = rng.choice(pool), rng.choice(pool)
        for name, targs in (("lam", (s, t_)), ("app", (s, t_))):
            from debruijn.signature import instantiate_schema

            ar = instantiate_schema(SCH.schemas[name], targs, SCH.grammar)
            args = [
                random_typed_term(SCH, rng, tau, max_depth=3) for _, tau in ar.premises
            ]
            sigma = random_typed_assignment(SCH, rng)
            lhs = tsubst(TOp(name, targs, tuple(args)), sigma, SCH)
            rhs = TOp(
                name,
                targs,
                tuple(
                    tsubst(x, tlift_gamma(sigma, gamma, SCH), SCH)
                    for x, (gamma, _) in zip(args, ar.premises)
                ),
            )
            assert lhs == rhs


def test_per_type_independence():
    # if a component mentions no b-variables, lifting at b leaves it alone
    rng = random.Random(47)
    pool_a = [t for t in ground_types(SCH2.grammar) if "b" not in str(t)]
    for _ in range(50):
        ty = rng.choice(pool_a)
        prefix = tuple(
            random_typed_term(SCH2, rng, ty, max_depth=2, type_pool=pool_a)
            for _ in range(rng.randint(0, 2))
        )
        sigma = TypedAssignment({ty: (prefix, rng.randint(0, 2))})
        lifted = tlift_gamma(sigma, (B,), SCH2)
        assert lifted.component(ty)[0] == sigma.component(ty)[0]


# --- typed models and oracle --------------------------------------------


def test_typed_fold_into_term_model_is_identity():
    rng = random.Random(53)
    tm = typed_term_model(SCH)
    for _ in range(100):
        t = random_typed_term(SCH, rng, A)
        assert t_initial_fold(SCH, tm, t) == t


def test_typed_named_oracle_agrees_with_tsubst():
    rng = random.Random(59)
    nm = typed_named_model(SCH)
    pool = ground_types(SCH.grammar)
    for _ in range(200):
        ty = rng.choice(pool)
        t = random_typed_term(SCH, rng, ty, max_depth=4)
        sigma = random_typed_assignment(SCH, rng, max_depth=3)
        lhs = typed_to_named(SCH, tsubst(t, sigma, SCH))
        named_sigma = TypedAssignment(
            {
                ty2: (tuple(typed_to_named(SCH, u) for u in prefix), k)
                for ty2, (prefix, k) in sigma.components.items()
            }
        )
        rhs = nm.substitution(typed_to_named(SCH, t), named_sigma)
        assert alpha_eq(lhs, rhs)


# --- degenerate reduction -----------------------------------------------


def test_degenerate_matches_untyped():
    sig = lambda_signature()
    deg = degenerate_schema(sig)
    rng = random.Random(61)
    for _ in range(200):
        t = random_term(sig, rng, max_depth=5)
        a = random_assignment(sig, rng)
        o = base("o")
        dsigma = TypedAssignment(
            {o: (tuple(to_degenerate(u) for u in a.prefix), a.tail_shift)}
        )
        got = tsubst(to_degenerate(t), dsigma, deg)
        assert from_degenerate(got) == subst(t, a, sig)


def test_degenerate_round_trip():
    sig = lambda_signature()
    rng = random.Random(67)
    for _ in range(100):
        t = random_term(sig, rng)
        assert from_degenerate(to_degenerate(t)) == t


def test_degenerate_maps_and_typed_fold_handle_deep_chains():
    # lam (app t 0) chains 100 000 binders deep, at the default recursion limit
    sig = lambda_signature()
    t = Var(0)
    for _ in range(100_000):
        t = lam(app(t, Var(0)))
    typed = to_degenerate(t)
    assert same_term(from_degenerate(typed), t)
    deg = degenerate_schema(sig)
    folded = t_initial_fold(deg, typed_term_model(deg), typed)
    assert same_term(from_degenerate(folded), t)


def test_degenerate_typechecks():
    sig = lambda_signature()
    deg = degenerate_schema(sig)
    t = to_degenerate(lam(app(Var(1), Var(0))))
    assert typecheck(deg, t) == base("o")


# --- application binary trees -------------------------------------------


def test_bt_leaf():
    leaf = BTLeaf(A)
    assert bt_conclusion(leaf) == A
    assert bt_context(leaf) == (A,)


def test_bt_node():
    t1, t2 = base("t1"), base("t2")
    node = BTNode(BTLeaf(arrow(t1, t2)), BTLeaf(t1))
    assert bt_conclusion(node) == t2
    assert bt_context(node) == (arrow(t1, t2), t1)


def test_bt_node_rejects_mismatch():
    with pytest.raises(ValueError):
        bt_conclusion(BTNode(BTLeaf(A), BTLeaf(A)))


def test_values_arity_abstraction():
    # a single leaf gives exactly the arity of lambda-abstraction
    s, t = base("s"), A
    assert values_arity(BTLeaf(t), s) == TypedArity((((s,), t),), arrow(s, t))


def test_values_arity_application_tree():
    t1, t2, s = base("t1"), base("t2"), base("s")
    node = BTNode(BTLeaf(arrow(t1, t2)), BTLeaf(t1))
    assert values_arity(node, s) == TypedArity(
        (((s,), arrow(t1, t2)), ((s,), t1)),
        arrow(s, t2),
    )


def test_values_arity_premise_count():
    t1, t2, t3 = base("t1"), base("t2"), base("t3")
    pi = BTNode(
        BTNode(BTLeaf(arrow(t1, arrow(t2, t3))), BTLeaf(t1)),
        BTLeaf(t2),
    )
    ar = values_arity(pi, A)
    assert len(ar.premises) == 3


def test_bt_enumerate_single_leaf():
    grammar = SCH.grammar
    assert bt_enumerate(grammar, A, 1) == [BTLeaf(A)]
    assert bt_enumerate(grammar, A, 0) == []


def test_bt_enumerate_example_tree():
    from debruijn import TypeGrammar

    grammar = TypeGrammar({"t1": 0, "t2": 0, "->": 2})
    t1, t2 = base("t1"), base("t2")
    got = bt_enumerate(grammar, t2, 2, context_types=(arrow(t1, t2), t1))
    expected_node = BTNode(BTLeaf(arrow(t1, t2)), BTLeaf(t1))
    assert BTLeaf(t2) in got
    assert expected_node in got
    # the example derivation is the only 2-leaf tree here
    assert [d for d in got if d != BTLeaf(t2)] == [expected_node]


def test_bt_enumerate_conclusions():
    grammar = SCH2.grammar
    goal = arrow(A, B)
    for d in bt_enumerate(grammar, goal, 3, context_types=(arrow(A, arrow(A, B)),)):
        assert bt_conclusion(d) == goal


def test_op_arity_is_memoized_per_schema_and_failures_are_not():
    sch = stlc_schema({"a", "b"})
    ar = op_arity(sch, "lam", (A, B))
    assert ar == instantiate_schema(sch.schemas["lam"], (A, B), sch.grammar)
    assert op_arity(sch, "lam", (A, B)) is ar
    assert sch.arities == {("lam", (A, B)): ar}
    assert op_arity(stlc_schema({"a", "b"}), "lam", (A, B)) is not ar
    for name, targs in (("pair", (A, B)), ("lam", (A,)), ("lam", (A, base("c")))):
        for _ in range(2):
            with pytest.raises(TypecheckError):
                op_arity(sch, name, targs)
    assert list(sch.arities) == [("lam", (A, B))]


def _typed_chain(depth: int, leaf):
    """``lam (app t 0)`` at type ``a``, nested ``depth`` deep over ``leaf``."""
    t = leaf
    for _ in range(depth):
        t = tlam(A, A, TOp("app", (A, A), (t, TVar(0, A))))
    return t


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000], ids=["d1k", "d10k", "d100k"])
def test_deep_tcompose_and_tlift_gamma(depth):
    """``tcompose`` and ``tlift_gamma`` of a typed image whose free variable
    sits at the bottom of ``depth`` binders, each call in time linear in
    the depth."""
    bound = 1.0 + depth * 50e-6
    sigma = TypedAssignment({A: ((_typed_chain(depth, TVar(depth, A)),), 0)})
    nu = TypedAssignment({A: ((TVar(7, A),), 0)})
    assert timed(bound, lambda: tcompose(sigma, nu, SCH)) == TypedAssignment(
        {A: ((_typed_chain(depth, TVar(depth + 7, A)), TVar(7, A)), 0)})
    assert timed(bound, lambda: tlift_gamma(sigma, (A, A), SCH)) == TypedAssignment(
        {A: ((TVar(0, A), TVar(1, A), _typed_chain(depth, TVar(depth + 2, A))), 2)})
