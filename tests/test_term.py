"""Term construction, well-formedness, folds, and free-variable queries."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from math import inf

from debruijn import (
    Assignment,
    MetaVar,
    Op,
    Var,
    fold,
    from_named,
    lambda_signature,
    make_signature,
    map_free_vars,
    parse_term,
    print_term,
    rename,
    subst,
    support,
    term_from_json,
    term_to_json,
    to_named,
    wellformed,
)
from debruijn import term
from debruijn.gen import random_assignment, random_renaming, random_term

from helpers import RecursiveReprOp, app, lam

SIG = lambda_signature()
FO_SIG = make_signature({"f": (0, 0), "c": ()})
MIXED_SIG = make_signature({"m": (2, 0, 1)})


def test_wellformed_ok():
    assert wellformed(SIG, lam(app(Var(1), Var(0)))) == []


def test_wellformed_wrong_count():
    errs = wellformed(SIG, Op("app", (Var(0),)))
    assert len(errs) == 1
    assert "app" in errs[0]


def test_wellformed_unknown_op():
    errs = wellformed(SIG, Op("foo", (Var(0),)))
    assert any("foo" in e for e in errs)


def test_wellformed_reports_path():
    # the bad node sits inside the lam body, at argument position 0
    errs = wellformed(SIG, lam(Op("app", (Var(0),))))
    assert any("0" in e for e in errs)


def test_fold_leaf():
    assert fold(SIG, lambda n: 0, lambda name, args: 1 + sum(args), Var(7)) == 0


def test_fold_node_count():
    count = fold(
        SIG,
        lambda n: 0,
        lambda name, args: 1 + sum(args),
        app(Var(0), Var(1)),
    )
    assert count == 1


def test_fold_depth():
    depth = fold(
        SIG,
        lambda n: 0,
        lambda name, args: 1 + max(args, default=0),
        lam(lam(app(Var(1), Var(0)))),
    )
    assert depth == 3  # three nested Op layers


def test_fold_rejects_a_non_term_node():
    with pytest.raises(TypeError):
        fold(SIG, lambda n: 0, lambda name, args: 1 + sum(args), app(Var(0), "x"))


def test_fold_identity_is_identity():
    rng = random.Random(11)
    for _ in range(300):
        t = random_term(SIG, rng)
        assert fold(SIG, Var, lambda name, args: Op(name, tuple(args)), t) == t


def test_support_above_binders():
    assert support(app(Var(0), Var(2)), SIG) == 3
    assert support(lam(Var(0)), SIG) == 0
    assert support(lam(app(Var(1), Var(3))), SIG) == 3


def test_support_multi_binder():
    sig = make_signature({"m": (2, 0, 1)})
    t = Op("m", (Var(2), Var(2), Var(2)))
    # binder counts 2, 0, 1 leave free contributions 0, 2, 1
    assert support(t, sig) == 3


def test_support():
    assert support(app(Var(0), Var(2)), SIG) == 3
    assert support(lam(Var(0)), SIG) == 0
    assert support(Var(5), SIG) == 6


def test_deep_term_operations():
    t = Var(0)
    for _ in range(100_000):
        t = lam(t)
    assert wellformed(SIG, t) == []
    assert support(t, SIG) == 0
    nodes = fold(SIG, lambda n: 1, lambda name, args: 1 + sum(args), t)
    assert nodes == 100_001


def test_nodes_are_immutable():
    v = Var(3)
    o = app(lam(Var(0)), v)
    for node, field in ((v, "index"), (o, "name"), (o, "args"), (o, "_sup")):
        with pytest.raises(AttributeError):
            setattr(node, field, 0)
        with pytest.raises(AttributeError):
            delattr(node, field)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v == Var(3) and o.args[1] is v


def test_node_repr_eq_and_hash_are_the_dataclass_ones():
    o = Op("app", [lam(Var(0)), Var(3)])
    assert type(o.args) is tuple
    assert repr(Var(3)) == "Var(index=3)"
    assert repr(o) == "Op(name='app', args=(Op(name='lam', args=(Var(index=0),)), Var(index=3)))"
    assert hash(Var(3)) == hash((3,))
    assert hash(o) == hash(("app", o.args))
    assert o == app(lam(Var(0)), Var(3)) and o != app(lam(Var(0)), Var(4))
    assert Var(0) != lam(Var(0)) and Var(0) != 0
    assert pickle.loads(pickle.dumps(o)) == o


def test_pickling_keeps_shared_subterms_shared():
    """A node met twice is pickled once and comes back shared: a term of
    2 000 levels, each applying one node to itself, pickles in size linear
    in its levels, not in its 2^2000 paths."""
    t = Var(0)
    for _ in range(2_000):
        t = app(t, t)
    data = pickle.dumps(t)
    assert len(data) < 100 * 2_000
    back, depth = pickle.loads(data), 0
    while type(back) is Op:
        assert back.args[0] is back.args[1]
        back, depth = back.args[0], depth + 1
    assert back is Var(0) and depth == 2_000


def test_small_indices_are_interned():
    """``Var(i)`` is one node for each ``int`` i in ``range(256)``; any
    other index, and a subclass, gets a fresh node equal to another."""
    assert all(Var(i) is Var(i) for i in range(256))
    for i in (-1, 256, 1024, 10**6, True):
        v = Var(i)
        assert v is not Var(i) and v == Var(i) and hash(v) == hash(Var(i))
        assert v.index is i and v._top == i + 1

    class Sub(Var):
        __slots__ = ()

    class SubOp(Op):
        __slots__ = ()

    assert Sub(3) is not Sub(3) and type(Sub(3)) is Sub and Sub(3)._top == 4
    o = SubOp("app", [Sub(3), Var(1)])
    assert type(o) is SubOp and type(o.args) is tuple and o.args[1] is Var(1)
    assert o._top == 4 and o._sig is None


def test_interned_nodes_survive_copies_and_stay_frozen():
    v = Var(7)
    assert pickle.loads(pickle.dumps(v)) is v
    assert copy.deepcopy(v) is v and copy.copy(v) is v
    t = lam(app(Var(0), v))
    assert pickle.loads(pickle.dumps(t)).args[0].args[1] is v
    assert copy.deepcopy(t).args[0].args[1] is v
    for name in ("index", "_top"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(v, name)
    assert v.index == 7 and v._top == 8 and Var(7) is v


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_repr_agrees_with_the_recursive_repr(sig):
    """On seeded terms, some with leaves that are not terms: strings,
    ``None``, negative indices, metavariables and empty argument tuples."""
    rng = random.Random(73)
    junk = ["x", None, Var(-1), MetaVar(2), Op("k", ()), 0]
    for _ in range(300):
        t = random_term(sig, rng, max_depth=6, max_index=4)
        if type(t) is Op and rng.random() < 0.5:
            t = Op("j", (*t.args, rng.choice(junk)))
        if type(t) is Op:
            assert repr(t) == repr(RecursiveReprOp(t))
        assert repr(Op("w", (t,))) == repr(RecursiveReprOp(Op("w", (t,))))


def _bounds_hold(t) -> bool:
    """Whether every node's ``_top`` is 1 + the largest index below it
    (0 without variables), computed here by an explicit-stack fold."""
    stack, values = [(t, False)], []
    while stack:
        node, ready = stack.pop()
        if type(node) is Var:
            values.append(node.index + 1)
        elif ready:
            k = len(values) - len(node.args)
            top = max(values[k:], default=0)
            del values[k:]
            if node._top != top:
                return False
            values.append(top)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in node.args)
    return t._top == values[0]


@pytest.mark.parametrize("sig", [SIG, FO_SIG, MIXED_SIG], ids=["lambda", "FO", "MIXED"])
def test_index_bound_on_every_node(sig):
    rng = random.Random(71)
    for _ in range(200):
        t = random_term(sig, rng, max_depth=6, max_index=rng.choice((1, 5, 40)))
        built = (
            t,
            subst(t, random_assignment(sig, rng, max_depth=3), sig),
            rename(t, random_renaming(rng), sig),
            parse_term(print_term(t)),
            from_named(sig, to_named(sig, t)),
            term_from_json(term_to_json(t)),
            pickle.loads(pickle.dumps(t)),
        )
        for u in built:
            assert _bounds_hold(u)
        assert built[3:] == (t,) * 4
    assert Op("c", ())._top == 0 and Var(0)._top == 1 and Var(-3)._top == -2
    assert lam(lam(app(Var(1), Var(9))))._top == 10


def test_non_term_argument_gets_an_infinite_bound_and_is_walked():
    bad = lam("not a term")
    assert bad._top == inf and app(Var(0), bad)._top == inf
    for t in (bad, lam(lam(bad))):
        with pytest.raises(TypeError):
            map_free_vars(t, SIG, lambda d, n: Var(n))
        with pytest.raises(TypeError):
            subst(t, Assignment((Var(3),), 0), SIG)


def test_eq_is_iterative_and_rejects_by_bound():
    def chain(n):
        t = Var(n)
        for _ in range(n):
            t = lam(app(t, Var(0)))
        return t

    a, b = chain(100_000), chain(100_000)
    assert a is not b and a.args[0] is not b.args[0]
    assert a == b and not a != b
    assert a != chain(99_999)
    assert lam(app(Var(0), Var(1))) != lam(app(Var(0), Var(2)))  # by bound
    assert app(Var(0), Var(2)) != app(Var(1), Var(2)) == app(Var(1), Var(2))
    assert app(Var(0), lam(Var(0))) != app(Var(0), Var(0))
    assert Op("c", ()) == Op("c", ()) and Op("c", ()) != Op("d", ())


def test_wellformed_reports_as_the_path_walk():
    """The checking walk returns [] exactly when the walk that spells out
    paths finds no fault, and otherwise that walk's diagnostics."""
    rng = random.Random(5)
    faulty = 0
    for _ in range(2000):
        t = random_term(SIG, rng, max_depth=5)
        for _ in range(rng.randrange(3)):  # plant faults at random nodes
            path, node = [], t
            while type(node) is Op and node.args and rng.random() < 0.7:
                i = rng.randrange(len(node.args))
                path.append(i)
                node = node.args[i]
            bad = rng.choice([Var(-1), Op("foo", ()), Op("app", (Var(0),)), "x", Op("lam", ())])
            t = _replace_at(t, path, bad)
        errs = wellformed(SIG, t)
        assert errs == term._faults(SIG, t)
        faulty += bool(errs)
    assert faulty > 1000


def _replace_at(t, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    args = list(t.args)
    args[i] = _replace_at(args[i], rest, new)
    return Op(t.name, tuple(args))
