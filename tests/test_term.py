"""Term construction, well-formedness, folds, and free-variable queries."""

from __future__ import annotations

import pickle
import random

import pytest

from debruijn import (
    Op,
    Var,
    fold,
    lambda_signature,
    make_signature,
    max_free_var,
    support,
    wellformed,
)
from debruijn.gen import random_term

from helpers import app, lam

SIG = lambda_signature()


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


def test_max_free_var():
    assert max_free_var(app(Var(0), Var(2)), SIG) == 2
    assert max_free_var(lam(Var(0)), SIG) is None
    assert max_free_var(lam(app(Var(1), Var(3))), SIG) == 2


def test_max_free_var_multi_binder():
    sig = make_signature({"m": (2, 0, 1)})
    t = Op("m", (Var(2), Var(2), Var(2)))
    # binder counts 2, 0, 1 leave free contributions 0, 2, 1
    assert max_free_var(t, sig) == 2


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
