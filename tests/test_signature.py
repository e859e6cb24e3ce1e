"""Signature declarations, typed schemas, and validation."""

from __future__ import annotations

import pytest

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time

from debruijn import (
    BindingArity,
    BindingSignature,
    OpSchema,
    TypedArity,
    TypedSignatureSchema,
    TypeExpr,
    TypeGrammar,
    arity,
    arrow,
    base,
    first_order_arity,
    instantiate_schema,
    lambda_signature,
    make_signature,
    parse_theory_file,
    stlc_schema,
    validate_signature,
)
from debruijn.gen import ground_types
from debruijn.signature import _types
from debruijn.surface import ParseError, parse_signature_file, parse_type

from helpers import DEEP_LIST_SIG, as_data_type, list_nest, ref_type_eq, ref_type_str


def test_first_order_arity():
    assert first_order_arity(arity(1)) == 1
    assert first_order_arity(arity(0, 0)) == 2
    assert first_order_arity(arity()) == 0


def test_lambda_signature_shape():
    sig = lambda_signature()
    assert sig.ops["lam"] == BindingArity((1,))
    assert sig.ops["app"] == BindingArity((0, 0))
    assert first_order_arity(sig.ops["app"]) == 2
    assert validate_signature(sig) == []


def test_binder_table_is_built_once_per_signature():
    sig = make_signature({"m": (2, 0, 1), "c": ()})
    assert sig.binders == {"m": (2, 0, 1), "c": ()}
    assert sig.binders is sig.binders
    assert make_signature({"m": (2, 0, 1), "c": ()}) == sig


def test_type_hash_is_the_dataclass_hash_and_survives_pickling():
    ty = arrow(base("a"), arrow(base("b"), base("a")))
    assert hash(ty) == hash(("->", ty.args)) == hash(TypeExpr("->", list(ty.args)))
    assert hash(base("a")) == hash(("a", ()))
    # a string hashes differently in another process: the hash is not pickled
    code = "import pickle, sys; from debruijn import arrow, base; " \
        "sys.stdout.buffer.write(pickle.dumps(arrow(base('a'), base('b'))))"
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
    data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True).stdout
    loaded, ab = pickle.loads(data), arrow(base("a"), base("b"))
    assert loaded == ab and hash(loaded) == hash(ab) and {ab: 1}[loaded] == 1


def random_type(rng: random.Random, depth: int) -> TypeExpr:
    """A small type, so that equal pairs are common; one arrow in ten has
    one or three arguments, which ``str`` prints as a constructor."""
    if depth == 0 or rng.random() < 0.3:
        return base(rng.choice("ab"))
    ctor = rng.choice(("->", "->", "list", "pair"))
    n = {"list": 1, "pair": 2}.get(ctor) or (2 if rng.random() < 0.9 else rng.choice((1, 3)))
    return TypeExpr(ctor, tuple(random_type(rng, depth - 1) for _ in range(n)))


def test_type_eq_and_str_match_reference():
    """The explicit-stack == and str against the recursions they replaced,
    on shared and unshared pairs."""
    rng = random.Random(29)
    equal = 0
    for _ in range(3000):
        x, y = random_type(rng, 3), random_type(rng, 3)
        again = pickle.loads(pickle.dumps(x))  # equal, and interned: x itself
        assert str(x) == ref_type_str(x)
        assert (x == y) == ref_type_eq(x, y) and (x != y) != ref_type_eq(x, y)
        assert x == again and not x != again
        equal += x == y
    assert 100 < equal < 2900


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000])
def test_deep_type_eq_and_str(depth):
    def nest(leaf):
        for _ in range(depth):
            leaf = TypeExpr("list", (leaf,))
        return leaf

    def arrows(leaf):  # a -> (a -> ... -> leaf), and (... (a -> a) -> ...) -> a
        right = left = leaf
        for _ in range(depth):
            right, left = arrow(base("a"), right), arrow(left, base("a"))
        return right, left

    start = time.perf_counter()
    assert nest(base("a")) == nest(base("a")) and nest(base("a")) != nest(base("b"))
    assert str(nest(base("a"))) == "list(" * depth + "a" + ")" * depth
    right, left = arrows(base("a"))
    assert str(right) == "a -> " * depth + "a"
    assert str(left) == "(" * (depth - 1) + "a -> a" + ") -> a" * (depth - 1)
    assert right != left and right == arrows(base("a"))[0]
    assert time.perf_counter() - start < 30


def test_equal_types_are_one_object():
    """Types are hash-consed: an equal type is the same object, however it
    is made, and its hash and repr are the frozen dataclass's."""
    sch = stlc_schema({"a", "b"})
    a, b = base("a"), base("b")
    assert arrow(a, b) is TypeExpr("->", [a, b]) is TypeExpr(ctor="->", args=(a, b))
    assert parse_type("(a -> b) -> a") is arrow(arrow(a, b), a)
    ar = instantiate_schema(sch.schemas["lam"], (a, arrow(a, b)), sch.grammar)
    assert ar.premises[0] == ((a,), arrow(a, b)) and ar.premises[0][1] is parse_type("a -> b")
    assert ar.conclusion is parse_type("a -> a -> b")
    for ty in ground_types(sch.grammar):
        assert parse_type(str(ty)) is ty
        assert pickle.loads(pickle.dumps(ty)) is ty
        assert copy.deepcopy(ty) is ty and copy.copy(ty) is ty
        data = as_data_type(ty)
        assert hash(ty) == hash(data) and repr(ty) == repr(data)
    rng = random.Random(31)
    for _ in range(1000):
        ty = random_type(rng, 4)
        data = as_data_type(ty)
        assert hash(ty) == hash(data) and repr(ty) == repr(data)
        assert copy.deepcopy(ty) is ty
    assert all(random_type(random.Random(i), 4) is random_type(random.Random(i), 4)
               for i in range(100))


def test_a_type_nothing_holds_leaves_the_table():
    ty = TypeExpr("only_here", (TypeExpr("nor_here"),))
    assert ("only_here", (TypeExpr("nor_here"),)) in _types
    del ty
    gc.collect()
    assert not [key for key in _types.keys() if key[0] in ("only_here", "nor_here")]


def test_threads_building_one_type_get_one_object():
    """Eight threads, switching often, build the same fresh types at once:
    each type still comes out as one object."""
    built = [None] * 8

    def build(k):
        built[k] = [arrow(base(f"thread{i}"), TypeExpr("list", (base(f"thread{i}"),)))
                    for i in range(3000)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for same in zip(*built):
        assert all(ty is same[0] for ty in same)


@pytest.mark.parametrize("depth", [1_000, 10_000, 100_000])
def test_deep_type_repr_and_pickle(depth):
    ty = base("a")
    for _ in range(depth):
        ty = TypeExpr("list", (ty,))
    start = time.perf_counter()
    assert repr(ty) == "TypeExpr(ctor='list', args=(" * depth + repr(base("a")) + ",))" * depth
    assert pickle.loads(pickle.dumps(ty)) is ty and copy.deepcopy(ty) is ty
    assert time.perf_counter() - start < 30


def test_instantiated_types_past_the_parser_bound_print_and_pickle():
    """The premise type of ``f`` at ``list`` nested 190 deep nests 380
    deep; it and its arity have a repr and pickle."""
    schema = parse_signature_file(DEEP_LIST_SIG).schemas["s"]
    ar = instantiate_schema(schema.schemas["f"], (parse_type(list_nest("a")),), schema.grammar)
    premise = ar.premises[0][1]
    assert str(premise) == list_nest(list_nest("a"))
    text = "TypeExpr(ctor='list', args=(" * 380 + repr(base("a")) + ",))" * 380
    assert repr(premise) == text
    assert repr(ar) == f"TypedArity(premises=(((), {text}),), conclusion={base('a')!r})"
    assert pickle.loads(pickle.dumps(premise)) is premise
    assert pickle.loads(pickle.dumps(ar)) == ar


def test_stlc_schema_lam():
    sch = stlc_schema({"a"})
    lam = sch.schemas["lam"]
    s, t = base("s"), base("t")
    assert lam.template.premises == (((s,), t),)
    assert lam.template.conclusion == arrow(s, t)


def test_stlc_schema_app():
    sch = stlc_schema({"a"})
    app = sch.schemas["app"]
    s, t = base("s"), base("t")
    assert app.template.premises == (((), arrow(s, t)), ((), s))
    assert app.template.conclusion == t


def test_stlc_schema_requires_base_types():
    with pytest.raises(ValueError):
        stlc_schema(set())


def test_instantiate_lam():
    sch = stlc_schema({"a"})
    a = base("a")
    ar = instantiate_schema(sch.schemas["lam"], (a, a), sch.grammar)
    assert ar == TypedArity((((a,), a),), arrow(a, a))

    higher = instantiate_schema(sch.schemas["lam"], (a, arrow(a, a)), sch.grammar)
    assert higher.premises == (((a,), arrow(a, a)),)
    assert higher.conclusion == arrow(a, arrow(a, a))


def test_instantiate_app():
    sch = stlc_schema({"a"})
    a = base("a")
    ar = instantiate_schema(sch.schemas["app"], (a, a), sch.grammar)
    assert ar == TypedArity((((), arrow(a, a)), ((), a)), a)


def test_instantiate_wrong_count():
    sch = stlc_schema({"a"})
    with pytest.raises(ValueError):
        instantiate_schema(sch.schemas["lam"], (base("a"),), sch.grammar)


def test_instantiate_rejects_non_ground():
    sch = stlc_schema({"a"})
    with pytest.raises(ValueError):
        instantiate_schema(sch.schemas["lam"], (base("a"), base("zzz")), sch.grammar)


def test_instantiate_injective_on_stlc():
    sch = stlc_schema({"a", "b"})
    a, b = base("a"), base("b")
    types = [a, b, arrow(a, b), arrow(b, a)]
    seen = {}
    for s in types:
        for t in types:
            ar = instantiate_schema(sch.schemas["lam"], (s, t), sch.grammar)
            assert ar not in seen.values()
            seen[(s, t)] = ar


def test_validate_duplicate_names():
    # a signature value cannot repeat a name: the reader rejects it
    with pytest.raises(ParseError) as e:
        parse_theory_file("signature s { op f : (0); op f : (1); }")
    assert [d.message for d in e.value.diagnostics] == ["duplicate operation name 'f'"]


def test_validate_unknown_constructor_in_schema():
    grammar = TypeGrammar({"a": 0, "->": 2})
    bad = OpSchema(
        "nil",
        (),
        TypedArity((), base("list")),
    )
    sch = TypedSignatureSchema(grammar, {"nil": bad})
    errs = validate_signature(sch)
    assert errs


@pytest.mark.parametrize("sig, errs", [
    (BindingSignature({"1f": arity(0), "f-g": arity(1)}),
     ["invalid operation name '1f'", "invalid operation name 'f-g'"]),
    (BindingSignature({"f": arity(0, -1)}), ["operation 'f' has a negative binder count"]),
    (TypedSignatureSchema(TypeGrammar({"a": 0, "t": -1}), {}),
     ["type constructor 't' has negative arity"]),
    (TypedSignatureSchema(TypeGrammar({"a": 0}), {"f": OpSchema("g", (), TypedArity((), base("a")))}),
     ["schema key 'f' does not match name 'g'"]),
    (TypedSignatureSchema(TypeGrammar({"a": 0}), {"?": OpSchema("?", (), TypedArity((), base("a")))}),
     ["invalid operation name '?'"]),
    ({"lam": (1,)}, ["not a signature: {'lam': (1,)}"]),
], ids=["invalid-name", "negative-binders", "negative-ctor-arity", "key-mismatch",
        "invalid-typed-name", "not-a-signature"])
def test_validate_reports_each_fault(sig, errs):
    assert validate_signature(sig) == errs


def test_validate_builtins():
    assert validate_signature(lambda_signature()) == []
    assert validate_signature(stlc_schema({"a"})) == []
    assert validate_signature(stlc_schema({"a", "b"})) == []


def test_make_signature():
    sig = make_signature({"m": (2, 0, 1)})
    assert sig.ops["m"] == BindingArity((2, 0, 1))
    assert first_order_arity(sig.ops["m"]) == 3


def test_type_expr_printing():
    a, b = base("a"), base("b")
    assert str(arrow(a, arrow(a, b))) == "a -> a -> b"
    assert str(arrow(arrow(a, a), b)) == "(a -> a) -> b"
