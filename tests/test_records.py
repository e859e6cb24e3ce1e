"""The package's records, slotted classes on ``signature.Record``, against
the dataclasses they replaced (``helpers.RECORD_TWINS``): ``==``, ``!=``,
``hash`` or unhashability, ``repr``, ``FrozenInstanceError``, pickling,
``__match_args__`` and constructor defaults agree, built from the same
field values."""

from __future__ import annotations

import copy
import math
import operator
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from debruijn import (
    Assignment,
    BTLeaf,
    BTNode,
    BindingArity,
    BindingSignature,
    DBAlgebra,
    DeBruijnMonad,
    Diagnostic,
    EquationalTheory,
    ExplicitSubst,
    LawResult,
    MetaVar,
    NormalizeResult,
    Op,
    OpSchema,
    Report,
    Rule,
    TVar,
    TypeExpr,
    TypeGrammar,
    TypedAlgebra,
    TypedArity,
    TypedAssignment,
    TypedSignatureSchema,
    Var,
    arrow,
    base,
    lambda_signature,
)
from debruijn.equational import CompiledMetaterm, CompiledPattern
from debruijn.surface import SignatureFile, SourceSpan
from debruijn.typed import BTDerivation
from helpers import RECORD_TWINS

A, B = base("A"), base("B")
LAM = lambda_signature()
ARITY = BindingArity((1, 0))
BETA = Rule("beta", ARITY, Op("app", (Op("lam", (MetaVar(0),)), MetaVar(1))),
            ExplicitSubst(MetaVar(0), Assignment((MetaVar(1),), 0)))
SCHEMA = OpSchema("lam", ("s", "t"), TypedArity((((A,), B),), arrow(A, B)))
GRAMMAR = TypeGrammar({"A": 0, "B": 0, "->": 2})
SPAN = SourceSpan(0, 3, 1, 0)

# per record: calls (args, kwargs), the first two of equal values, the
# third of other values, the last with the required fields alone;
# callable fields are builtins, so that the records pickle
CALLS = {
    BindingArity: [(([1, 0],), {}), (((1, 0),), {}), (((2,),), {}), (((),), {})],
    BindingSignature: [((dict(LAM.ops),), {}), ((), {"ops": dict(LAM.ops)}),
                       (({"f": ARITY},), {}), (({},), {})],
    TypeExpr: [(("->", (A, B)), {}), ((), {"ctor": "->", "args": (A, B)}),
               (("->", (B, A)), {}), (("A",), {})],
    TypeGrammar: [(({"A": 0},), {}), (({"A": 0},), {}), (({"A": 1},), {}), (({},), {})],
    TypedArity: [(([([A], B)], A), {}), (((((A,), B),), A), {}), (((), A), {}), (((), B), {})],
    OpSchema: [(("lam", ("s", "t"), SCHEMA.template), {}),
               (("lam",), {"metavars": ("s", "t"), "template": SCHEMA.template}),
               (("app", (), SCHEMA.template), {}), (("c", (), TypedArity((), A)), {})],
    TypedSignatureSchema: [((GRAMMAR, {"lam": SCHEMA}), {}), ((GRAMMAR,), {"schemas": {"lam": SCHEMA}}),
                           ((GRAMMAR, {}), {}), ((GRAMMAR,), {})],
    MetaVar: [((0,), {}), ((), {"index": 0}), ((1,), {}), ((2,), {})],
    ExplicitSubst: [((MetaVar(0), Assignment((Var(1),), 0)), {}),
                    ((MetaVar(0),), {"assign": Assignment((Var(1),), 0)}),
                    ((MetaVar(0), Assignment((), 1)), {}), ((Var(0), Assignment((), 0)), {})],
    Rule: [(BETA._values(), {}), (("beta", ARITY), {"left": BETA.left, "right": BETA.right}),
           (("eta", ARITY, BETA.left, BETA.right), {}), (("c", ARITY, Var(0), Var(0)), {})],
    EquationalTheory: [((LAM, (BETA,)), {}), ((LAM,), {"rules": (BETA,)}), ((LAM, ()), {}),
                       ((BindingSignature({}), ()), {})],
    CompiledPattern: [((((1, 0, "lam", 1),), (1,), "lam", 2, None), {}),
                      ((((1, 0, "lam", 1),), (1,)), {"head": "lam", "reach": 2, "fault": None}),
                      (((), (), None, 0, "bad pattern node 'x'"), {}),
                      (((), (-1,), None, math.inf, None), {})],
    CompiledMetaterm: [((((0, 1, 0),), (1,)), {}), ((), {"steps": ((0, 1, 0),), "moved": (1,)}),
                       (((), ()), {}), ((((1, 2, 0),), ()), {})],
    NormalizeResult: [((Var(0), False, 3), {}), ((Var(0),), {"exhausted": False, "steps": 3}),
                      ((Var(0), True, 3), {}), ((Var(1), False), {})],
    DeBruijnMonad: [((int, operator.add, operator.eq), {}), ((int,), {"substitution": operator.add,
                    "equal": operator.eq}), ((int, operator.sub, operator.eq), {}),
                    ((abs, operator.add), {})],
    DBAlgebra: [((Var, operator.add, operator.eq, {"f": len}), {}),
                ((Var, operator.add), {"interpretations": {"f": len}, "equal": operator.eq}),
                ((Var, operator.add, operator.eq, {"g": len}), {}), ((Var, operator.add), {})],
    LawResult: [(("monad", False, 7, 3, "t"), {}), (("monad", False, 7), {"case": 3, "counterexample": "t"}),
                (("monad", True, 7), {}), (("naturality", True, 1), {})],
    Report: [(([LawResult("m", True, 1)],), {}), ((), {"results": [LawResult("m", True, 1)]}),
             (([LawResult("m", False, 1)],), {}), ((), {})],
    TypedAssignment: [(({A: ((TVar(3, A),), 1), B: ((), 0)},), {}),
                      ((), {"components": {A: ((TVar(3, A),), 1)}}),
                      (({A: ((), 2)},), {}), ((), {})],
    TypedAlgebra: [((TVar, operator.add, operator.mul, operator.eq), {}),
                   ((TVar, operator.add), {"interpretation": operator.mul, "equal": operator.eq}),
                   ((TVar, operator.add, operator.sub, operator.eq), {}),
                   ((TVar, operator.add, operator.mul), {})],
    BTDerivation: [((), {}), ((), {}), ((), {}), ((), {})],
    BTLeaf: [((A,), {}), ((), {"ty": A}), ((B,), {}), ((arrow(A, B),), {})],
    BTNode: [((BTLeaf(A), BTLeaf(B)), {}), ((BTLeaf(A),), {"right": BTLeaf(B)}),
             ((BTLeaf(B), BTLeaf(A)), {}), ((BTLeaf(A), BTLeaf(A)), {})],
    SourceSpan: [((0, 3, 1, 0), {}), ((0, 3), {"line": 1, "column": 0}), ((0, 4, 1, 0), {}),
                 ((5, 6, 2, 1), {})],
    Diagnostic: [(("error", "bad", SPAN, (0, 1)), {}), (("error", "bad"), {"span": SPAN, "path": (0, 1)}),
                 (("error", "bad"), {}), (("warning", "odd"), {})],
    SignatureFile: [(({"l": LAM}, {}), {}), (({"l": LAM},), {"schemas": {}}),
                    (({}, {"s": TypedSignatureSchema(GRAMMAR)}), {}), (({}, {}), {})],
}


def _pair(cls, i):
    """The record and its twin from call ``i`` of ``cls``."""
    args, kwargs = CALLS[cls][i]
    return cls(*args, **kwargs), RECORD_TWINS[cls](*args, **kwargs)


def _outcome(fn):
    """``fn()``'s value, or its exception's class and message."""
    try:
        return fn()
    except Exception as e:
        return type(e), str(e)


def test_every_record_has_a_twin_and_calls():
    assert len(RECORD_TWINS) == 26
    assert set(CALLS) == set(RECORD_TWINS)


@pytest.mark.parametrize("cls", sorted(RECORD_TWINS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = RECORD_TWINS[cls]
    (r1, t1), (r2, t2), (r3, t3), (r4, t4) = (_pair(cls, i) for i in range(4))
    assert cls.__match_args__ == twin.__match_args__ == cls._fields
    for r, t in ((r1, t1), (r2, t2), (r3, t3)):  # r4 may show a default function
        assert repr(r) == repr(t)
        mine, theirs = _outcome(lambda: hash(r)), _outcome(lambda: hash(t))
        if type(theirs) is tuple:  # unhashable, the message naming the class
            theirs = theirs[0], theirs[1].replace(twin.__name__, cls.__name__)
        assert mine == theirs
    for (ra, ta), (rb, tb) in [((r1, t1), (r2, t2)), ((r1, t1), (r3, t3)), ((r2, t2), (r4, t4))]:
        assert (ra == rb) is (ta == tb)
        assert (ra != rb) is (ta != tb)
    if cls is not BTDerivation:  # no fields, so every BTDerivation() is equal
        assert r1 == r2 and r1 != r3
    assert r1 != t1 and (r1 == t1) is (t1 == r1) is False  # other classes
    # frozen, with the dataclass's error and message, or mutable alike
    for action in (lambda x: setattr(x, cls._fields[-1] if cls._fields else "x", 0),
                   lambda x: delattr(x, cls._fields[0] if cls._fields else "x")):
        rec, dat = _outcome(lambda: action(r3)), _outcome(lambda: action(t3))
        assert rec == dat
        assert rec is None if twin.__setattr__ is object.__setattr__ else rec[0] is FrozenInstanceError
    # a pickle round trip gives an equal record with the same repr; a twin,
    # which pickle cannot find under its original's name, goes through
    # deepcopy, the same reduction
    for r, t in ((r1, t1), (r2, t2)):
        back, twin_back = pickle.loads(pickle.dumps(r)), copy.deepcopy(t)
        assert type(back) is cls and back == r and twin_back == t
        assert repr(back) == repr(twin_back) == repr(r)


@pytest.mark.parametrize("cls", sorted(RECORD_TWINS, key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_record_constructor_defaults_match_the_twin(cls):
    """Called with its required fields alone, each record fills the rest as
    its twin does: the same values, a default factory's made anew, and a
    default function that acts alike."""
    twin = RECORD_TWINS[cls]
    args, kwargs = CALLS[cls][-1]
    r, t, again = cls(*args, **kwargs), twin(*args, **kwargs), cls(*args, **kwargs)
    for name in cls._fields:
        mine, theirs = getattr(r, name), getattr(t, name)
        if callable(mine) and name == "equal":
            assert mine(1, 1) is theirs(1, 1) is True and mine(1, 2) is theirs(1, 2) is False
        else:
            assert mine == theirs
        if isinstance(mine, (dict, list)) and not (args or kwargs):
            assert getattr(again, name) is not mine  # a factory's, made anew
    # calls no dataclass takes raise TypeError here too
    fields = cls._fields
    bad = [lambda: cls(*range(len(fields) + 1)), lambda: cls(not_a_field=1)]
    if fields:
        bad.append(lambda: cls(0, **{fields[0]: 0}))
    if cls is not TypedAssignment and any(f not in cls._defaults for f in fields):
        bad.append(lambda: cls())
    for call in bad:
        with pytest.raises(TypeError):
            call()


def test_signature_tables_are_slots_filled_by_the_constructor():
    sig = BindingSignature({"lam": BindingArity([1]), "app": BindingArity((0, 0))})
    assert sig.binders == {"lam": (1,), "app": (0, 0)}
    sch = TypedSignatureSchema(GRAMMAR, {"lam": SCHEMA})
    assert sch.arities == {} and sch.arities is sch.arities
    assert TypedSignatureSchema(GRAMMAR).arities is not sch.arities
    for record, name in ((sig, "binders"), (sch, "arities")):
        assert name in type(record).__slots__ and name not in type(record)._fields
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, {})
    # neither is compared, hashed or shown
    assert repr(sig) == f"BindingSignature(ops={sig.ops!r})"
    assert repr(sch) == f"TypedSignatureSchema(grammar={GRAMMAR!r}, schemas={sch.schemas!r})"
    assert pickle.loads(pickle.dumps(sig)).binders == sig.binders
    assert pickle.loads(pickle.dumps(sch)).arities == {}


def test_the_package_imports_no_dataclasses_module():
    """Records need no ``dataclasses`` at import: it is loaded only to raise
    ``FrozenInstanceError``."""
    code = ("import sys, debruijn, debruijn.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.split() == ["False", "False"]
