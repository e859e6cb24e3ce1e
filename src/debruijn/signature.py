"""Binding signatures: untyped arities and simply-typed arity schemas.

A binding arity records, per argument of an operation, how many variables
that argument binds.  A signature maps operation names to arities.  The
typed layer generalises arities to premises ``gamma |- tau`` over a small
grammar of type expressions, with operation *schemas* quantified over type
metavariables (so infinite operation families like the simply-typed lam/app
stay finitely presented).
"""

from __future__ import annotations

from functools import wraps
from gc import disable, enable, isenabled
from threading import RLock
from typing import Callable
from weakref import WeakValueDictionary


def gc_paused(walk: Callable) -> Callable:
    """``walk`` run with the cyclic collector paused and restored on every
    exit, return or raise.  Its output, immutable nodes built bottom-up,
    holds no cycle, so a collection during it would only rescan that output.
    A collector already off stays off: a caller's ``gc.disable()`` holds,
    and a nested walk does not switch it back on."""

    @wraps(walk)
    def paused(*args, **kwargs):
        if not isenabled():
            return walk(*args, **kwargs)
        try:
            disable()
            return walk(*args, **kwargs)
        finally:
            enable()
    return paused


class _RecordType(type):
    """:class:`Record`'s metaclass, which reads a class body's fields."""

    def __new__(meta, name, bases, ns, frozen=True):
        own = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in own if f in ns}
        ns.setdefault("__slots__", own)
        if not frozen:
            ns.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__, __hash__=None)
        cls = super().__new__(meta, name, bases, ns)
        cls._fields = cls.__match_args__ = cls._fields + own
        cls._defaults = {**cls._defaults, **defaults}
        return cls


class factory(staticmethod):
    """A field default made anew for each record: a ``default_factory``."""


class Slotted:
    """Base of the package's records and of the term nodes: slotted classes with a
    frozen dataclass's ``==``, ``hash``, ``repr``, pickling and ``FrozenInstanceError``
    over each class's ``_fields``, written once here with no generated code."""

    __slots__ = ()
    _fields, _defaults = (), {}

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError  # imported only to raise it
        raise FrozenInstanceError(f"cannot {verb} field '{name}'")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        """A frozen dataclass's repr, on a stack where trees lay out their arguments."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is str:
                out.append(node)
                continue
            leaf = not isinstance(node, Tree) or kind._key is not None
            head = ", ".join(f"{f}={getattr(node, f)!r}" for f in kind._fields[:None if leaf else -1])
            if leaf:
                out.append(f"{kind.__qualname__}({head})")
                continue
            out.append(f"{kind.__qualname__}({head}, args=(")
            args = node.args
            stack.append(",))" if len(args) == 1 else "))")
            for i in range(len(args) - 1, -1, -1):
                a = args[i]
                if kind._pairs:  # (binders, body)
                    stack += ")", a[1], f"({a[0]!r}, "
                else:
                    stack.append(a if isinstance(a, Tree) else repr(a))
                if i:
                    stack.append(", ")
        return "".join(out)

    def __reduce__(self):
        """The class and the fields; for a tree not a leaf, the flat postorder that
        :func:`_tree_of_flat` rebuilds, a pair per node: ``(None, leaf)``, ``(class,
        (*head, argument count or binders))``, or ``(True, k)`` for the k-th such, met again."""
        if not isinstance(self, Tree) or self._key is not None:
            return type(self), self._values()
        flat, seen, nodes = [], {}, [(self, False)]
        while nodes:
            node, done = nodes.pop()
            if done:
                seen[id(node)] = len(seen)
                shape = tuple([a[0] for a in node.args]) if node._pairs else len(node.args)
                flat += type(node), (*[getattr(node, f) for f in node._fields[:-1]], shape)
            elif not isinstance(node, Tree) or node._key is not None:
                flat += None, node
            elif id(node) in seen:
                flat += True, seen[id(node)]
            else:
                nodes.append((node, True))
                nodes += [(a[1] if node._pairs else a, False) for a in reversed(node.args)]
        return _tree_of_flat, (tuple(flat),)


class Record(Slotted, metaclass=_RecordType):
    """A class whose body declares its fields by annotations, as a
    dataclass's: they extend its bases' ``_fields`` and ``__match_args__``,
    are its ``__slots__`` unless it lists its own, and their values are its
    ``_defaults``; ``frozen=False`` makes it mutable and unhashable."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # a field given twice raises here
            given = dict(self._defaults, **dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or given.keys() ^ set(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
            args = [given[f]() if type(given[f]) is factory else given[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)


class Tree(Slotted):
    """The term nodes and the types: immutable, so a copy is the tree itself,
    with children in a last field, ``args``, as (binders, child) pairs where
    the class sets ``_pairs``; a class with a ``_key`` is a leaf.  Not a
    ``Record``, so ``isinstance`` against a tree class takes the fast path."""

    __slots__ = ()
    _key = None
    _pairs = False
    __copy__ = __deepcopy__ = lambda self, memo=None: self


def _tree_of_flat(flat: tuple) -> Tree:
    """The tree ``Slotted.__reduce__`` flattened, each node built by its class."""
    values, built = [], []
    for kind, x in zip(flat[::2], flat[1::2]):
        if kind is None or kind is True:
            values.append(built[x] if kind else x)
        else:
            *head, shape = x
            k = len(values) - (len(shape) if kind._pairs else shape)
            args = tuple(zip(shape, values[k:])) if kind._pairs else tuple(values[k:])
            values[k:] = [kind(*head, args)]
            built.append(values[-1])
    return values[0]


class BindingArity(Record):
    """Sequence of binder counts, one per argument."""

    binders: tuple[int, ...]

    def __init__(self, binders: tuple[int, ...]):
        object.__setattr__(self, "binders", tuple(binders))


def first_order_arity(a: BindingArity) -> int:
    """Number of arguments an operation of arity ``a`` takes."""
    return len(a.binders)


class BindingSignature(Record):
    """Finite map from operation name to binding arity; ``binders`` holds
    the binder counts by operation name, built with the signature."""

    __slots__ = ("ops", "binders")
    ops: dict[str, BindingArity]

    def __init__(self, ops: dict[str, BindingArity]):
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "binders", {name: a.binders for name, a in ops.items()})


def arity(*binders: int) -> BindingArity:
    return BindingArity(tuple(binders))


def make_signature(ops: dict[str, tuple[int, ...]]) -> BindingSignature:
    return BindingSignature({name: BindingArity(tuple(b)) for name, b in ops.items()})


def lambda_signature() -> BindingSignature:
    """The signature of untyped lambda calculus: lam binds one, app binds none."""
    return make_signature({"lam": (1,), "app": (0, 0)})


# --- type expressions ---------------------------------------------------


class TypeExpr(Tree):
    """Type expression: a constructor name applied to argument types.

    Base types are nullary constructors; ``->`` is the binary arrow.  Types are immutable
    and hash-consed, so ``==`` is identity: building one returns any live equal type."""

    __slots__ = ("ctor", "args", "_hash", "__weakref__")
    __match_args__ = _fields = ("ctor", "args")
    ctor: str
    args: tuple[TypeExpr, ...]
    __eq__ = object.__eq__

    def __new__(cls, ctor: str, args: tuple[TypeExpr, ...] = ()):
        key = (ctor, tuple(args))
        if (ty := _types.get(key)) is None:
            with _interning:  # so that two threads cannot both make it
                if (ty := _types.get(key)) is None:
                    ty = super().__new__(cls)
                    for name, value in zip(("ctor", "args", "_hash"), (*key, hash(key))):
                        object.__setattr__(ty, name, value)  # frozen
                    _types[key] = ty  # only once whole: the first get takes no lock
        return ty

    def __hash__(self):  # the dataclass hash, computed once
        return self._hash

    def __str__(self) -> str:
        """``ctor(arg, ...)``, or ``src -> dst`` with a parenthesized arrow
        on the left, on an explicit stack of types and text."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if type(node) is str:
                out.append(node)
            elif node.ctor == "->" and len(node.args) == 2:
                left, right = node.args
                if left.ctor == "->":
                    stack += right, ") -> ", left, "("
                else:
                    stack += right, " -> ", left
            elif node.args:
                stack.append(")")
                for a in reversed(node.args[1:]):
                    stack += a, ", "
                stack += node.args[0], f"{node.ctor}("
            else:
                out.append(node.ctor)
        return "".join(out)


_types, _interning = WeakValueDictionary(), RLock()  # the live types by (ctor, args)


def base(name: str) -> TypeExpr:
    return TypeExpr(name)


def arrow(src: TypeExpr, dst: TypeExpr) -> TypeExpr:
    return TypeExpr("->", (src, dst))


class TypeGrammar(Record):
    """Declared type constructors with fixed arities."""

    ctors: dict[str, int]

    def wellformed(self, ty: TypeExpr) -> list[str]:
        errs = []
        if ty.ctor not in self.ctors:
            errs.append(f"unknown type constructor '{ty.ctor}'")
        elif self.ctors[ty.ctor] != len(ty.args):
            errs.append(
                f"type constructor '{ty.ctor}' expects {self.ctors[ty.ctor]} "
                f"arguments, got {len(ty.args)}"
            )
        for a in ty.args:
            errs.extend(self.wellformed(a))
        return errs


# --- typed arities and schemas ------------------------------------------


class TypedArity(Record):
    """Premises ``(gamma_i |- tau_i)`` and a conclusion type."""

    premises: tuple[tuple[tuple[TypeExpr, ...], TypeExpr], ...]
    conclusion: TypeExpr

    def __init__(self, premises: tuple, conclusion: TypeExpr):
        object.__setattr__(self, "premises", tuple((tuple(g), t) for g, t in premises))
        object.__setattr__(self, "conclusion", conclusion)


class OpSchema(Record):
    """Operation schema: a typed arity template over type metavariables.

    Metavariables appear in the templates as nullary ``TypeExpr`` nodes
    whose constructor is listed in ``metavars``.
    """

    name: str
    metavars: tuple[str, ...]
    template: TypedArity


class TypedSignatureSchema(Record):
    """A type grammar and schemas; ``arities`` is ``term.op_arity``'s memo."""

    __slots__ = ("grammar", "schemas", "arities")
    grammar: TypeGrammar
    schemas: dict[str, OpSchema] = factory(dict)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "arities", {})


def _subst_type(ty: TypeExpr, env: dict[str, TypeExpr]) -> TypeExpr:
    if ty.ctor in env and not ty.args:
        return env[ty.ctor]
    return TypeExpr(ty.ctor, tuple(_subst_type(a, env) for a in ty.args))


def instantiate_schema(
    schema: OpSchema, type_args: tuple[TypeExpr, ...], grammar: TypeGrammar
) -> TypedArity:
    """Replace a schema's type metavariables by concrete type expressions."""
    if len(type_args) != len(schema.metavars):
        raise ValueError(
            f"schema '{schema.name}' expects {len(schema.metavars)} type "
            f"arguments, got {len(type_args)}"
        )
    for ta in type_args:
        errs = grammar.wellformed(ta)
        if errs:
            raise ValueError(f"non-ground type argument {ta}: {errs[0]}")
    env = dict(zip(schema.metavars, type_args))
    tmpl = schema.template
    return TypedArity(
        tuple(
            (tuple(_subst_type(t, env) for t in gamma), _subst_type(tau, env))
            for gamma, tau in tmpl.premises
        ),
        _subst_type(tmpl.conclusion, env),
    )


def stlc_schema(base_types: set[str]) -> TypedSignatureSchema:
    """Simply-typed lambda calculus over the given base types plus arrow."""
    if not base_types:
        raise ValueError("stlc_schema requires a non-empty set of base types")
    grammar = TypeGrammar({name: 0 for name in sorted(base_types)} | {"->": 2})
    s, t = base("s"), base("t")
    lam = OpSchema("lam", ("s", "t"), TypedArity((((s,), t),), arrow(s, t)))
    app = OpSchema("app", ("s", "t"), TypedArity((((), arrow(s, t)), ((), s)), t))
    return TypedSignatureSchema(grammar, {"lam": lam, "app": app})


def _valid_name(name: str) -> bool:
    return bool(name) and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c in "_'" for c in name
    )


def validate_signature(sig) -> list[str]:
    """Check well-formedness; returns a list of diagnostics (empty = ok).

    Accepts a ``BindingSignature`` or a ``TypedSignatureSchema``.
    """
    errs: list[str] = []
    if isinstance(sig, BindingSignature):
        for name, a in sig.ops.items():
            if not _valid_name(name):
                errs.append(f"invalid operation name '{name}'")
            if any(n < 0 for n in a.binders):
                errs.append(f"operation '{name}' has a negative binder count")
        return errs
    if isinstance(sig, TypedSignatureSchema):
        for ctor, n in sig.grammar.ctors.items():
            if n < 0:
                errs.append(f"type constructor '{ctor}' has negative arity")
        for name, schema in sig.schemas.items():
            if name != schema.name:
                errs.append(f"schema key '{name}' does not match name '{schema.name}'")
            if not _valid_name(name):
                errs.append(f"invalid operation name '{name}'")
            if len(set(schema.metavars)) != len(schema.metavars):
                errs.append(f"schema '{name}' repeats a metavariable")
            meta_grammar = TypeGrammar(
                sig.grammar.ctors | {m: 0 for m in schema.metavars}
            )
            for gamma, tau in schema.template.premises:
                for ty in (*gamma, tau):
                    errs.extend(
                        f"schema '{name}': {e}" for e in meta_grammar.wellformed(ty)
                    )
            errs.extend(
                f"schema '{name}': {e}"
                for e in meta_grammar.wellformed(schema.template.conclusion)
            )
        return errs
    errs.append(f"not a signature: {sig!r}")
    return errs
