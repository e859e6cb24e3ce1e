"""Binding signatures: untyped arities and simply-typed arity schemas.

A binding arity records, per argument of an operation, how many variables
that argument binds.  A signature maps operation names to arities.  The
typed layer generalises arities to premises ``gamma |- tau`` over a small
grammar of type expressions, with operation *schemas* quantified over type
metavariables (so infinite operation families like the simply-typed lam/app
stay finitely presented).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from threading import RLock
from weakref import WeakValueDictionary


@dataclass(frozen=True)
class BindingArity:
    """Sequence of binder counts, one per argument."""

    binders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "binders", tuple(self.binders))


def first_order_arity(a: BindingArity) -> int:
    """Number of arguments an operation of arity ``a`` takes."""
    return len(a.binders)


@dataclass(frozen=True)
class BindingSignature:
    """Finite map from operation name to binding arity."""

    ops: dict[str, BindingArity]

    @cached_property
    def binders(self) -> dict[str, tuple[int, ...]]:
        """Binder counts by operation name, built once per signature."""
        return {name: a.binders for name, a in self.ops.items()}


def arity(*binders: int) -> BindingArity:
    return BindingArity(tuple(binders))


def make_signature(ops: dict[str, tuple[int, ...]]) -> BindingSignature:
    return BindingSignature({name: BindingArity(tuple(b)) for name, b in ops.items()})


def lambda_signature() -> BindingSignature:
    """The signature of untyped lambda calculus: lam binds one, app binds none."""
    return make_signature({"lam": (1,), "app": (0, 0)})


# --- type expressions ---------------------------------------------------


@dataclass(frozen=True, eq=False, init=False, repr=False)
class TypeExpr:
    """Type expression: a constructor name applied to argument types.

    Base types are nullary constructors; ``->`` is the binary arrow.  Types are immutable
    and hash-consed, so ``==`` is identity: building one returns any live equal type."""

    ctor: str
    args: tuple[TypeExpr, ...] = ()

    def __new__(cls, ctor: str, args: tuple[TypeExpr, ...] = ()):
        key = (ctor, tuple(args))
        if (ty := _types.get(key)) is None:
            with _interning:  # so that two threads cannot both make it
                if (ty := _types.get(key)) is None:
                    ty = super().__new__(cls)
                    vars(ty).update(ctor=ctor, args=key[1], _hash=hash(key))  # frozen
                    _types[key] = ty  # only once whole: the first get takes no lock
        return ty

    def __hash__(self):  # the dataclass hash, computed once
        return self._hash

    def __reduce__(self):
        """Flat (constructor, argument count) pairs, preorder, last argument first."""
        flat, stack = [], [self]
        while stack:
            ty = stack.pop()
            flat += ty.ctor, len(ty.args)
            stack += ty.args
        return _type_of_flat, (tuple(flat),)

    def __repr__(self) -> str:
        """The frozen dataclass's repr, on an explicit stack of types and text."""
        out, stack = [], [self]
        while stack:
            ty = stack.pop()
            if type(ty) is str:
                out.append(ty)
            else:
                out.append(f"TypeExpr(ctor={ty.ctor!r}, args=(")
                stack.append(",))" if len(ty.args) == 1 else "))")
                for i in range(len(ty.args) - 1, -1, -1):
                    stack += (ty.args[i], ", ") if i else (ty.args[i],)
        return "".join(out)

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


def _type_of_flat(flat: tuple) -> TypeExpr:
    """The type ``TypeExpr.__reduce__`` flattened, its pairs read backwards."""
    done: list[TypeExpr] = []
    for i in range(len(flat) - 2, -1, -2):
        k = len(done) - flat[i + 1]
        done[k:] = [TypeExpr(flat[i], done[k:])]
    return done[0]


def base(name: str) -> TypeExpr:
    return TypeExpr(name)


def arrow(src: TypeExpr, dst: TypeExpr) -> TypeExpr:
    return TypeExpr("->", (src, dst))


@dataclass(frozen=True)
class TypeGrammar:
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


@dataclass(frozen=True)
class TypedArity:
    """Premises ``(gamma_i |- tau_i)`` and a conclusion type."""

    premises: tuple[tuple[tuple[TypeExpr, ...], TypeExpr], ...]
    conclusion: TypeExpr

    def __post_init__(self):
        object.__setattr__(
            self,
            "premises",
            tuple((tuple(g), t) for g, t in self.premises),
        )


@dataclass(frozen=True)
class OpSchema:
    """Operation schema: a typed arity template over type metavariables.

    Metavariables appear in the templates as nullary ``TypeExpr`` nodes
    whose constructor is listed in ``metavars``.
    """

    name: str
    metavars: tuple[str, ...]
    template: TypedArity


@dataclass(frozen=True)
class TypedSignatureSchema:
    grammar: TypeGrammar
    schemas: dict[str, OpSchema] = field(default_factory=dict)

    @cached_property
    def arities(self) -> dict:
        """``typed.op_arity``'s memo: arities by (name, type arguments)."""
        return {}


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
