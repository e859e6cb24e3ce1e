"""Nameless terms over a binding signature, untyped and simply typed.

A term is a variable index or an operation applied to arity-many
arguments.  Terms are immutable; equality is structural.  Traversals use
explicit stacks so that very deep terms do not hit the interpreter's
recursion limit.  The typed nodes ``TVar`` and ``TOp`` are here too, so
that one kernel, :func:`map_free_vars`, rebuilds both families.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from typing import Callable

from .signature import BindingSignature, Slotted, Tree, TypedArity, TypedSignatureSchema, TypeExpr
from .signature import first_order_arity, gc_paused, instantiate_schema


class Term(Tree):
    """Base of every node class: ``Var``, ``Op``, ``TVar`` and ``TOp`` here
    and the named ones of :mod:`debruijn.model`.  Nodes are trees, immutable and slotted, with
    the ``repr`` and pickling of :class:`~debruijn.signature.Slotted` and
    ``==`` and ``hash`` written once here, none recursive.  A variable
    class's ``_key`` reads its fields; an operation class has ``name``,
    ``type_args`` and ``args``, each argument a subterm, or a (binders,
    body) pair where the class sets ``_pairs``.  ``_hash`` is a memo: the
    first ``hash`` fills it for the node and each node below it without one."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        """Structural equality, with an explicit stack of operation pairs:
        deep terms compare without recursion.  Nameless operations of
        unequal bound differ at once; the arguments of each pair are
        compared in one inner loop, variables in place."""
        kind = self.__class__
        if other.__class__ is not kind:
            return NotImplemented
        if self is other:
            return True
        if kind is Var or kind is TVar:  # index first, then an interned type
            return self.index == other.index and (kind is Var or self.ty is other.ty)
        if kind._key is not None:
            return kind._key(self) == kind._key(other)
        stack = [(self, other)]
        pop, push = stack.pop, stack.append
        while stack:
            x, y = pop()
            if x.__class__ is Op:
                if x._top != y._top or x.name != y.name or len(x.args) != len(y.args):
                    return False
                for a, b in zip(x.args, y.args):
                    if a is b:
                        pass
                    elif type(a) is Var and type(b) is Var:
                        if a.index != b.index:
                            return False
                    elif type(a) is Op and type(b) is Op:
                        push((a, b))
                    elif a != b:  # a variable and an operation, or metavariables
                        return False
                continue
            if x.name != y.name or x.type_args != y.type_args or len(x.args) != len(y.args):
                return False
            pairs = x._pairs
            for a, b in zip(x.args, y.args):
                if pairs:  # (binders, body)
                    if a[0] != b[0]:
                        return False
                    a, b = a[1], b[1]
                if a is b:
                    pass
                elif a.__class__ is not b.__class__ or not isinstance(a, Term):
                    if a != b:
                        return False
                elif a.__class__ is TVar:  # typed variables: index, then interned type
                    if a.index != b.index or a.ty is not b.ty:
                        return False
                elif a._key is not None:  # variables of one class
                    if a._key(a) != a._key(b):
                        return False
                else:
                    push((a, b))
        return True

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not memoized yet
            return _memoize(self, Term._hash, Slotted.__hash__)  # reads the memos below


class Var(Term):
    __slots__ = ("index", "_top")
    __match_args__ = _fields = ("index",)
    _key = attrgetter("index")
    # Term's, also in Var's and Op's own dicts, where perfbench's tracer
    # wraps them
    __eq__, __hash__ = Term.__eq__, Term.__hash__

    def __new__(cls, index: int):
        """Interned for an ``int`` index in ``range(256)``, unless subclassed."""
        if type(index) is int and 0 <= index < _interned and cls is Var:
            return _vars[index]
        node = _VarBlank()
        node.index, node._top = index, index + 1
        node.__class__ = cls
        return node


class Op(Term):
    """An operation node.  ``_top`` bounds its indices: 1 + the largest one
    below it, bound or free; 0 for none; ``inf`` if an argument is not a term.
    ``_sig`` and ``_sup`` memoize :func:`support` under the signature
    object ``_sig``; only :func:`support` writes them."""

    __slots__ = ("name", "args", "_sig", "_sup", "_top")
    __match_args__ = _fields = ("name", "args")
    type_args = ()
    __eq__, __hash__ = Term.__eq__, Term.__hash__

    def __new__(cls, name: str, args: tuple[Term, ...]):
        node = _OpBlank()
        node.name, node.args, node._sig = name, tuple(args), None
        top = 0
        try:
            for a in node.args:
                if a._top > top:
                    top = a._top
        except AttributeError:  # not a term: left to the walks to reject
            top = inf
        node._top = top
        node.__class__ = cls
        return node


def _blank(kind: type) -> type:
    """``kind``'s layout without the frozen ``__setattr__`` and
    ``__delattr__`` (both, as they share one type slot).  A node is filled
    on one of these, whose slots take the interpreter's fast stores (a slot
    descriptor's ``__set__`` costs about five times as much), and then
    given its class, which must add no slots to ``kind``'s."""
    return type(f"_{kind.__name__}Blank", kind.__bases__, {
        "__slots__": kind.__slots__,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__,
    })


_VarBlank, _OpBlank = _blank(Var), _blank(Op)
_op_sig, _op_sup = Op._sig.__set__, Op._sup.__set__  # support's memo of a built node
_interned = 0
_vars = tuple(map(Var, range(256)))  # Var(i) reads this table from here on
_interned = len(_vars)


class TypedTerm(Term):
    """Base of the typed node classes."""

    __slots__ = ()


class TVar(TypedTerm):
    __slots__ = ("index", "ty")
    __match_args__ = _fields = ("index", "ty")
    _key = attrgetter("index", "ty")  # == compares it in place

    def __init__(self, index: int, ty: TypeExpr):
        _tvar_index(self, index)
        _tvar_ty(self, ty)


class TOp(TypedTerm):
    __slots__ = ("name", "type_args", "args")
    __match_args__ = _fields = ("name", "type_args", "args")

    def __init__(self, name: str, type_args: tuple[TypeExpr, ...], args: tuple[TypedTerm, ...]):
        _top_name(self, name)
        _top_type_args(self, tuple(type_args))
        _top_args(self, tuple(args))


# typed nodes are frozen: their slots are set through the slot descriptors
_tvar_index, _tvar_ty, _top_name, _top_type_args, _top_args = (
    d.__set__ for d in (TVar.index, TVar.ty, TOp.name, TOp.type_args, TOp.args))


class TypecheckError(Exception):
    """A typing fault at ``path``, the argument indices from the root.  The
    message spells out a path of up to 8 steps, else its depth and last 8."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        if len(path) > 8:
            message += f" (at depth {len(path)}, path ending {list(path[-8:])})"
        elif path:
            message += f" (at {list(path)})"
        super().__init__(message)
        self.path = path


def op_arity(schema: TypedSignatureSchema, name: str, type_args: tuple) -> TypedArity:
    """The arity of ``name`` at ``type_args``, or a ``TypecheckError`` for
    an unknown operation or ill-formed type arguments.  An arity is
    instantiated once per schema; a failure is not memoized."""
    ar = schema.arities.get((name, type_args))
    if ar is None:
        if name not in schema.schemas:
            raise TypecheckError(f"unknown operation schema '{name}'")
        try:
            ar = instantiate_schema(schema.schemas[name], type_args, schema.grammar)
        except ValueError as e:
            raise TypecheckError(str(e)) from None
        schema.arities[name, type_args] = ar
    return ar


@gc_paused
def _memoize(t: Term, memo, value: Callable):
    """``value(node)`` stored in the slot ``memo`` of ``t`` and of each node
    below it without one, children first, so that ``value`` may read the
    children's memos: one walk with an explicit stack.  A variable is
    stored when it is reached, at least as cheap as testing its slot; an
    argument that is not a term is left to ``value``."""
    name, put = memo.__name__, memo.__set__
    nodes, done = [t], [False]  # done: the node's arguments are memoized
    while nodes:
        node = nodes.pop()
        kind = type(node)
        if done.pop() or kind._key is not None:
            put(node, value(node))
            continue
        if getattr(node, name, None) is not None:  # a probe that raises nothing
            continue  # memoized, and so is everything below it
        nodes.append(node)
        done.append(True)
        for a in node.args:
            if kind._pairs:
                a = a[1]
            if isinstance(a, Term):
                nodes.append(a)
                done.append(False)
    return memo.__get__(t)


def wellformed(sig: BindingSignature, t: Term) -> list[str]:
    """Arity-check every node; returns diagnostics with node paths.  This
    walk only checks; at the first fault, :func:`_faults` walks again and
    spells out the path of each fault it reports."""
    arities = sig.binders
    nodes = [t]
    pop, push = nodes.pop, nodes.extend
    while nodes:
        node = pop()
        if type(node) is Op:
            ns = arities.get(node.name)
            if ns is None or len(ns) != len(node.args):
                return _faults(sig, t)
            push(node.args)
        elif type(node) is not Var or node.index < 0:
            return _faults(sig, t)
    return []


def _faults(sig: BindingSignature, t: Term) -> list[str]:
    """The diagnostics of :func:`wellformed`, left to right."""

    def path(link) -> list[int]:  # link = (parent link, position), root ()
        out = []
        while link:
            link, i = link
            out.append(i)
        return out[::-1]

    errs: list[str] = []
    stack: list[tuple[Term, tuple]] = [(t, ())]
    while stack:
        node, link = stack.pop()
        match node:
            case Var(index):
                if index < 0:
                    errs.append(f"negative variable index at {path(link)}")
            case Op(name, args):
                if name not in sig.ops:
                    errs.append(f"unknown operation '{name}' at {path(link)}")
                    continue
                want = first_order_arity(sig.ops[name])
                if len(args) != want:
                    errs.append(
                        f"operation '{name}' expects {want} arguments, "
                        f"got {len(args)} at {path(link)}"
                    )
                    continue
                for i, a in enumerate(args):
                    stack.append((a, (link, i)))
            case _:
                errs.append(f"not a term at {path(link)}: {node!r}")
    errs.reverse()
    return errs


def fold_nodes(t, on_var: Callable, on_op: Callable, var: type = Var, op: type = Op):
    """Bottom-up structural recursion over the nodes of ``t``, untyped or
    typed: ``var`` and ``op`` are its node classes, an ``op`` node holding
    its subterms in ``args``.  ``on_var(node)`` handles leaves;
    ``on_op(node, values)`` receives the already-folded argument values as
    a list.  A node of neither class raises ``TypeError``."""
    nodes, done, values = [t], [False], []  # done: the node's arguments are folded
    while nodes:
        node = nodes.pop()
        if done.pop():
            k = len(values) - len(node.args)
            folded = values[k:]
            del values[k:]
            values.append(on_op(node, folded))
        elif type(node) is var:
            values.append(on_var(node))
        elif type(node) is not op:
            raise TypeError(f"not a term: {node!r}")
        else:
            nodes.append(node)
            done.append(True)
            args, i = node.args, len(node.args)
            while i:
                i -= 1
                nodes.append(args[i])
                done.append(False)
    return values[0]


def fold(sig: BindingSignature, var_case: Callable, op_case: Callable, t: Term):
    """Bottom-up structural recursion.

    ``var_case(index)`` handles leaves; ``op_case(name, values)`` receives
    the already-folded argument values as a list.
    """
    return fold_nodes(t, lambda v: var_case(v.index), lambda o, vs: op_case(o.name, vs))


@gc_paused
def map_free_vars(t: Term, sig, on_free: Callable | int | tuple, slot: dict | None = None) -> Term:
    """Rebuild ``t``, replacing each free variable occurrence.

    ``on_free`` takes one of three forms.  A callable is called as
    ``on_free(depth, index)`` for every ``Var(index)`` under ``depth``
    accumulated binders with ``index >= depth``; bound occurrences are
    kept as is.  An ``int`` k is the shift by k, ``lambda depth, index:
    Var(index + k)``, applied with no call.  An assignment, a ``(prefix,
    tail_shift)`` pair such as :class:`~debruijn.subst.Assignment`, is
    applied with no call as well: ``index - depth = j`` below ``len(prefix)``
    gets ``prefix[j]`` shifted by ``depth``, computed once per ``(j, depth)``
    and kept in a memo for the walk, and a larger index moves by
    ``tail_shift - len(prefix)``.

    Given a table ``slot``, the walk is typed, over ``TVar``/``TOp`` under
    a schema ``sig``: a depth is a vector whose entry ``slot[ty]`` counts
    the binders of type ``ty`` (a type met first takes the next slot), and
    argument i of an operation is deeper by premise i's context.  The
    callable ``on_free(node, s, j, depth)`` gets each ``TVar`` whose index
    less ``depth[s]``, with ``s`` its type's slot, is ``j >= 0``.

    Sharing: a subterm (``t`` too) in which no free variable changed is
    returned itself, not a copy.  An untyped subterm closed at its depth,
    by its bound ``_top`` (binder counts are >= 0) or by a :func:`support`
    memo under ``sig``, is returned unwalked: an unknown operation or
    arity in it goes unreported (:func:`wellformed` checks those).  A
    walked node not of the walk's family raises ``TypeError``; a wrong
    argument count ``ValueError``; an unknown operation ``KeyError``, or
    :class:`TypecheckError` in a typed walk.
    """
    prefix, by, images, var, op, depth, ns = (), None, None, Var, Op, 0, (0,)
    if slot is not None:  # the untyped classes are None: an untyped node is not a term here
        var, op, depth, ns = None, None, (), ((),)
    elif type(on_free) is int:
        by = on_free
    elif isinstance(on_free, tuple):
        (prefix, by), images = on_free, {}
        by -= len(prefix)
    binders, q = sig.binders if slot is None else None, len(prefix)
    # the current operation in locals, its depth, binder counts, next argument,
    # argument count and whether an argument changed; the open ones on frames
    # above a root frame around t.  Typed, depth is () and counts are vectors: () + v is v
    frames, values = [], []
    push = values.append
    node, args, i, m, changed = None, (t,), 0, 1, False
    while True:
        while i < m:
            a, n = args[i], depth + ns[i]
            i += 1
            if type(a) is var:
                j = a.index - n
                if j >= 0:
                    if j < q:
                        new = images.get((j, n))
                        if new is None:
                            new = images[j, n] = _shift_term(prefix[j], n, sig)
                    else:
                        new = on_free(n, a.index) if by is None else Var(a.index + by)
                    if type(new) is not Var or new.index != a.index:
                        a, changed = new, True
                push(a)
                continue
            if type(a) is op:
                if a._top <= n or a._sig is sig and a._sup <= n:
                    push(a)
                    continue
                kids, counts = a.args, binders[a.name]
            elif type(a) is TVar and slot is not None:
                s = slot.setdefault(a.ty, len(slot))
                j = a.index - (n[s] if s < len(n) else 0)
                if j >= 0:
                    new = on_free(a, s, j, n)
                    if type(new) is not TVar or new.index != a.index or new.ty is not a.ty:
                        a, changed = new, True
                push(a)
                continue
            elif type(a) is TOp and slot is not None:
                kids, counts = a.args, []
                for gamma, _ in op_arity(sig, a.name, a.type_args).premises:
                    d = list(n)  # n plus the count of each slot's type in gamma
                    for ty in gamma:
                        s = slot.setdefault(ty, len(slot))
                        d += [0] * (s + 1 - len(d))
                        d[s] += 1
                    counts.append(tuple(d) if gamma else n)
                n = ()
            else:
                raise TypeError(f"not a {'' if slot is None else 'typed '}term: {a!r}")
            frames.append((node, depth, args, ns, i, m, changed))
            node, depth, args, ns, i, m, changed = a, n, kids, counts, 0, len(kids), False
            if len(ns) != m:  # a typed walk raises a strict zip's ValueError
                tuple(zip(args, ns, strict=slot is not None))
                raise ValueError(f"operation '{a.name}' takes {len(ns)} arguments, got {m}")
        if node is None:
            return values[0]
        if m == 1:  # rebuilt in place; op is None in a typed walk
            if changed:
                node = (Op(node.name, (values[-1],)) if op
                        else TOp(node.name, node.type_args, (values[-1],)))
            values[-1] = node
        else:
            k = len(values) - m
            if changed:
                node = (Op(node.name, values[k:]) if op
                        else TOp(node.name, node.type_args, values[k:]))
            del values[k:]
            push(node)
        node, depth, args, ns, i, m, was = frames.pop()
        changed = was or changed


def _shift_term(t: Term, by: int, sig: BindingSignature) -> Term:
    """``t`` renamed by the shift ``by``; a closed term or a variable needs no walk."""
    if by == 0 or type(t) is Op and (t._top == 0 or t._sig is sig and t._sup == 0):
        return t
    if type(t) is Var and t.index >= 0:
        return Var(t.index + by)
    return map_free_vars(t, sig, by)


def support(t: Term, sig: BindingSignature) -> int:
    """Least N such that substitution only depends on the first N indices.

    The support of each operation node is memoized on the node under the
    identity of ``sig``; a node memoized under ``sig`` is not walked again,
    so a term built around memoized subterms costs only its new nodes.
    A node memoized under another signature is recomputed and overwritten.
    """
    binders = sig.binders
    nodes, done, values = [t], [False], []  # done: the node's arguments are measured
    while nodes:
        node = nodes.pop()
        if done.pop():
            ns = binders[node.name]
            k = len(values) - len(ns)
            s = 0
            for v, n in zip(values[k:], ns):
                if v - n > s:
                    s = v - n
            del values[k:]
            _op_sup(node, s)
            _op_sig(node, sig)
            values.append(s)
        elif type(node) is Var:
            values.append(node.index + 1)
        elif type(node) is not Op:
            raise TypeError(f"not a term: {node!r}")
        elif node._sig is sig:
            values.append(node._sup)
        else:
            ns, args, i = binders[node.name], node.args, len(node.args)
            if len(ns) != i:
                raise ValueError(f"operation '{node.name}' takes {len(ns)} arguments, got {i}")
            nodes.append(node)
            done.append(True)
            while i:
                i -= 1
                nodes.append(args[i])
                done.append(False)
    return max(values[0], 0)  # a root Var(i) with i < 0 is not free
