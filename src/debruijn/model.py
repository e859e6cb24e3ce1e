"""Abstract De Bruijn monad / algebra contracts, law fuzzing, and the
named-term oracle model.

A model is a carrier with a variables map, a substitution map, and (for
algebras) one interpretation per signature operation.  The laws are not
assumed: :func:`check_monad_laws`, :func:`check_binding_conditions` and
:func:`check_morphism` probe them on sampled inputs and report
counterexamples as data.

The named-term model is an independent implementation of substitution
(classical simultaneous capture-avoiding substitution on terms with
explicit binder names, compared up to alpha-equivalence).  Folding the
nameless term model into it yields the nameless-to-named conversion.
One named layer serves typed named terms (``TNVar``/``TNOp``) and the
untyped ones, its one-sort case.
"""

from __future__ import annotations

import random
import re
from functools import partial
from heapq import heappop, heappush
from itertools import islice, repeat
from operator import attrgetter
from typing import Any, Callable, Optional

from .signature import BindingSignature, Record, TypeExpr, factory
from .subst import IDENTITY, NAT, Assignment, at, compose_with, lift_with, subst
from .term import Term, Var, Op, _memoize, fold, gc_paused


# A model's assignments are the one finite ``Assignment``, with the model's
# variables map as the carrier's ``var``.
class DeBruijnMonad(Record, frozen=False):
    """Carrier with variables and substitution maps plus decidable equality."""

    variables: Callable[[int], Any]
    substitution: Callable[[Any, Assignment], Any]
    equal: Callable[[Any, Any], bool] = lambda a, b: a == b


class DBAlgebra(DeBruijnMonad, frozen=False):
    """A De Bruijn monad with one interpretation per signature operation.

    Each interpretation takes the list of argument elements.
    """

    interpretations: dict[str, Callable[[list], Any]] = factory(dict)


def model_lift_n(m: DeBruijnMonad, a: Assignment, n: int) -> Assignment:
    """The n-fold lift: i -> v(i) for i < n, n + j -> a(j)[shift by n], in
    the model's own substitution."""
    return lift_with(a, n, m.variables, lambda x: m.substitution(x, Assignment((), n)))


def model_compose(m: DeBruijnMonad, f: Assignment, g: Assignment) -> Assignment:
    """n -> f(n)[g]."""
    return compose_with(f, g, m.variables, lambda x: m.substitution(x, g))


# --- builtin models -----------------------------------------------------


def term_model(sig: BindingSignature) -> DBAlgebra:
    """The term carrier with structural substitution and constructors."""

    def substitution(t: Term, a: Assignment) -> Term:
        return subst(t, a, sig)

    def interp(name: str):
        return lambda args: Op(name, tuple(args))

    return DBAlgebra(
        variables=Var,
        substitution=substitution,
        interpretations={name: interp(name) for name in sig.ops},
    )


def nat_monad() -> DeBruijnMonad:
    """The naturals: variables are the identity, substitution is evaluation."""
    return DeBruijnMonad(variables=NAT, substitution=lambda x, a: at(a, x, NAT))


# --- named terms --------------------------------------------------------


class NamedTerm(Term):
    """Base of the named node classes, on the nodes' slotted frozen base,
    whose arguments are (binders, body) pairs.

    A variable's key (``_key``) is its name, or its (name, type) pair when
    typed; a binder declaration is a key, and it binds exactly the
    variables of its key.  ``free``, the keys free in a node, reads
    ``_free``, a memo like ``_hash``, filled on first read for the node and
    each node below it that lacks one; it takes no part in ==, hash or repr.
    The hooks on the operation classes are all that tells sorts apart."""

    __slots__ = ("_free",)
    _pairs = True

    @property
    def free(self) -> frozenset:
        try:
            return self._free
        except AttributeError:  # not memoized yet
            return _memoize(self, NamedTerm._free, _free_of)


class NVar(NamedTerm):
    __slots__ = ("name",)
    __match_args__ = _fields = ("name",)
    _key = attrgetter("name")

    def __init__(self, name: str):
        _nvar_name(self, name)


class NOp(NamedTerm):
    # one (binder names, body) pair per argument; binders listed
    # outermost-first, so the last binder is nameless index 0
    __slots__ = ("name", "args")
    __match_args__ = _fields = ("name", "args")
    type_args = ()

    def __init__(self, name: str, args: tuple[tuple[tuple[str, ...], NamedTerm], ...]):
        for _, body in args:
            if not isinstance(body, NamedTerm):
                raise TypeError(body)
        _nop_name(self, name)
        _nop_args(self, args)

    # one sort, None, and a key is its name; split yields (key, name, sort)
    key_names = staticmethod(frozenset)
    group_sorts = len
    split = staticmethod(lambda keys: zip(keys, keys, repeat(None)))
    var = staticmethod(lambda name, sort: NVar(name))
    decls = staticmethod(lambda names, sorts: tuple(names))


class TNVar(NamedTerm):
    __slots__ = ("name", "ty")
    __match_args__ = _fields = ("name", "ty")
    _key = attrgetter("name", "ty")

    def __init__(self, name: str, ty: TypeExpr):
        _tnvar_name(self, name)
        _tnvar_ty(self, ty)


class TNOp(NamedTerm):
    # per argument: (binder declarations ordered along the premise
    # context, body); a binder declaration is a (name, type) pair
    __slots__ = ("name", "type_args", "args")
    __match_args__ = _fields = ("name", "type_args", "args")

    def __init__(
        self,
        name: str,
        type_args: tuple[TypeExpr, ...],
        args: tuple[tuple[tuple[tuple[str, TypeExpr], ...], NamedTerm], ...],
    ):
        for _, body in args:
            if not isinstance(body, NamedTerm):
                raise TypeError(body)
        _tnop_name(self, name)
        _tnop_type_args(self, type_args)
        _tnop_args(self, args)

    key_names = staticmethod(lambda keys: {n for n, _ in keys})
    group_sorts = staticmethod(lambda decls: [ty for _, ty in decls])
    split = staticmethod(lambda keys: ((key, *key) for key in keys))
    var = TNVar
    decls = staticmethod(lambda names, sorts: tuple(zip(names, sorts)))


# named nodes are frozen: their slots are set through the slot descriptors
_nvar_name, _nop_name, _nop_args, _tnvar_name, _tnvar_ty, _tnop_name, _tnop_type_args, _tnop_args = (
    d.__set__ for d in (NVar.name, NOp.name, NOp.args, TNVar.name, TNVar.ty,
                        TNOp.name, TNOp.type_args, TNOp.args))


def _free_of(t: NamedTerm) -> frozenset:
    """The keys free in ``t``, from its arguments' memos: the union over
    ``(binders, body)`` pairs of the body's free set minus its binders; a
    lone body's set is shared when it binds none of it."""
    if t._key is not None:
        return frozenset((t._key(t),))
    sets = []
    for binders, body in t.args:
        fv = body._free
        if not fv.isdisjoint(binders):
            fv = fv.difference(binders)
        sets.append(fv)
    if len(sets) == 1:
        return sets[0]
    return frozenset().union(*sets)


def free_names(t: NamedTerm) -> frozenset:
    if not isinstance(t, NamedTerm):
        raise TypeError(t)
    return t.free


def _bind(env: dict, keys, depth: int) -> list:
    """Bind ``keys`` at depths ``depth``, ``depth + 1``, ...; the entries
    they shadow, for :func:`_restore`."""
    saved = []
    for i, x in enumerate(keys):
        saved.append((x, env.get(x)))
        env[x] = depth + i
    return saved


def _restore(env: dict, saved: list) -> None:
    for x, old in reversed(saved):
        if old is None:
            del env[x]
        else:
            env[x] = old


def alpha_eq(a: NamedTerm, b: NamedTerm) -> bool:
    """Equality of named terms up to consistent renaming of binders; typed
    terms must also agree on every type.

    One walk with an explicit stack of items: a pair of terms, a pair of
    arguments (binders, body) whose binders are bound when it is taken, or
    the bindings to undo once that body is done."""
    # key -> binder depth on each side, updated in place and restored
    # after each body; a mismatch ends the whole comparison unrestored
    env_a: dict = {}
    env_b: dict = {}
    stack: list = [(a, b, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        x, y, depth = pop()
        kind = type(x)
        if x is None:  # y holds the shadowed entries of both sides
            _restore(env_a, y[0])
            _restore(env_b, y[1])
        elif kind is tuple:  # (binders, body) on each side
            (bx, tx), (by, ty) = x, y
            if bx:
                push((None, (_bind(env_a, bx, depth), _bind(env_b, by, depth)), 0))
                depth += len(bx)
            push((tx, ty, depth))
        elif kind is not type(y):
            return False
        elif kind is NVar or kind is TNVar:
            # a bound key's type is its binder's, which the sides share
            kx, ky = kind._key(x), kind._key(y)
            ia, ib = env_a.get(kx), env_b.get(ky)
            if ia != ib or ia is None and kx != ky:
                return False
        else:
            xs, ys = x.args, y.args
            if x.name != y.name or x.type_args != y.type_args or len(xs) != len(ys):
                return False
            for (bx, _), (by, _) in zip(xs, ys):
                if x.group_sorts(bx) != x.group_sorts(by):
                    return False
            stack.extend(reversed(list(zip(xs, ys, repeat(depth)))))
    return True


def _letter_supply():
    """The binder names a, ..., z, a1, ..., w1, y1, z1, a2, ...: the names
    of the free-variable form x<i> (x1, x2, ...) are skipped, so no binder
    that the named model, its fold or :func:`named_walk` picks shares a
    name with a free variable."""
    i = 0
    while True:
        for c in "abcdefghijklmnopqrstuvwxyz":
            if not i:
                yield c
            elif c != "x":
                yield f"{c}{i}"
        i += 1


# the letter supply's names drawn so far, grown on demand by _more_names
_LETTERS = _letter_supply()
_NAMES: tuple[str, ...] = ()


def _more_names() -> tuple[str, ...]:
    """The supply so far, after drawing at least 26 more names from it."""
    global _NAMES
    _NAMES += tuple(islice(_LETTERS, max(26, len(_NAMES))))
    return _NAMES


def fresh_names(count: int, avoid) -> list[str]:
    """First ``count`` names of the letter supply not in ``avoid``."""
    out: list[str] = []
    if not count:
        return out
    names, start = _NAMES, 0
    while True:
        # the supply never repeats a name, so ``avoid`` needs no additions
        for name in islice(names, start, None):
            if name not in avoid:
                out.append(name)
                if len(out) == count:
                    return out
        names, start = _more_names(), len(names)


def named_subst(t: NamedTerm, mapping: dict) -> NamedTerm:
    """Simultaneous capture-avoiding substitution with deterministic
    fresh binder names; ``mapping`` sends keys to terms.

    A binder is renamed when its key is free in an image entering its
    scope, to a name free neither in its body nor in any such image.

    Sharing: a subterm (``t`` too) in which no key of ``mapping`` is free
    is returned itself, and only the entries free in a body are passed
    down into it.

    One walk with an explicit stack of (node, its entries, None) items
    and, once a node's arguments are pushed, (node, None, their binder
    groups) to rebuild it from their values."""
    stack: list = [(t, mapping, None)]
    values: list = []
    while stack:
        node, entries, groups = stack.pop()
        if groups is not None:  # the arguments' values are done
            k = len(values) - len(groups)
            args = tuple(zip(groups, values[k:]))
            del values[k:]
            values.append(
                NOp(node.name, args) if type(node) is NOp else TNOp(node.name, node.type_args, args)
            )
            continue
        if entries.keys().isdisjoint(node.free):
            values.append(node)
            continue
        if node._key is not None:  # a variable
            values.append(entries[node._key(node)])
            continue
        groups, bodies = [], []
        for binders, body in node.args:
            fv = body.free
            relevant = {x: v for x, v in entries.items() if x in fv and x not in binders}
            if binders and relevant:
                captured = frozenset().union(*(v.free for v in relevant.values()))
                if not captured.isdisjoint(binders):
                    # rename the captured binders at once, to names free in
                    # neither the body nor any image and bound nowhere in the group
                    avoid = node.key_names(captured.union(fv, binders))
                    zs = iter(fresh_names(sum(map(captured.__contains__, binders)), avoid))
                    new_names, sorts = [], []
                    for b, z, sort in node.split(binders):
                        if b in captured:
                            z = next(zs)
                            relevant[b] = node.var(z, sort)
                        new_names.append(z)
                        sorts.append(sort)
                    binders = node.decls(new_names, sorts)
            groups.append(binders)
            bodies.append((body, relevant, None))
        stack.append((node, None, groups))
        stack += reversed(bodies)
    return values[0]


_SUPPLY_RE = re.compile(r"^x(0|[1-9][0-9]*)$")


def default_supply(n: int) -> str:
    return f"x{n}"


def default_supply_index(name: str) -> Optional[int]:
    m = _SUPPLY_RE.match(name)
    return int(m.group(1)) if m else None


def supply_subst(op: type, t: NamedTerm, component) -> NamedTerm:
    """``t`` with each free supply name of index i at sort s replaced by
    the image of i under the assignment ``component(s)``."""
    mapping = {}
    for key, name, s in op.split(t.free):
        idx = default_supply_index(name)
        if idx is not None:
            mapping[key] = at(component(s), idx, lambda n, s=s: op.var(default_supply(n), s))
    return named_subst(t, mapping)


def bind_fresh(op: type, head: tuple, arg_sorts, args) -> NamedTerm:
    """The ``op`` node with fields ``head`` over ``args``, each under fresh
    binders of its ``arg_sorts`` (outermost first): index i of sort s is
    bound by the i-th binder of sort s counted from the innermost."""
    pieces = []
    for sorts, e in zip(arg_sorts, args):
        if not sorts:
            pieces.append(((), e))
            continue
        # index i >= n of a sort with n binders here is free above them, as
        # x<i - n>, a name no binder takes: the binders avoid only the body's
        zs = fresh_names(len(sorts), op.key_names(e.free))
        inner_first: dict = {}
        for z, s in zip(reversed(zs), reversed(sorts)):
            inner_first.setdefault(s, []).append(z)
        mapping = {}
        for key, name, s in op.split(e.free):
            idx = default_supply_index(name)
            if idx is not None:
                inner = inner_first.get(s, ())
                z = inner[idx] if idx < len(inner) else default_supply(idx - len(inner))
                mapping[key] = op.var(z, s)
        pieces.append((op.decls(zs, sorts), named_subst(e, mapping)))
    return op(*head, tuple(pieces))


def named_model(sig: BindingSignature) -> DBAlgebra:
    """Named-term model: variables are supply names, substitution is the
    classical capture-avoiding one, interpretations attach fresh binders."""
    return DBAlgebra(
        variables=lambda n: NVar(default_supply(n)),
        substitution=lambda t, a: supply_subst(NOp, t, lambda s: a),
        equal=alpha_eq,
        interpretations={
            name: partial(bind_fresh, NOp, (name,), [(None,) * k for k in a.binders])
            for name, a in sig.ops.items()
        },
    )


# --- folds and conversions ----------------------------------------------


def initial_fold(sig: BindingSignature, algebra: DBAlgebra, t: Term):
    """Evaluate a term in a model: the unique structure map out of the
    term model, restricted to ``t``."""
    return fold(
        sig,
        algebra.variables,
        lambda name, args: algebra.interpretations[name](args),
        t,
    )


@gc_paused
def named_walk(
    t, var: type, op: type, arg_sorts: Callable, var_sort: Callable, build: Callable, named: type
) -> NamedTerm:
    """The term that the fold of ``t`` into the named model gives, equal to
    it under ``==``, binder names included.

    ``t`` has node classes ``var`` and ``op``; ``arg_sorts(node)`` lists each
    argument's binder sorts, outermost first, and ``var_sort(v)`` is a
    variable's sort.  ``build(node, args)`` makes the named node, and the
    hooks ``var`` and ``decls`` of ``named`` its variables and binders.

    The fold names the binder group of an argument (:func:`bind_fresh`) once
    its body is named, and its :func:`named_subst` renames a group inside
    that body whose binder an image would capture, instead of the image.
    Each binder and each free (sort, root index) here is an identity, and
    ``free[g]`` holds the identities free in the body of group ``g``.  A
    capture at ``h`` in the pass of ``g`` needs a binder of ``h`` with the
    image name of an identity free in ``h``'s body: a binder of ``g`` or of
    a group renamed in the same pass, as no binder takes a free variable's
    name.  So each pass visits, in preorder, only the users of ``g`` (the
    groups whose body refers to its binders) and of each group it renames,
    and renames exactly as ``named_subst`` does.  The named term is built
    once, at the end.

    The cost is linear in the size of ``t``, plus, for each renaming the
    fold makes, the free set of the renamed group's body.
    Renamings can cascade: down a chain of groups of 50 binders, each
    using the last binder of the group above, every pass renames a binder
    in every group below it, so the cost is quadratic in the chain's
    length, as the fold's own renaming work is."""
    env: dict = {}  # sort -> identities of the binders in scope, innermost last
    sorts, owner, names = [], [], []  # per identity
    free_ids: dict = {}  # (sort, index at the root) -> identity of a free variable
    single: dict = {}  # identity -> frozenset of it
    # per group, numbered in preorder: first identity, binder sorts,
    # identities free in its body
    gfirst, gsorts, free = [], [], []
    users: dict = {}
    post: list = []  # an identity per variable, (node, group per argument) per operation
    frames: list = []
    node = t
    while True:
        if type(node) is var:
            s, i = var_sort(node), node.index
            scope = env.get(s, ())
            if i < 0:
                raise ValueError(f"negative variable index {i}")
            if i < len(scope):
                ident = scope[-1 - i]
            else:
                r = i - len(scope)
                ident = free_ids.get((s, r))
                if ident is None:
                    ident = free_ids[s, r] = len(sorts)
                    sorts.append(s)
                    owner.append(-1)
                    names.append(default_supply(r))
            post.append(ident)
            value = single.get(ident)
            if value is None:
                value = single[ident] = frozenset((ident,))
        elif type(node) is op:
            frames.append((node, arg_sorts(node), [], []))
            value = None
        else:
            raise TypeError(f"not a term: {node!r}")
        while frames:  # hand the value up, to the first operation with an argument left
            parent, arg_ss, values, gids = frames[-1]
            if value is not None:
                g = gids[-1]
                if g >= 0:
                    own = range(gfirst[g], gfirst[g] + len(gsorts[g]))
                    for s in gsorts[g]:
                        env[s].pop()
                    free[g] = value
                    for i in value:
                        if owner[i] >= 0 and owner[i] != g:
                            users.setdefault(owner[i], []).append(g)
                    if not value.isdisjoint(own):
                        value = value.difference(own)
                values.append(value)
            if len(values) < len(parent.args):
                ss = arg_ss[len(values)]
                g = -1
                if ss:
                    g = len(gfirst)
                    gfirst.append(len(sorts))
                    gsorts.append(ss)
                    for s in ss:
                        env.setdefault(s, []).append(len(sorts))
                        sorts.append(s)
                        owner.append(g)
                        names.append(None)
                    free.append(None)
                gids.append(g)
                node = parent.args[len(values)]
                break
            frames.pop()
            post.append((parent, gids))
            value = values[0] if len(values) == 1 else frozenset().union(*values)
        else:
            break

    first_names: dict = {}  # binder count -> the first names of the supply
    for g in reversed(range(len(gfirst))):
        first, ss = gfirst[g], gsorts[g]
        zs = first_names.get(len(ss))
        if zs is None:
            zs = first_names[len(ss)] = fresh_names(len(ss), ())
        names[first:first + len(ss)] = zs
        seen = set(users.get(g, ()))
        if not seen:
            continue
        heap = sorted(seen)
        renamed: dict = {}  # identity -> its name after this pass
        images: dict = {}  # (name, sort) -> the binders of g and renamed ones with that image
        for b in range(first, first + len(ss)):
            images.setdefault((names[b], sorts[b]), []).append(b)
        while heap:
            h = heappop(heap)
            own = range(gfirst[h], gfirst[h] + len(gsorts[h]))
            body = free[h]
            hits = []  # binders captured by the image of an identity free in the body
            for b in own:
                key = names[b], sorts[b]
                if key in images and not body.isdisjoint(images[key]):
                    hits.append(b)
            if not hits:
                continue
            # avoid the images, the body's free names and the group's own names
            avoid = {names[b] for b in own}
            for i in body:
                if owner[i] >= g:
                    avoid.add(names[i])
                    if i in renamed:
                        avoid.add(renamed[i])
            for b, z in zip(hits, fresh_names(len(hits), avoid)):
                renamed[b] = z
                images.setdefault((z, sorts[b]), []).append(b)
            for u in users.get(h, ()):
                if u not in seen:
                    seen.add(u)
                    heappush(heap, u)
        for i, z in renamed.items():
            names[i] = z

    variables: dict = {}
    values = []
    for item in post:
        if type(item) is int:
            v = variables.get(item)
            if v is None:
                v = variables[item] = named.var(names[item], sorts[item])
            values.append(v)
            continue
        node, gids = item
        k = len(values) - len(gids)
        args = []
        for g, body in zip(gids, values[k:]):
            if g < 0:
                args.append(((), body))
            else:
                first, ss = gfirst[g], gsorts[g]
                args.append((named.decls(names[first:first + len(ss)], ss), body))
        del values[k:]
        values.append(build(node, tuple(args)))
    return values[0]


def to_named(sig: BindingSignature, t: Term) -> NamedTerm:
    """The named form of ``t``.  Its definition is the fold
    ``initial_fold(sig, named_model(sig), t)``; :func:`named_walk` computes
    the same term, equal under ``==``, in time linear in the size of ``t``
    plus the fold's renamings."""
    sorts = {name: [(None,) * k for k in ns] for name, ns in sig.binders.items()}

    def arg_sorts(node: Op) -> list:
        ss = sorts[node.name]
        if len(ss) != len(node.args):
            raise ValueError(
                f"operation '{node.name}' expects {len(ss)} arguments, got {len(node.args)}"
            )
        return ss

    return named_walk(
        t, Var, Op, arg_sorts, lambda v: None, lambda o, args: NOp(o.name, args), NOp
    )


def from_named(sig: BindingSignature, t: NamedTerm) -> Term:
    """Invert the conversion; free names must come from the supply.

    One walk with an explicit stack of the open operations, each with the
    values of its arguments so far.  ``levels`` maps each bound name to
    the levels (binders above, counted from the root) of its binders in
    scope, innermost last, so a variable is found in constant time."""
    levels: dict[str, list[int]] = {}
    depth = 0  # binders in scope
    frames: list[tuple[str, tuple, tuple, list]] = []
    node = t
    while True:
        if type(node) is NVar:
            bound = levels.get(node.name)
            if bound:
                value = Var(depth - 1 - bound[-1])
            else:
                idx = default_supply_index(node.name)
                if idx is None:
                    raise ValueError(f"unbound name '{node.name}' is not of supply form")
                value = Var(idx + depth)
        elif type(node) is NOp:
            op, args = node.name, node.args
            if op not in sig.ops:
                raise ValueError(f"unknown operation '{op}'")
            binders = sig.ops[op].binders
            if len(args) != len(binders):
                raise ValueError(
                    f"operation '{op}' expects {len(binders)} arguments, got {len(args)}"
                )
            frames.append((op, binders, args, []))
            value = None
        else:
            raise TypeError(node)
        while frames:  # hand the value up, to the first operation with an argument left
            op, binders, args, values = frames[-1]
            if value is not None:
                for name in args[len(values)][0]:
                    levels[name].pop()
                    depth -= 1
                values.append(value)
            if len(values) < len(args):
                k = binders[len(values)]
                bs, node = args[len(values)]
                if len(bs) != k:
                    raise ValueError(f"operation '{op}' expects {k} binders, got {len(bs)}")
                for name in bs:
                    levels.setdefault(name, []).append(depth)
                    depth += 1
                break
            value = Op(op, tuple(values))
            frames.pop()
        else:
            return value


# --- law checking -------------------------------------------------------


class LawResult(Record, frozen=False):
    law: str
    ok: bool
    seed: int
    case: Optional[int] = None
    counterexample: Optional[str] = None

    def line(self) -> str:
        s = f"LAW {self.law} {'PASS' if self.ok else 'FAIL'} seed={self.seed}"
        if self.case is not None:
            s += f" case={self.case}"
        if self.counterexample is not None:
            s += f" counterexample={self.counterexample}"
        return s


class Report(Record, frozen=False):
    results: list[LawResult] = factory(list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _run_law(
    report: Report,
    law: str,
    seed: int,
    cases: int,
    gen: Callable[[random.Random], Any],
    check: Callable[[Any], bool],
    shrink: Optional[Callable[[Any], list]] = None,
    show: Callable[[Any], str] = repr,
) -> None:
    """Run ``check`` on ``cases`` samples, greedily shrinking the first
    failure if a shrinker is available.  Each law draws from a fresh
    ``random.Random(seed)`` stream: sample i is the i-th ``gen(rng)``."""
    rng = random.Random(seed)
    for i in range(cases):
        sample = gen(rng)
        if check(sample):
            continue
        if shrink is not None:
            improved = True
            while improved:
                improved = False
                for cand in shrink(sample):
                    if not check(cand):
                        sample = cand
                        improved = True
                        break
        report.results.append(
            LawResult(law, False, seed, case=i, counterexample=show(sample))
        )
        return
    report.results.append(LawResult(law, True, seed))


def _binding_law(m: DeBruijnMonad, op: Callable[[list], Any], binders) -> Callable[[Any], bool]:
    """The binding condition of ``op`` on a sample (args, assignment):
    substitution commutes with ``op`` once the assignment is lifted by
    each argument's binder count."""

    def check(s) -> bool:
        args, sigma = s
        lhs = m.substitution(op(list(args)), sigma)
        rhs = op(
            [
                m.substitution(x, model_lift_n(m, sigma, n))
                for x, n in zip(args, binders)
            ]
        )
        return m.equal(lhs, rhs)

    return check


def _naturality_law(h: Callable, op_a: Callable, op_b: Callable, equal: Callable) -> Callable:
    """Naturality of ``h`` on a sample of arguments: ``h`` after ``op_a``
    equals ``op_b`` after ``h`` on each argument."""
    return lambda args: equal(h(op_a(list(args))), op_b([h(x) for x in args]))


def _binding_sampler(gen_element: Callable, gen_assignment: Callable, binders) -> Callable:
    """Sampler of (one element per argument, one assignment)."""
    return lambda rng: ([gen_element(rng) for _ in binders], gen_assignment(rng))


def check_monad_laws(
    m: DeBruijnMonad,
    gen_element: Callable[[Any], Any],
    gen_assignment: Callable[[Any], Assignment],
    cases: int = 1000,
    seed: int = 0,
    shrink: Optional[Callable] = None,
    show: Callable[[Any], str] = repr,
) -> Report:
    """Probe associativity and the two unit laws on sampled inputs.

    ``gen_element`` and ``gen_assignment`` take a ``random.Random``.
    """
    report = Report()

    def gen(rng):
        return gen_element(rng), gen_assignment(rng), gen_assignment(rng), rng.randrange(8)

    def assoc(s) -> bool:
        x, f, g, _ = s
        lhs = m.substitution(m.substitution(x, f), g)
        rhs = m.substitution(x, model_compose(m, f, g))
        return m.equal(lhs, rhs)

    def left_unit(s) -> bool:
        _, f, _, n = s
        return m.equal(m.substitution(m.variables(n), f), at(f, n, m.variables))

    def right_unit(s) -> bool:
        x, _, _, _ = s
        return m.equal(m.substitution(x, IDENTITY), x)

    _run_law(report, "associativity", seed, cases, gen, assoc, shrink, show)
    _run_law(report, "left-unitality", seed, cases, gen, left_unit, shrink, show)
    _run_law(report, "right-unitality", seed, cases, gen, right_unit, shrink, show)
    return report


def check_binding_conditions(
    algebra: DBAlgebra,
    sig: BindingSignature,
    gen_element: Callable,
    gen_assignment: Callable,
    cases: int = 1000,
    seed: int = 0,
) -> Report:
    """Per operation: substitution commutes with the interpretation once
    the assignment is lifted by each argument's binder count."""
    report = Report()
    for name, a in sig.ops.items():
        gen = _binding_sampler(gen_element, gen_assignment, a.binders)
        check = _binding_law(algebra, algebra.interpretations[name], a.binders)
        _run_law(report, f"binding:{name}", seed, cases, gen, check)
    return report


def check_morphism(
    h: Callable[[Any], Any],
    a: DBAlgebra,
    b: DBAlgebra,
    sig: BindingSignature,
    gen_element: Callable,
    gen_assignment: Callable,
    cases: int = 1000,
    seed: int = 0,
) -> Report:
    """Check that ``h`` commutes with variables, substitution, and every
    operation, on sampled elements of ``a``."""
    report = Report()
    _run_law(
        report,
        "morphism:variables",
        seed,
        cases,
        lambda rng: rng.randrange(16),
        lambda n: b.equal(h(a.variables(n)), b.variables(n)),
    )

    def subst_ok(s) -> bool:
        x, f = s
        mapped = Assignment(tuple(map(h, f.prefix)), f.tail_shift, b.variables)
        return b.equal(h(a.substitution(x, f)), b.substitution(h(x), mapped))

    def subst_sample(rng):
        return gen_element(rng), gen_assignment(rng)

    _run_law(report, "morphism:substitution", seed, cases, subst_sample, subst_ok)

    for name, ar in sig.ops.items():
        def gen(rng, p=len(ar.binders)):
            return [gen_element(rng) for _ in range(p)]

        check = _naturality_law(h, a.interpretations[name], b.interpretations[name], b.equal)
        _run_law(report, f"morphism:op:{name}", seed, cases, gen, check)
    return report
