"""Shared term constructors, workloads and definitional references for
the test suite."""

from __future__ import annotations

import math
import re
import time
from collections import Counter
from functools import partial
from itertools import zip_longest
from dataclasses import dataclass, field
from operator import is_not
from typing import NamedTuple

from debruijn import (
    NAT,
    Assignment,
    IDENTITY,
    Diagnostic,
    ExplicitSubst,
    MetaVar,
    NOp,
    NVar,
    NormalizeResult,
    Op,
    ParseError,
    TNOp,
    TNVar,
    TOp,
    TVar,
    Term,
    TypecheckError,
    TypedAssignment,
    TypeExpr,
    Var,
    term_model,
    wellformed,
)
from debruijn import equational, model, signature, surface, typed
from debruijn.model import _letter_supply, default_supply, default_supply_index
from debruijn.signature import Record, Slotted, Tree
from debruijn.surface import SourceSpan
from debruijn.term import _op_sig, _op_sup, _shift_term
from debruijn.typed import op_arity, typed_assignment_at


def lam(body: Term) -> Term:
    return Op("lam", (body,))


def app(fn: Term, arg: Term) -> Term:
    return Op("app", (fn, arg))


def church(n: int) -> Term:
    """lam f. lam x. f^n x with f = Var 1, x = Var 0."""
    body = Var(0)
    for _ in range(n):
        body = app(Var(1), body)
    return lam(lam(body))


# lam m. lam n. lam f. lam x. m f (n f x)
CHURCH_PLUS = lam(
    lam(
        lam(
            lam(
                app(
                    app(Var(3), Var(1)),
                    app(app(Var(2), Var(1)), Var(0)),
                )
            )
        )
    )
)

OMEGA = app(lam(app(Var(0), Var(0))), lam(app(Var(0), Var(0))))


# --- definitional references --------------------------------------------
#
# Substitution by its defining clauses: recurse into each argument under
# the materialised lifting of the assignment.  These share no code with
# the library's traversal kernel and serve as the oracle for it.


def ref_lookup(a, n, var):
    """Image of ``n`` under the pair ``(prefix, tail_shift)``."""
    prefix, k = a
    return prefix[n] if n < len(prefix) else var(k + n - len(prefix))


def ref_lift_n_renaming(f, n):
    """Fix 0 .. n-1 and send m + n to f(m) + n, as a plain pair."""
    prefix, k = f
    return tuple(range(n)) + tuple(r + n for r in prefix), k + n


def ref_rename(t, f, sig):
    if isinstance(t, Var):
        return Var(ref_lookup(f, t.index, int))
    binders = sig.ops[t.name].binders
    return Op(t.name, tuple(
        ref_rename(a, ref_lift_n_renaming(f, n), sig) for a, n in zip(t.args, binders)
    ))


def ref_unshift(t, k, sig):
    """What the shift pattern ``?i[^k]`` binds when it matches ``t``: ``t``
    renamed by the pure shift -k, or None when a free index of ``t`` (an
    index into its context) is below k."""

    def low(t, depth):
        if isinstance(t, Var):
            return t.index - depth if t.index >= depth else None
        binders = sig.ops[t.name].binders
        found = [low(a, depth + n) for a, n in zip(t.args, binders)]
        return min((i for i in found if i is not None), default=None)

    least = low(t, 0)
    if least is not None and least < k:
        return None
    return ref_rename(t, ((), -k), sig)


def ref_lift_n(sigma, n, sig):
    for _ in range(n):
        shifted = tuple(ref_rename(u, ((), 1), sig) for u in sigma.prefix)
        sigma = Assignment((Var(0),) + shifted, sigma.tail_shift + 1)
    return sigma


def ref_subst(t, sigma, sig):
    if isinstance(t, Var):
        return ref_lookup(sigma, t.index, Var)
    binders = sig.ops[t.name].binders
    return Op(t.name, tuple(
        ref_subst(a, ref_lift_n(sigma, n, sig), sig) for a, n in zip(t.args, binders)
    ))


# --- the tuple-stack kernels -----------------------------------------------
#
# ``term.map_free_vars`` and ``term.support`` as they were before their
# walks moved to parallel node and depth lists: one (node, depth, ready)
# tuple per visit.  The parallel-list kernels must agree with these on
# results, on sharing with the input and on the support memos.


def as_callback(on_free, sig):
    """``on_free`` as a callback: an ``int`` k, the kernel's form of the
    shift by k, is ``lambda d, n: Var(n + k)``; an assignment is the
    callback ``subst`` built for it before the kernel applied assignments
    itself, with its memo of images shifted by ``term._shift_term``."""
    if type(on_free) is int:
        return lambda d, n: Var(n + on_free)
    if not isinstance(on_free, Assignment):
        return on_free
    prefix, tail = on_free
    q, images = len(prefix), {}

    def callback(d, n):
        if n - d >= q:
            return Var(n + tail - q)
        image = images.get((n - d, d))
        if image is None:
            image = images[n - d, d] = _shift_term(prefix[n - d], d, sig)
        return image

    return callback


def tuple_stack_map_free_vars(t, sig, on_free):
    binders, on_free = sig.binders, as_callback(on_free, sig)
    stack = [(t, 0, False)]
    values = []
    push, pop, emit = stack.append, stack.pop, values.append
    while stack:
        node, depth, ready = pop()
        if type(node) is Var:
            if node.index >= depth:
                new = on_free(depth, node.index)
                if type(new) is not Var or new.index != node.index:
                    node = new
            emit(node)
        elif type(node) is not Op:
            raise TypeError(f"not a term: {node!r}")
        elif ready:
            k = len(values) - len(node.args)
            rebuilt = tuple(values[k:])
            del values[k:]
            emit(Op(node.name, rebuilt) if any(map(is_not, rebuilt, node.args)) else node)
        elif node._top <= depth or node._sig is sig and node._sup <= depth:
            emit(node)
        else:
            push((node, depth, True))
            for a, n in zip(reversed(node.args), reversed(binders[node.name]), strict=True):
                push((a, depth + n, False))
    return values[0]


def tuple_stack_support(t, sig):
    binders = sig.binders
    stack = [(t, False)]
    values = []
    push, pop, emit = stack.append, stack.pop, values.append
    while stack:
        node, ready = pop()
        if type(node) is Var:
            emit(node.index + 1)
        elif type(node) is not Op:
            raise TypeError(f"not a term: {node!r}")
        elif ready:
            k = len(values) - len(node.args)
            s = 0
            for v, n in zip(values[k:], binders[node.name], strict=True):
                if v - n > s:
                    s = v - n
            del values[k:]
            _op_sup(node, s)
            _op_sig(node, sig)
            emit(s)
        elif node._sig is sig:
            emit(node._sup)
        else:
            push((node, True))
            for a in reversed(node.args):
                push((a, False))
    return max(values[0], 0)


# --- the one-stack-entry-per-node kernels ---------------------------------
#
# ``term.map_free_vars``'s untyped and typed walks as they were before
# their frame design, when the typed one was a second kernel of its own:
# every node, variables too, goes onto the stack and off it again.  The
# frame kernel must agree with these on results, on sharing with the
# input and on the exception and message at a bad node.


def list_stack_map_free_vars(t, sig, on_free):
    binders, on_free = sig.binders, as_callback(on_free, sig)
    nodes, depths, values = [t], [0], []  # depth ~d < 0: the node's arguments are done
    while nodes:
        node = nodes.pop()
        depth = depths.pop()
        if depth < 0:
            args = node.args
            if len(args) == 1:  # rebuilt in place
                values[-1] = node if values[-1] is args[0] else Op(node.name, (values[-1],))
            else:
                k = len(values) - len(args)
                rebuilt = tuple(values[k:])
                del values[k:]
                values.append(Op(node.name, rebuilt) if any(map(is_not, rebuilt, args)) else node)
        elif type(node) is Var:
            if node.index >= depth:
                new = on_free(depth, node.index)
                if type(new) is not Var or new.index != node.index:
                    node = new
            values.append(node)
        elif type(node) is not Op:
            raise TypeError(f"not a term: {node!r}")
        elif node._top <= depth or node._sig is sig and node._sup <= depth:
            values.append(node)
        else:
            ns, args, i = binders[node.name], node.args, len(node.args)
            if len(ns) != i:
                raise ValueError(f"operation '{node.name}' takes {len(ns)} arguments, got {i}")
            nodes.append(node)
            depths.append(~depth)
            while i:
                i -= 1
                nodes.append(args[i])
                depths.append(depth + ns[i])
    return values[0]


def list_stack_map_free_tvars(t, schema, on_free, slot):
    shifts = {}  # the arity vectors of each (name, type_args) met
    stack = [(t, (), False)]
    values = []
    push, pop, emit = stack.append, stack.pop, values.append
    while stack:
        node, depth, ready = pop()
        if type(node) is TVar:
            s = slot.setdefault(node.ty, len(slot))
            m = node.index - (depth[s] if s < len(depth) else 0)
            if m >= 0:
                new = on_free(node, s, m, depth)
                if type(new) is not TVar or new.index != node.index or new.ty is not node.ty:
                    node = new
            emit(node)
        elif type(node) is not TOp:
            raise TypeError(f"not a typed term: {node!r}")
        elif ready:
            k = len(values) - len(node.args)
            rebuilt = tuple(values[k:])
            del values[k:]
            changed = any(map(is_not, rebuilt, node.args))
            emit(TOp(node.name, node.type_args, rebuilt) if changed else node)
        else:
            vecs = shifts.get((node.name, node.type_args))
            if vecs is None:
                vecs = shifts[node.name, node.type_args] = []
                for gamma, _ in op_arity(schema, node.name, node.type_args).premises:
                    slots = [slot.setdefault(ty, len(slot)) for ty in gamma]
                    vecs.append(tuple(map(slots.count, range(max(slots, default=-1) + 1))))
            push((node, depth, True))
            for a, vec in zip(reversed(node.args), reversed(vecs), strict=True):
                deeper = tuple(map(sum, zip_longest(depth, vec, fillvalue=0))) if vec else depth
                push((a, deeper, False))
    return values[0]


def ref_multi_shift(t, by, schema, depth: Counter | None = None):
    depth = depth or Counter()
    if isinstance(t, TVar):
        return TVar(t.index + by.get(t.ty, 0), t.ty) if t.index >= depth[t.ty] else t
    premises = op_arity(schema, t.name, t.type_args).premises
    return TOp(t.name, t.type_args, tuple(
        ref_multi_shift(a, by, schema, depth + Counter(gamma))
        for a, (gamma, _) in zip(t.args, premises)
    ))


def ref_tlift_gamma(sigma, gamma, schema):
    for ty in gamma:
        out = {
            ty2: (tuple(ref_multi_shift(u, {ty: 1}, schema) for u in prefix), k)
            for ty2, (prefix, k) in sigma.components.items()
        }
        prefix, k = out.get(ty, ((), 0))
        out[ty] = ((TVar(0, ty),) + prefix, k + 1)
        sigma = TypedAssignment(out)
    return sigma


def ref_tsubst(t, sigma, schema):
    if isinstance(t, TVar):
        return typed_assignment_at(sigma, t.ty, t.index)
    premises = op_arity(schema, t.name, t.type_args).premises
    return TOp(t.name, t.type_args, tuple(
        ref_tsubst(a, ref_tlift_gamma(sigma, gamma, schema), schema)
        for a, (gamma, _) in zip(t.args, premises)
    ))


def list_nest(x: str, depth: int = 190) -> str:
    """The type ``x`` written inside ``depth`` ``list(...)``."""
    return "list(" * depth + x + ")" * depth


# instantiating f or c at s = list_nest("a") nests list 380 deep, past
# the parser's bound on a written type
DEEP_LIST_SIG = (
    "types { a; list(1); }\n"
    f"signature s {{ op f [s] : (|- {list_nest('s')}) -> a; op c [s] : -> {list_nest('s')}; }}\n"
)
DEEP_LIST_OK = f"(op[f; {list_nest('a')}] (op[c; {list_nest('a')}]))"
DEEP_LIST_BAD = f"(op[f; {list_nest('a')}] (op[c; a]))"
DEEP_LIST_ERROR = (
    f"argument 0 of 'f' has type {list_nest('a')}, expected {list_nest(list_nest('a'))}")


def ref_type_eq(a, b) -> bool:
    """``TypeExpr`` equality as first written: the dataclass's, recursive."""
    return a.ctor == b.ctor and len(a.args) == len(b.args) and all(map(ref_type_eq, a.args, b.args))


def ref_type_str(ty) -> str:
    """``str`` of a ``TypeExpr`` as first written, recursive."""
    if ty.ctor == "->" and len(ty.args) == 2:
        left, right = ty.args
        ls = f"({ref_type_str(left)})" if left.ctor == "->" else ref_type_str(left)
        return f"{ls} -> {ref_type_str(right)}"
    if ty.args:
        return f"{ty.ctor}({', '.join(ref_type_str(a) for a in ty.args)})"
    return ty.ctor


def ref_typecheck(schema, t):
    """``typed.typecheck`` as it was before its explicit stack: one call
    per node, the path built as it goes down.  ``op_arity`` raises
    without a path, so its faults get one here."""

    def go(node, path):
        match node:
            case TVar(index, ty):
                errs = schema.grammar.wellformed(ty)
                if errs:
                    raise TypecheckError(errs[0], path)
                if index < 0:
                    raise TypecheckError("negative variable index", path)
                return ty
            case TOp(_, _, args):
                try:
                    ar = op_arity(schema, node.name, node.type_args)
                except TypecheckError as e:
                    raise TypecheckError(str(e), path) from None
                if len(args) != len(ar.premises):
                    raise TypecheckError(
                        f"operation '{node.name}' expects {len(ar.premises)} "
                        f"arguments, got {len(args)}",
                        path,
                    )
                for i, (a, (_, want)) in enumerate(zip(args, ar.premises)):
                    got = go(a, path + (i,))
                    if got != want:
                        raise TypecheckError(
                            f"argument {i} of '{node.name}' has type {got}, "
                            f"expected {want}",
                            path,
                        )
                return ar.conclusion
        raise TypecheckError(f"not a typed term: {node!r}", path)

    return go(t, ())


def same_term(a, b) -> bool:
    """Structural equality of nameless terms, with an explicit stack:
    ``==`` recurses once per nesting level."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if type(x) is Var:
            if x.index != y.index:
                return False
        elif x.name != y.name or len(x.args) != len(y.args):
            return False
        else:
            stack.extend(zip(x.args, y.args))
    return True


def same_named(a, b) -> bool:
    """``a == b`` for named terms, typed or not, binder names included,
    with an explicit stack: the dataclass ``==`` recurses once per level."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, (NVar, TNVar)):
            if x != y:
                return False
        elif x.name != y.name or x.type_args != y.type_args or len(x.args) != len(y.args):
            return False
        else:
            for (bx, tx), (by, ty) in zip(x.args, y.args):
                if bx != by:
                    return False
                stack.append((tx, ty))
    return True


# --- rewriting reference ---------------------------------------------------
#
# Matching, evaluation and one-step rewriting by recursion over class
# patterns, as first written: the oracle of ``match_pattern``,
# ``eval_metaterm`` and ``normalize``, sharing no code with them.


def ref_eval_metaterm(algebra, env, mt):
    match mt:
        case MetaVar(index):
            return env[index]
        case Var(index):
            return algebra.variables(index)
        case Op(name, args):
            return algebra.interpretations[name](
                [ref_eval_metaterm(algebra, env, a) for a in args]
            )
        case ExplicitSubst(body, assign):
            a = Assignment(
                tuple(ref_eval_metaterm(algebra, env, p) for p in assign.prefix),
                assign.tail_shift,
                algebra.variables,
            )
            return algebra.substitution(ref_eval_metaterm(algebra, env, body), a)
    raise TypeError(mt)


def ref_match_pattern(pat, t, sig):
    env = {}

    def go(pat, t) -> bool:
        match pat:
            case MetaVar(index):
                env[index] = t
                return True
            case ExplicitSubst(MetaVar(index), Assignment((), k)):
                image = ref_unshift(t, k, sig)
                if image is None:
                    return False
                env[index] = image
                return True
            case Var(index):
                return t == Var(index)
            case Op(name, args):
                return (
                    isinstance(t, Op)
                    and t.name == name
                    and len(t.args) == len(args)
                    and all(go(p, a) for p, a in zip(args, t.args))
                )
        return False

    return env if go(pat, t) else None


def ref_reach(mt, level=1):
    """The levels of a left side that look at the term (its Op and Var
    nodes, the root at ``level``), or every level when it holds a shift
    pattern ``?i[^k]`` with k > 0: the oracle of ``CompiledPattern.reach``."""
    match mt:
        case Op(_, args):
            return max([level, *(ref_reach(a, level + 1) for a in args)])
        case Var(_):
            return level
        case ExplicitSubst(MetaVar(_), Assignment((), k)) if k > 0:
            return math.inf
    return 0


def ref_moved(mt):
    """The metavariables inside a right side's explicit substitution
    prefixes, in increasing order: the oracle of ``CompiledMetaterm.moved``."""

    def go(mt, moved):
        match mt:
            case MetaVar(index):
                return {index} if moved else set()
            case Op(_, args):
                return set().union(*(go(a, moved) for a in args))
            case ExplicitSubst(body, Assignment() as assign):
                return go(body, moved).union(*(go(x, True) for x in assign.prefix))
        return set()

    return tuple(sorted(go(mt, False)))


def _redexes(theory, t):
    """One-step rewrites, positions enumerated leftmost-outermost."""
    sig = theory.signature
    tm = term_model(sig)

    def go(node, rebuild):
        for rule in theory.rules:
            env = ref_match_pattern(rule.left, node, sig)
            if env is not None:
                p = len(rule.arity.binders)
                args = [env.get(i, Var(0)) for i in range(p)]
                yield rebuild(ref_eval_metaterm(tm, args, rule.right))
        if isinstance(node, Op):
            for i, a in enumerate(node.args):
                def wrap(u, node=node, i=i, rebuild=rebuild):
                    return rebuild(
                        Op(node.name, node.args[:i] + (u,) + node.args[i + 1 :])
                    )

                yield from go(a, wrap)

    return go(t, lambda u: u)


def rewrite_step(theory, t):
    return list(_redexes(theory, t))


def random_rule_side(sig, rng, metavars, max_depth=4, ops=True, junk=0.05):
    """A seeded metaterm over ``sig`` for the differential tests, with the
    nodes a rule side may hold and some it may not: metavariables ``?0 ..
    ?(metavars - 1)``, variables, operations (``ops``; one in eight with
    an argument too many or too few), shift patterns ``?i[^k]``, explicit
    substitutions with a prefix of metaterms and a tail shift, nested, and
    with probability ``junk`` a node that is not a metaterm."""
    names = sorted(sig.ops) if ops else []
    r = rng.random()
    if r < junk:
        return ("not", "a", "metaterm")
    if max_depth <= 0 or r < 0.3:
        return MetaVar(rng.randrange(metavars)) if rng.random() < 0.6 else Var(rng.randrange(4))
    if r < 0.45:
        return ExplicitSubst(MetaVar(rng.randrange(metavars)), Assignment((), rng.randrange(4)))
    if r < 0.65 or not names:
        body = random_rule_side(sig, rng, metavars, max_depth - 1, ops, junk)
        prefix = [random_rule_side(sig, rng, metavars, max_depth - 2, ops, junk)
                  for _ in range(rng.randrange(3))]
        return ExplicitSubst(body, Assignment(prefix, rng.randrange(3)))
    name = rng.choice(names)
    n = len(sig.ops[name].binders)
    if rng.random() < 0.125:
        n = max(0, n + rng.choice((-1, 1)))
    return Op(name, tuple(
        random_rule_side(sig, rng, metavars, max_depth - 1, ops, junk) for _ in range(n)))


def ref_normalize_all(theory, t, limit):
    """``normalize(theory, t, fuel)`` for every fuel from 0 to ``limit``,
    by iterating the spec: the first of ``rewrite_step``'s one-step
    rewrites, which it lists leftmost-outermost."""
    seq = [t]
    while len(seq) <= limit:
        after = rewrite_step(theory, seq[-1])
        if not after:
            break
        seq.append(after[0])
    normal = len(seq) <= limit or not rewrite_step(theory, seq[-1])
    return [
        NormalizeResult(seq[-1], False, len(seq) - 1)
        if normal and fuel >= len(seq) - 1
        else NormalizeResult(seq[fuel], True, fuel)
        for fuel in range(limit + 1)
    ]


def ref_validate_theory(theory):
    """``validate_theory`` as first written: each side checked by one
    recursion, then the left side read again by a second one for the
    pattern restrictions."""
    errs = []
    sig = theory.signature
    seen = set()
    for rule in theory.rules:
        if rule.name in seen:
            errs.append(f"duplicate rule name '{rule.name}'")
        seen.add(rule.name)
        if any(n < 0 for n in rule.arity.binders):
            errs.append(f"rule '{rule.name}' has a negative binder count")
        p = len(rule.arity.binders)
        for side, mt in (("left", rule.left), ("right", rule.right)):
            errs.extend(f"rule '{rule.name}' {side}: {e}" for e in _ref_check_metaterm(mt, sig, p))
        used = []

        def pattern_ok(mt):
            match mt:
                case MetaVar(index):
                    if index in used:
                        return f"metavariable ?{index} used twice"
                    used.append(index)
                    return None
                case Var(_):
                    return None
                case Op(_, args):
                    for a in args:
                        msg = pattern_ok(a)
                        if msg:
                            return msg
                    return None
                case ExplicitSubst(MetaVar(index), Assignment((), _)):
                    if index in used:
                        return f"metavariable ?{index} used twice"
                    used.append(index)
                    return None
                case ExplicitSubst(_, _):
                    return "explicit substitution in a pattern must be a shift of a metavariable"
            return f"bad pattern node {mt!r}"

        msg = pattern_ok(rule.left)
        if msg:
            errs.append(f"rule '{rule.name}' left: {msg}")
    return errs


def _ref_check_metaterm(mt, sig, metavars):
    match mt:
        case MetaVar(index):
            if not 0 <= index < metavars:
                return [f"metavariable ?{index} out of range (< {metavars})"]
            return []
        case Var(index):
            return [] if index >= 0 else [f"negative variable index {index}"]
        case Op(name, args):
            if name not in sig.ops:
                return [f"unknown operation '{name}'"]
            want = len(sig.ops[name].binders)
            if len(args) != want:
                return [f"operation '{name}' expects {want} arguments, got {len(args)}"]
            out = []
            for a in args:
                out.extend(_ref_check_metaterm(a, sig, metavars))
            return out
        case ExplicitSubst(body, Assignment() as assign):
            out = _ref_check_metaterm(body, sig, metavars)
            for p in assign.prefix:
                out.extend(_ref_check_metaterm(p, sig, metavars))
            return out
    return [f"not a metaterm: {mt!r}"]


# --- named-term references -----------------------------------------------
#
# The named oracle as first written: free names recomputed by recursion at
# every node, and every node rebuilt.  The library's versions cache free
# sets on the nodes and share unchanged subterms; they must agree with
# these structurally, binder names included.


def ref_fresh_names(count, avoid):
    out = []
    for name in _letter_supply():
        if name not in avoid:
            out.append(name)
            avoid = avoid | {name}
            if len(out) == count:
                return out


def ref_free_names(t):
    if isinstance(t, NVar):
        return {t.name}
    out = set()
    for binders, body in t.args:
        out |= ref_free_names(body) - set(binders)
    return out


def ref_named_subst(t, mapping):
    if isinstance(t, NVar):
        return mapping.get(t.name, t)
    new_args = []
    for binders, body in t.args:
        fv = ref_free_names(body)
        relevant = {x: v for x, v in mapping.items() if x in fv and x not in binders}
        avoid = (fv - set(binders)) | {
            n for v in relevant.values() for n in ref_free_names(v)
        }
        inner = dict(relevant)
        new_binders = []
        for b in binders:
            if b in avoid:
                (z,) = ref_fresh_names(1, avoid | set(new_binders) | set(binders))
                inner[b] = NVar(z)
                new_binders.append(z)
            else:
                inner.pop(b, None)
                new_binders.append(b)
        new_args.append((tuple(new_binders), ref_named_subst(body, inner)))
    return NOp(t.name, tuple(new_args))


def ref_alpha_eq(a, b):
    """Alpha-equivalence with a fresh copy of each environment per binder."""

    def go(a, b, env_a, env_b, depth):
        if isinstance(a, NVar) and isinstance(b, NVar):
            ia, ib = env_a.get(a.name), env_b.get(b.name)
            return ia == ib and (ia is not None or a.name == b.name)
        if not (isinstance(a, NOp) and isinstance(b, NOp)):
            return False
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        for (bx, tx), (by, ty) in zip(a.args, b.args):
            if len(bx) != len(by):
                return False
            ea = env_a | {x: depth + i for i, x in enumerate(bx)}
            eb = env_b | {y: depth + i for i, y in enumerate(by)}
            if not go(tx, ty, ea, eb, depth + len(bx)):
                return False
        return True

    return go(a, b, {}, {}, 0)


def debruijn_to_named_direct(sig, t):
    """Independent top-down converter used to cross-check the fold-based
    conversion; binder names are drawn per nesting depth."""
    supply = []
    # skip the names of free variables (x1, x2, ...), which a binder would capture
    gen = (z for z in _letter_supply() if default_supply_index(z) is None)

    def letter(i: int) -> str:
        while len(supply) <= i:
            supply.append(next(gen))
        return supply[i]

    def go(node, env):
        match node:
            case Var(n):
                if n < len(env):
                    return NVar(env[n])
                return NVar(default_supply(n - len(env)))
            case Op(name, args):
                binders = sig.ops[name].binders
                parts = []
                for k, a in zip(binders, args):
                    bs = tuple(letter(len(env) + j) for j in range(k))
                    parts.append((bs, go(a, tuple(reversed(bs)) + env)))
                return NOp(name, tuple(parts))
        raise TypeError(node)

    return go(t, ())


def ref_tn_free(t):
    if isinstance(t, TNVar):
        return {(t.name, t.ty)}
    out = set()
    for binders, body in t.args:
        out |= ref_tn_free(body) - set(binders)
    return out


def ref_tn_subst(t, mapping):
    if isinstance(t, TNVar):
        return mapping.get((t.name, t.ty), t)
    new_args = []
    for binders, body in t.args:
        fv = ref_tn_free(body)
        bset = set(binders)
        relevant = {k: v for k, v in mapping.items() if k in fv and k not in bset}
        captured = {key for v in relevant.values() for key in ref_tn_free(v)}
        avoid = {n for n, _ in fv - bset} | {n for n, _ in captured}
        inner = dict(relevant)
        new_binders = []
        for bname, bty in binders:
            if (bname, bty) in captured:
                (z,) = ref_fresh_names(1, avoid | {n for n, _ in new_binders + list(binders)})
                inner[(bname, bty)] = TNVar(z, bty)
                new_binders.append((z, bty))
            else:
                inner.pop((bname, bty), None)
                new_binders.append((bname, bty))
        new_args.append((tuple(new_binders), ref_tn_subst(body, inner)))
    return TNOp(t.name, t.type_args, tuple(new_args))


def ref_tn_alpha_eq(a, b):
    """Typed alpha-equivalence with a fresh copy of each environment per
    binder: types of variables, of binders and of operations must agree."""

    def go(a, b, ea, eb, depth) -> bool:
        match a, b:
            case (TNVar(_, ta), TNVar(_, tb)):
                if ta != tb:
                    return False
                ka, kb = (a.name, ta), (b.name, tb)
                ia, ib = ea.get(ka), eb.get(kb)
                return ia == ib and (ia is not None or a.name == b.name)
            case (TNOp(na, ga, xs), TNOp(nb, gb, ys)) if (
                na == nb and ga == gb and len(xs) == len(ys)
            ):
                for (bx, tx), (by, ty_) in zip(xs, ys):
                    if len(bx) != len(by):
                        return False
                    if tuple(t for _, t in bx) != tuple(t for _, t in by):
                        return False
                    na_ = ea | {d: depth + i for i, d in enumerate(bx)}
                    nb_ = eb | {d: depth + i for i, d in enumerate(by)}
                    if not go(tx, ty_, na_, nb_, depth + len(bx)):
                        return False
                return True
        return False

    return go(a, b, {}, {}, 0)


# --- generator reference -------------------------------------------------


def ref_random_term(sig, rng, max_depth=8, max_index=5):
    """``gen.random_term`` as first written, sorting the operations at
    every node; the library sorts once per call and must draw the same
    random stream."""
    ops = sorted(sig.ops.items())
    if max_depth <= 0 or not ops or rng.random() < 0.35:
        return Var(rng.randrange(max_index))
    name, a = rng.choice(ops)
    return Op(
        name,
        tuple(ref_random_term(sig, rng, max_depth - 1, max_index) for _ in a.binders),
    )


class RecursiveReprOp:
    """A copy of an ``Op`` tree whose repr is ``Op.__repr__`` as first
    written: the frozen dataclass's, which renders ``args`` with the tuple
    repr and so recurses once per level.  The oracle of the explicit-stack
    repr; other nodes in the tree keep their own repr."""

    def __init__(self, t: Op):
        self.name = t.name
        self.args = tuple(RecursiveReprOp(a) if type(a) is Op else a for a in t.args)

    def __repr__(self):
        return f"Op(name={self.name!r}, args={self.args!r})"


def ref_random_assignment(sig, rng, max_prefix=4, max_shift=3, max_depth=4, max_index=5):
    prefix = tuple(
        ref_random_term(sig, rng, max_depth, max_index)
        for _ in range(rng.randint(0, max_prefix))
    )
    return Assignment(prefix, rng.randint(0, max_shift))


# --- the recursive surface readers ------------------------------------------
#
# ``surface.tokenize`` and the recursive ``_Parser`` readers as they were
# before the one-pass tokenizer and the explicit-stack readers: one Token
# tuple per token, every character scanned first, one Python call per
# nested term.  The new readers must agree with these on results and on
# every diagnostic (severity, message, span, path).

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<nat>0|[1-9][0-9]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[()\[\]{};,:^=?#])
    """,
    re.VERBOSE,
)


def _ref_span(source: str, start: int, end: int) -> SourceSpan:
    line_start = source.rfind("\n", 0, start)
    return SourceSpan(start, end, source.count("\n", 0, start) + 1, start - line_start)


def _ref_fail(message: str, span=None):
    raise ParseError([Diagnostic("error", message, span)])


class RefToken(NamedTuple):
    kind: str
    text: str
    start: int
    source: str

    @property
    def span(self) -> SourceSpan:
        return _ref_span(self.source, self.start, self.start + len(self.text))


def ref_tokenize(text: str) -> list[RefToken]:
    tokens: list[RefToken] = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            _ref_fail(f"unexpected character {text[pos]!r}", _ref_span(text, pos, pos + 1))
        kind = m.lastgroup
        if kind != "ws":
            chunk = m.group()
            tokens.append(RefToken(chunk if kind == "punct" else kind, chunk, pos, text))
        pos = m.end()
    tokens.append(RefToken("eof", "", pos, text))
    return tokens


class RefParser:
    def __init__(self, text: str):
        self.tokens = ref_tokenize(text)
        self.pos = 0

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def next(self) -> RefToken:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> RefToken:
        tok = self.peek()
        if tok.kind != kind:
            _ref_fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str):
        return self.next() if self.at(kind) else None

    def done(self):
        tok = self.peek()
        if tok.kind != "eof":
            _ref_fail(f"unexpected trailing input {tok.text!r}", tok.span)

    def items(self, item, stop: str) -> list:
        if self.at(stop):
            return []
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def type_expr(self) -> TypeExpr:
        left = self.type_atom()
        if self.accept("arrow"):
            return TypeExpr("->", (left, self.type_expr()))
        return left

    def type_atom(self) -> TypeExpr:
        if self.accept("("):
            ty = self.type_expr()
            self.expect(")")
            return ty
        name = self.expect("ident").text
        if self.accept("("):
            args = [self.type_expr()]
            while self.accept(","):
                args.append(self.type_expr())
            self.expect(")")
            return TypeExpr(name, tuple(args))
        return TypeExpr(name)

    def nameless(self, meta: bool = False) -> Term:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Var(int(tok.text))
        if meta and tok.kind == "?":
            self.next()
            return MetaVar(self.nat())
        if meta and tok.kind == "{":
            self.next()
            body = self.nameless(meta)
            assign = self.literal(lambda: self.nameless(meta))
            self.expect("}")
            return ExplicitSubst(body, assign)
        self.expect("(")
        name = self.expect("ident").text
        args = []
        while not self.at(")"):
            args.append(self.nameless(meta))
        self.expect(")")
        return Op(name, tuple(args))

    def named(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return NVar(tok.text)
        self.expect("(")
        name = self.expect("ident").text
        args = []
        while not self.at(")"):
            binders: tuple[str, ...] = ()
            if self.accept("["):
                names = []
                while not self.at("]"):
                    names.append(self.expect("ident").text)
                self.expect("]")
                binders = tuple(names)
            args.append((binders, self.named()))
        self.expect(")")
        return NOp(name, tuple(args))

    def typed(self):
        self.expect("(")
        if self.accept("#"):
            index = self.nat()
            self.expect(":")
            ty = self.type_expr()
            self.expect(")")
            return TVar(index, ty)
        head = self.expect("ident")
        if head.text != "op":
            _ref_fail("expected 'op' or '#' in typed term", head.span)
        self.expect("[")
        name = self.expect("ident").text
        targs = self.items(self.type_expr, "]") if self.accept(";") else []
        self.expect("]")
        args = []
        while not self.at(")"):
            args.append(self.typed())
        self.expect(")")
        return TOp(name, tuple(targs), tuple(args))

    def nat(self) -> int:
        return int(self.expect("nat").text)

    def literal(self, entry, var=Var) -> Assignment:
        self.expect("[")
        entries = self.items(entry, ";")
        self.expect(";")
        self.expect("^")
        shift = self.nat()
        self.expect("]")
        return Assignment(tuple(entries), shift, var)


def ref_parse(text: str, kind: str, sig=None):
    """``text`` read as ``kind`` by the recursive readers: a ``type``, a
    ``nameless`` term (arity-checked under ``sig``), a ``meta`` term, a
    ``named`` or ``typed`` term, a ``renaming`` or an ``assignment``."""
    p = RefParser(text)
    read = {
        "type": p.type_expr,
        "nameless": p.nameless,
        "meta": lambda: p.nameless(meta=True),
        "named": p.named,
        "typed": p.typed,
        "renaming": lambda: p.literal(p.nat, NAT),
        "assignment": lambda: p.literal(p.nameless),
    }[kind]
    out = read()
    p.done()
    if sig is not None:
        for t in out.prefix if kind == "assignment" else (out,):
            errs = wellformed(sig, t)
            if errs:
                raise ParseError([Diagnostic("error", e) for e in errs])
    return out


def ref_from_named(sig, t):
    """``model.from_named`` as it was before its explicit stack: one call
    per node, the binders in scope as a tuple, innermost first."""
    from debruijn.model import default_supply_index

    def go(node, env):
        if isinstance(node, NVar):
            if node.name in env:
                return Var(env.index(node.name))
            idx = default_supply_index(node.name)
            if idx is None:
                raise ValueError(f"unbound name '{node.name}' is not of supply form")
            return Var(idx + len(env))
        if isinstance(node, NOp):
            op, args = node.name, node.args
            if op not in sig.ops:
                raise ValueError(f"unknown operation '{op}'")
            binders = sig.ops[op].binders
            if len(args) != len(binders):
                raise ValueError(
                    f"operation '{op}' expects {len(binders)} arguments, got {len(args)}"
                )
            parts = []
            for k, (bs, body) in zip(binders, args):
                if len(bs) != k:
                    raise ValueError(f"operation '{op}' expects {k} binders, got {len(bs)}")
                parts.append(go(body, tuple(reversed(bs)) + env))
            return Op(op, tuple(parts))
        raise TypeError(node)

    return go(t, ())


def ref_term_from_json(data):
    """``surface.term_from_json`` as it was before its explicit stack: one
    call per node."""
    if type(data) is dict:
        if len(data) == 1 and type(data.get("var")) is int:
            return Var(data["var"])
        if len(data) == 2 and type(data.get("op")) is str and type(data.get("args")) is list:
            return Op(data["op"], tuple(ref_term_from_json(a) for a in data["args"]))
    raise ValueError(f"not a JSON term: {data!r}")


# The named and typed node classes as they were first written: frozen
# dataclasses, whose ==, hash and repr recurse through their fields.  Each
# takes its original's qualified name, which the dataclass repr prints.
@dataclass(frozen=True)
class DataNVar:
    name: str


@dataclass(frozen=True)
class DataNOp:
    name: str
    args: tuple


@dataclass(frozen=True)
class DataTNVar:
    name: str
    ty: TypeExpr


@dataclass(frozen=True)
class DataTNOp:
    name: str
    type_args: tuple
    args: tuple


@dataclass(frozen=True)
class DataTVar:
    index: int
    ty: TypeExpr


@dataclass(frozen=True)
class DataTOp:
    name: str
    type_args: tuple
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "type_args", tuple(self.type_args))
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class DataTypeExpr:
    ctor: str
    args: tuple = ()


for _cls in (DataNVar, DataNOp, DataTNVar, DataTNOp, DataTVar, DataTOp, DataTypeExpr):
    _cls.__qualname__ = _cls.__name__[len("Data"):]


def as_data_type(ty):
    """A copy of a type made of ``DataTypeExpr``, whose == is structural."""
    return DataTypeExpr(ty.ctor, tuple(map(as_data_type, ty.args)))


def as_dataclasses(t):
    """A copy of a named or typed term made of the frozen dataclasses above,
    its types too."""
    if isinstance(t, TVar):
        return DataTVar(t.index, as_data_type(t.ty))
    if isinstance(t, TOp):
        targs = tuple(map(as_data_type, t.type_args))
        return DataTOp(t.name, targs, tuple(as_dataclasses(a) for a in t.args))
    if isinstance(t, NVar):
        return DataNVar(t.name)
    if isinstance(t, TNVar):
        return DataTNVar(t.name, as_data_type(t.ty))
    args = tuple((binders, as_dataclasses(body)) for binders, body in t.args)
    if isinstance(t, NOp):
        return DataNOp(t.name, args)
    return DataTNOp(t.name, tuple(map(as_data_type, t.type_args)), args)


# The package's records as they were first written: dataclasses, frozen
# unless noted, with their defaults, default factories and __post_init__
# normalisations.  Each takes its original's qualified name, which the
# dataclass repr prints; ``RECORD_TWINS`` maps each record class to its twin.
@dataclass(frozen=True)
class DataBindingArity:
    binders: tuple

    def __post_init__(self):
        object.__setattr__(self, "binders", tuple(self.binders))


@dataclass(frozen=True)
class DataBindingSignature:
    ops: dict


@dataclass(frozen=True)
class DataTypeGrammar:
    ctors: dict


@dataclass(frozen=True)
class DataTypedArity:
    premises: tuple
    conclusion: TypeExpr

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple((tuple(g), t) for g, t in self.premises))


@dataclass(frozen=True)
class DataOpSchema:
    name: str
    metavars: tuple
    template: object


@dataclass(frozen=True)
class DataTypedSignatureSchema:
    grammar: object
    schemas: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DataMetaVar:
    index: int


@dataclass(frozen=True)
class DataExplicitSubst:
    body: object
    assign: Assignment


@dataclass(frozen=True)
class DataRule:
    name: str
    arity: object
    left: object
    right: object


@dataclass(frozen=True)
class DataEquationalTheory:
    signature: object
    rules: tuple


@dataclass(frozen=True)
class DataCompiledPattern:
    steps: tuple
    gather: tuple
    head: object
    reach: float
    fault: object


@dataclass(frozen=True)
class DataCompiledMetaterm:
    steps: tuple
    moved: tuple


@dataclass(frozen=True)
class DataNormalizeResult:
    term: Term
    exhausted: bool
    steps: int = 0


@dataclass
class DataDeBruijnMonad:
    variables: object
    substitution: object
    equal: object = field(default=lambda a, b: a == b)


@dataclass
class DataDBAlgebra(DataDeBruijnMonad):
    interpretations: dict = field(default_factory=dict)


@dataclass
class DataLawResult:
    law: str
    ok: bool
    seed: int
    case: object = None
    counterexample: object = None


@dataclass
class DataReport:
    results: list = field(default_factory=list)


@dataclass(frozen=True)
class DataTypedAssignment:
    components: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for ty, (prefix, k) in self.components.items():
            a = Assignment(prefix, k, partial(TVar, ty=ty))
            if a != IDENTITY:
                norm[ty] = a
        object.__setattr__(self, "components", norm)


@dataclass
class DataTypedAlgebra:
    variables: object
    substitution: object
    interpretation: object
    equal: object = field(default=lambda a, b: a == b)


@dataclass(frozen=True)
class DataBTDerivation:
    pass


@dataclass(frozen=True)
class DataBTLeaf(DataBTDerivation):
    ty: TypeExpr


@dataclass(frozen=True)
class DataBTNode(DataBTDerivation):
    left: object
    right: object


@dataclass(frozen=True)
class DataSourceSpan:
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class DataDiagnostic:
    severity: str
    message: str
    span: object = None
    path: object = None


@dataclass
class DataSignatureFile:
    signatures: dict
    schemas: dict


RECORD_TWINS = {
    record: twin
    for module in (signature, equational, model, typed, surface)
    for record in vars(module).values()
    if isinstance(record, type) and record.__module__ == module.__name__
    and issubclass(record, Slotted) and not issubclass(record, Term)
    and record not in (Slotted, Record, Tree)
    for twin in [DataTypeExpr if record is TypeExpr else globals()[f"Data{record.__name__}"]]
}
for _twin in RECORD_TWINS.values():
    _twin.__qualname__ = _twin.__name__[len("Data"):]


def timed(bound: float, call):
    """``call()``, asserting that it returned within ``bound`` seconds."""
    start = time.perf_counter()
    out = call()
    assert time.perf_counter() - start < bound
    return out
