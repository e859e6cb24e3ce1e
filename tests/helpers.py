"""Shared term constructors, workloads and definitional references for
the test suite."""

from __future__ import annotations

from collections import Counter
from operator import is_not

from debruijn import (
    Assignment,
    NOp,
    NVar,
    NormalizeResult,
    Op,
    TNOp,
    TNVar,
    TOp,
    TVar,
    Term,
    TypedAssignment,
    Var,
    rewrite_step,
)
from debruijn.model import _letter_supply
from debruijn.term import _op_sig, _op_sup
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


def tuple_stack_map_free_vars(t, sig, on_free):
    binders = sig.binders
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


# --- rewriting reference ---------------------------------------------------


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


def ref_random_assignment(sig, rng, max_prefix=4, max_shift=3, max_depth=4, max_index=5):
    prefix = tuple(
        ref_random_term(sig, rng, max_depth, max_index)
        for _ in range(rng.randint(0, max_prefix))
    )
    return Assignment(prefix, rng.randint(0, max_shift))
