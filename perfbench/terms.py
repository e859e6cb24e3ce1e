"""Benchmark-side term helpers: builders, printers, parsers and comparators.

They are written apart from the debruijn code they check, so that an
output check never runs the path that was timed.  Term classes are
passed in (or recognised by their fields) because the benchmark
re-imports debruijn for every set-up.  Everything that can meet a deep
term walks it with an explicit stack; the helpers marked "shallow" are
only used on the bounded-depth terms of the cli-mix workload.
"""

from __future__ import annotations

import re

_SEXPR_TOKEN = re.compile(r"[()\[\]]|[^\s()\[\]]+")


def is_var(t) -> bool:
    return hasattr(t, "index")


def node_count(t) -> int:
    """Nodes of a nameless, named or typed term."""
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        n += 1
        for a in getattr(x, "args", ()):
            # named operations hold (binders, body) pairs
            stack.append(a[1] if isinstance(a, tuple) else a)
    return n


def same_term(a, b) -> bool:
    """Structural equality of nameless terms, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if is_var(x):
            if x.index != y.index:
                return False
            continue
        if x.name != y.name or len(x.args) != len(y.args):
            return False
        stack.extend(zip(x.args, y.args))
    return True


def to_sexpr(t) -> str:
    """Nameless s-expression text, as ``print_term`` writes it."""
    out: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif is_var(x):
            out.append(str(x.index))
        else:
            out.append("(" + x.name)
            stack.append(")")
            for a in reversed(x.args):
                stack.append(a)
                stack.append(" ")
    return "".join(out)


def parse_sexpr(text: str, Var, Op):
    """Nameless s-expression text to a term, without recursion."""
    stack: list[tuple[str, list]] = []
    result = None
    want_name = False
    for tok in _SEXPR_TOKEN.findall(text):
        if want_name:
            stack.append((tok, []))
            want_name = False
            continue
        if tok == "(":
            want_name = True
            continue
        if tok == ")":
            name, args = stack.pop()
            node = Op(name, tuple(args))
        else:
            node = Var(int(tok))
        if stack:
            stack[-1][1].append(node)
        else:
            result = node
    if stack or want_name or result is None:
        raise ValueError("unbalanced s-expression")
    return result


def to_json_obj(t):
    """The ``{"var": i}`` / ``{"op": name, "args": [...]}`` form (shallow)."""
    if is_var(t):
        return {"var": t.index}
    return {"op": t.name, "args": [to_json_obj(a) for a in t.args]}


def from_json_obj(data, Var, Op):
    """Inverse of :func:`to_json_obj` (shallow)."""
    if "var" in data:
        return Var(data["var"])
    return Op(data["op"], tuple(from_json_obj(a, Var, Op) for a in data["args"]))


def print_named(t) -> str:
    """Named term text: ``(lam [a] (app a x0))`` (shallow)."""
    if not hasattr(t, "args"):
        return t.name
    parts = [t.name]
    for binders, body in t.args:
        if binders:
            parts.append("[" + " ".join(binders) + "]")
        parts.append(print_named(body))
    return "(" + " ".join(parts) + ")"


def parse_named(text: str, NVar, NOp):
    """Inverse of :func:`print_named`, without recursion."""
    # frame: [name, pieces, pending binders or None, collecting binders]
    stack: list[list] = []
    result = None
    want_name = False
    for tok in _SEXPR_TOKEN.findall(text):
        if want_name:
            stack.append([tok, [], None, False])
            want_name = False
            continue
        if stack and stack[-1][3]:
            if tok == "]":
                stack[-1][3] = False
            else:
                stack[-1][2].append(tok)
            continue
        if tok == "[":
            stack[-1][2] = []
            stack[-1][3] = True
            continue
        if tok == "(":
            want_name = True
            continue
        if tok == ")":
            name, pieces, _, _ = stack.pop()
            node = NOp(name, tuple(pieces))
        else:
            node = NVar(tok)
        if stack:
            frame = stack[-1]
            frame[1].append((tuple(frame[2] or ()), node))
            frame[2] = None
        else:
            result = node
    if stack or want_name or result is None:
        raise ValueError("unbalanced named term")
    return result


def type_str(ty) -> str:
    """Type text with right-nested arrows, as the typed surface syntax."""
    if ty.ctor == "->" and len(ty.args) == 2:
        left, right = ty.args
        ls = f"({type_str(left)})" if left.ctor == "->" else type_str(left)
        return f"{ls} -> {type_str(right)}"
    if ty.args:
        return f"{ty.ctor}({', '.join(type_str(a) for a in ty.args)})"
    return ty.ctor


def print_typed(t) -> str:
    """Typed term text: ``(op[lam; a, a] (#0 : a))`` (shallow)."""
    if hasattr(t, "index"):
        return f"(#{t.index} : {type_str(t.ty)})"
    head = f"op[{t.name}; {', '.join(type_str(ty) for ty in t.type_args)}]"
    return "(" + " ".join([head, *(print_typed(a) for a in t.args)]) + ")"


def substituted_ok(t, out, image_at, binders) -> bool:
    """Check ``out`` against the substitution of ``t``, without recursion.

    ``image_at(j, depth)`` builds the expected image of free index ``j``
    under ``depth`` binders; ``binders`` maps operation names to their
    binder counts.
    """
    stack = [(t, out, 0)]
    while stack:
        x, y, depth = stack.pop()
        if is_var(x):
            if x.index < depth:
                if not (is_var(y) and y.index == x.index):
                    return False
            elif not same_term(image_at(x.index - depth, depth), y):
                return False
            continue
        if is_var(y) or y.name != x.name or len(y.args) != len(x.args):
            return False
        for a, b, n in zip(x.args, y.args, binders[x.name]):
            stack.append((a, b, depth + n))
    return True


def shifted(t, by: int, binders, Var, Op):
    """``t`` with every free index raised by ``by`` (shallow)."""

    def go(x, depth):
        if is_var(x):
            return Var(x.index + by) if x.index >= depth else x
        return Op(x.name, tuple(
            go(a, depth + n) for a, n in zip(x.args, binders[x.name])
        ))

    return go(t, 0)


def named_from_nameless(t, binders, NVar, NOp):
    """Named form of a nameless term (shallow).  Binder names are ``v<d>``
    by nesting depth, free indices ``x<n>``; the two never clash."""

    def go(x, env):
        if is_var(x):
            i = x.index
            return NVar(env[-1 - i] if i < len(env) else f"x{i - len(env)}")
        pieces = []
        for a, n in zip(x.args, binders[x.name]):
            names = tuple(f"v{len(env) + j}" for j in range(n))
            pieces.append((names, go(a, env + list(names))))
        return NOp(x.name, tuple(pieces))

    return go(t, [])


def nameless_from_named(t, Var, Op):
    """Nameless form of a named term, without recursion.  The innermost
    binder of a name wins; a free name must read ``x<n>``."""
    # frame: (node, env) to expand, or (name, arity) to build
    stack: list = [(t, ())]
    values: list = []
    while stack:
        node, env = stack.pop()
        if isinstance(node, str):
            k = env
            args = tuple(values[len(values) - k:])
            del values[len(values) - k:]
            values.append(Op(node, args))
            continue
        if not hasattr(node, "args"):
            name = node.name
            if name in env:
                values.append(Var(env.index(name)))
            elif re.fullmatch(r"x(0|[1-9][0-9]*)", name):
                values.append(Var(int(name[1:]) + len(env)))
            else:
                raise ValueError(f"unbound name {name!r}")
            continue
        stack.append((node.name, len(node.args)))
        for names, body in reversed(node.args):
            stack.append((body, tuple(reversed(names)) + env))
    return values[0]
