"""Parsers and printers: s-expression terms (nameless, named, typed),
signature and theory files, assignment and renaming literals.

All printers emit canonical text (single spaces, no trailing whitespace)
and round-trip through the corresponding parser.  Every reader reads one
list of token texts, and the term readers, ``print_term`` and the JSON
term writer and reader use explicit stacks, so terms 100 000 binders deep
are read and printed without recursion.
"""

from __future__ import annotations

import json
import re
from itertools import islice
from operator import length_hint
from typing import Callable, Optional

from .equational import EquationalTheory, ExplicitSubst, MetaVar, Rule, validate_theory
from .model import NOp, NVar, NamedTerm
from .signature import (
    BindingArity,
    BindingSignature,
    OpSchema,
    Record,
    TypeExpr,
    TypeGrammar,
    TypedArity,
    TypedSignatureSchema,
    validate_signature,
)
from .subst import NAT, Assignment
from .term import Term, Var, Op, fold_nodes, gc_paused, wellformed
from .typed import TOp, TVar, TypedTerm


class SourceSpan(Record):
    start: int
    end: int
    line: int
    column: int


class Diagnostic(Record):
    severity: str
    message: str
    span: Optional[SourceSpan] = None
    path: Optional[tuple[int, ...]] = None

    def __str__(self) -> str:
        loc = f"{self.span.line}:{self.span.column}: " if self.span else ""
        return f"{loc}{self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _fail(message: str, span: Optional[SourceSpan] = None):
    raise ParseError([Diagnostic("error", message, span)])


def _reject(errs: list[str]) -> None:
    if errs:
        raise ParseError([Diagnostic("error", e) for e in errs])


# One pass of ``findall`` yields the token texts; whitespace between them
# is skipped in C.  A token's kind follows from its text (``_kind``).  An
# opening parenthesis and the identifier right after it are one token,
# ``(name``: the term readers take it as an operation's head, and
# ``_Parser`` reads it as ``(`` and then ``name``.  The first character
# that starts no token starts the last one, which runs to the end of the
# text, so one look at the last token finds it.
_TOKEN_RE = re.compile(
    r"""
    [)\[\]{};,:^=?\#]               # punctuation, but (
  | \(?[A-Za-z_][A-Za-z0-9_']*      # an identifier, or ( and an identifier
  | 0|[1-9][0-9]*                   # a natural
  | ->|\|-|\(                       # an arrow, a turnstile, a lone (
  | \S[\s\S]*                       # an unexpected character, and the rest
    """,
    re.VERBOSE,
)
_KINDS = {p: p for p in "()[]{};,:^=?#"} | {"->": "arrow", "|-": "turnstile", "": "eof"}
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# How deep arrows, parentheses and constructor arguments nest in a written
# type.  This reader, ``TypeGrammar.wellformed`` and instantiation recurse,
# at most two frames a level, so at this depth they keep clear of the
# default limit of 1 000; ``==``, ``str``, ``repr`` and pickling do not.
MAX_TYPE_NESTING = 200


def _kind(tok: str) -> str:
    """``nat``, ``ident``, ``arrow``, ``turnstile``, ``eof`` for the end
    (the empty text), the text itself for punctuation and ``(name``, and
    ``unexpected`` from a character no token starts with."""
    kind = _KINDS.get(tok)
    if kind is None:
        c = tok[0]
        kind = "nat" if c in _DIGITS else "ident" if c in _IDENT_START else (
            "(" if c == "(" else "unexpected")
    return kind


def _span(source: str, start: int, end: int) -> SourceSpan:
    line_start = source.rfind("\n", 0, start)
    return SourceSpan(start, end, source.count("\n", 0, start) + 1, start - line_start)


class _Parser:
    """The token texts of ``text``, with ``""`` at the end, read from
    index ``pos``.  A ``(name`` token reads as ``(`` and then ``name``;
    ``cut`` is 1 once its ``(`` is read.  A token's source offset is found
    only when a diagnostic needs its span, by scanning up to it again.  An
    unexpected character is reported here, before any other fault."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        if self.toks and _kind(self.toks[-1]) == "unexpected":
            start = len(text) - len(self.toks[-1])
            _fail(f"unexpected character {text[start]!r}", _span(text, start, start + 1))
        self.toks.append("")
        self.pos = 0
        self.cut = 0
        self.nesting = 0  # the open type expressions

    def peek(self) -> str:
        tok = self.toks[self.pos]
        if self.cut:
            return tok[1:]
        return "(" if tok[:1] == "(" else tok

    def next(self) -> str:
        tok = self.peek()
        if not self.cut and tok != self.toks[self.pos]:  # the ( of a (name token
            self.cut = 1
        elif tok:  # the end is never passed
            self.pos += 1
            self.cut = 0
        return tok

    def span(self) -> SourceSpan:
        """The source span of the next token."""
        m = next(islice(_TOKEN_RE.finditer(self.text), self.pos, None), None)
        start = (m.start() if m else len(self.text)) + self.cut
        return _span(self.text, start, start + len(self.peek()))

    def expect(self, kind: str) -> str:
        tok = self.peek()
        if _kind(tok) != kind:
            _fail(f"expected {kind!r}, found {tok or 'end of input'!r}", self.span())
        return self.next()

    def at(self, kind: str) -> bool:
        return _kind(self.peek()) == kind

    def accept(self, kind: str) -> Optional[str]:
        return self.next() if self.at(kind) else None

    def keyword(self, *words: str) -> str:
        """The next token, left unread: an identifier among ``words``."""
        tok = self.peek()
        if _kind(tok) != "ident":
            self.expect("ident")
        if tok not in words:
            _fail(f"expected {' or '.join(map(repr, words))}, found '{tok}'", self.span())
        return tok

    def done(self):
        tok = self.peek()
        if tok:
            _fail(f"unexpected trailing input {tok!r}", self.span())

    def items(self, item: Callable[[], object], stop: str) -> list:
        """``item, item, ...`` up to ``stop``, which is left unread; empty
        when ``stop`` comes first."""
        if self.at(stop):
            return []
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    # -- types ----------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        """``atom -> type``, nested at most ``MAX_TYPE_NESTING`` deep, a
        level per arrow, parenthesis and constructor argument."""
        if self.nesting == MAX_TYPE_NESTING:
            _fail(f"type nested more than {MAX_TYPE_NESTING} levels deep", self.span())
        self.nesting += 1
        ty = self.type_atom()
        if self.accept("arrow"):
            ty = TypeExpr("->", (ty, self.type_expr()))
        self.nesting -= 1
        return ty

    def type_atom(self) -> TypeExpr:
        if self.accept("("):
            ty = self.type_expr()
            self.expect(")")
            return ty
        name = self.expect("ident")
        if self.accept("("):
            args = [self.type_expr()]
            while self.accept(","):
                args.append(self.type_expr())
            self.expect(")")
            return TypeExpr(name, tuple(args))
        return TypeExpr(name)

    # -- literals -------------------------------------------------------

    def nat(self) -> int:
        return int(self.expect("nat"))

    def literal(self, entry: Callable[[], object], var: Callable = Var) -> Assignment:
        """``[e, ...; ^k]``, each ``e`` read by ``entry``; the carrier's
        ``var`` makes it canonical."""
        self.expect("[")
        entries = self.items(entry, ";")
        self.expect(";")
        self.expect("^")
        shift = self.nat()
        self.expect("]")
        return Assignment(tuple(entries), shift, var)


# --- term readers ----------------------------------------------------------
#
# Each reads one term from ``p.pos`` in a single loop, with an explicit
# stack of the enclosing operations, and leaves ``p.pos`` after it.  The
# nameless and named readers walk the token list themselves and hand a
# token no term can take to ``p.expect`` for the diagnostic the grammar
# gives there; the typed reader, which carries little traffic, reads
# through the parser's own rules.  Their output is acyclic, so the nameless
# and named readers run with the cyclic collector paused.


@gc_paused
def _read_nameless(p: _Parser, meta: bool = False) -> Term:
    """A nameless term; with ``meta``, a metaterm, whose leaves may also
    be metavariables ``?i`` and explicit substitutions ``{t [e, ...; ^k]}``.
    ``name`` and ``args`` are the open operation's name and the arguments
    read so far, ``names`` and ``stack`` those of the enclosing ones.
    ``name`` is None at the root and inside an explicit substitution,
    whose ``args`` are its body and then its entries."""
    toks = p.toks
    it = iter(toks)
    it.__setstate__(p.pos)  # a list iterator's state is its index
    names: list[Optional[str]] = []
    stack: list[list] = []
    name, args = None, []
    known: dict[str, object] = {}  # token text -> its Var, or the name of a (name token
    for tok in it:
        if tok == ")" and name is not None:
            node = Op(name, args)
            name = names.pop()
            args = stack.pop()
        else:
            node = known.get(tok)
            if node is None:
                p.pos = len(toks) - length_hint(it)  # after tok
                kind = _kind(tok)
                if kind == "nat":
                    node = known[tok] = Var(int(tok))
                elif tok == "(":
                    node = p.expect("ident")
                    it.__setstate__(p.pos)
                elif kind == "(":
                    node = known[tok] = tok[1:]
                elif meta and tok == "?":
                    node = MetaVar(p.nat())
                    it.__setstate__(p.pos)
                elif meta and tok == "{":
                    names.append(name)
                    stack.append(args)
                    name, args = None, []
                    continue
                else:
                    p.pos -= 1
                    p.expect("(")  # fails: no term starts here
            if type(node) is str:
                names.append(name)
                stack.append(args)
                name, args = node, []
                continue
        args.append(node)
        while name is None:  # at the root, or after the body or an entry of {body [e, ...; ^k]}
            p.pos = len(toks) - length_hint(it)
            if not stack:
                return node
            if len(args) == 1:
                p.expect("[")
                more = not p.at(";")
            else:
                more = p.accept(",") is not None
            if not more:
                p.expect(";")
                p.expect("^")
                shift = p.nat()
                p.expect("]")
                p.expect("}")
                node = ExplicitSubst(args[0], Assignment(tuple(args[1:]), shift))
                name = names.pop()
                args = stack.pop()
                args.append(node)
            it.__setstate__(p.pos)
            if more:
                break
    raise AssertionError("unreachable: the end token fails p.expect")


@gc_paused
def _read_named(p: _Parser) -> NamedTerm:
    """A named term.  ``bound`` holds the binder names of the open
    operation's next argument once its ``[...]`` is read, else None."""
    toks = p.toks
    it = iter(toks)
    it.__setstate__(p.pos)
    frames: list[tuple[Optional[str], list, Optional[tuple]]] = []
    name, args, bound = None, [], None
    known: dict[str, object] = {}  # token text -> its NVar, or the name of a (name token
    for tok in it:
        if tok == ")" and name is not None and bound is None:
            node = NOp(name, tuple(args))
            name, args, bound = frames.pop()
        else:
            node = known.get(tok)
            if node is None:
                p.pos = len(toks) - length_hint(it)  # after tok
                kind = _kind(tok)
                if kind == "ident":
                    node = known[tok] = NVar(tok)
                elif tok == "(":
                    node = p.expect("ident")
                    it.__setstate__(p.pos)
                elif kind == "(":
                    node = known[tok] = tok[1:]
                elif tok == "[" and name is not None and bound is None:
                    names = []
                    while not p.accept("]"):
                        names.append(p.expect("ident"))
                    it.__setstate__(p.pos)
                    bound = tuple(names)
                    continue
                else:
                    p.pos -= 1
                    p.expect("(")  # fails: no term starts here
            if type(node) is str:
                frames.append((name, args, bound))
                name, args, bound = node, [], None
                continue
        if name is None:
            p.pos = len(toks) - length_hint(it)
            return node
        args.append((bound or (), node))
        bound = None
    raise AssertionError("unreachable: the end token fails p.expect")


def _read_typed(p: _Parser) -> TypedTerm:
    """A typed term.  ``head`` is the open operation's name and type
    arguments, None at the root; ``args`` its arguments read so far."""
    frames: list[tuple[Optional[tuple], list]] = []
    head, args = None, []
    while True:
        if head is not None and p.accept(")"):
            node = TOp(*head, tuple(args))
            head, args = frames.pop()
        else:
            p.expect("(")
            if p.accept("#"):
                index = p.nat()
                p.expect(":")
                ty = p.type_expr()
                p.expect(")")
                node = TVar(index, ty)
            else:
                if p.at("ident") and p.peek() != "op":
                    _fail("expected 'op' or '#' in typed term", p.span())
                p.expect("ident")
                p.expect("[")
                name = p.expect("ident")
                targs = p.items(p.type_expr, "]") if p.accept(";") else []
                p.expect("]")
                frames.append((head, args))
                head, args = (name, tuple(targs)), []
                continue
        if head is None:
            return node
        args.append(node)


# --- public parse functions ---------------------------------------------


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.type_expr()
    p.done()
    return ty


_TERM_READERS = {"nameless": _read_nameless, "named": _read_named, "typed": _read_typed}


def parse_term(text: str, mode: str = "nameless", sig: Optional[BindingSignature] = None):
    """Parse a term; with a signature, nameless terms are arity-checked."""
    p = _Parser(text)
    if mode not in _TERM_READERS:
        raise ValueError(f"unknown mode {mode!r}")
    t = _TERM_READERS[mode](p)
    p.done()
    if sig is not None and mode == "nameless":
        _reject(wellformed(sig, t))
    return t


def parse_renaming(text: str) -> Assignment:
    p = _Parser(text)
    r = p.literal(p.nat, NAT)
    p.done()
    return r


def parse_assignment(text: str, sig: Optional[BindingSignature] = None) -> Assignment:
    p = _Parser(text)
    a = p.literal(lambda: _read_nameless(p))
    p.done()
    if sig is not None:
        for t in a.prefix:
            _reject(wellformed(sig, t))
    return a


# --- printers ------------------------------------------------------------


def print_term(t) -> str:
    """Canonical text of a nameless, named or typed term, or of a natural
    (an entry of a renaming); ``print_term(to_named(sig, t))`` names ``t``.

    One explicit stack holds the nodes still to print and, between them,
    the text that follows each; the pieces are joined once.  A variable
    argument is printed into the text after it, so it is never pushed.  A
    string argument, not a term, is pushed as the ``TypeError`` it raises
    when its turn comes."""
    out: list[str] = []
    stack = [t]
    push, pop, emit = stack.append, stack.pop, out.append
    while stack:
        x = pop()
        if type(x) is str:
            emit(x)
        elif type(x) is Op:
            after = ")"
            for a in reversed(x.args):
                if type(a) is Var:
                    after = f" {a.index}{after}"
                else:
                    push(after)
                    push(TypeError(a) if type(a) is str else a)
                    after = " "
            emit(f"({x.name}{after}")
        elif type(x) is Var:
            emit(str(x.index))
        elif type(x) is NOp:
            after = ")"
            for binders, body in reversed(x.args):
                if type(body) is NVar:
                    after = f" {body.name}{after}"
                else:
                    push(after)
                    push(body)
                    after = " "
                if binders:
                    after = f" [{' '.join(binders)}]{after}"
            emit(f"({x.name}{after}")
        elif type(x) is NVar:
            emit(x.name)
        else:
            match x:
                case TVar(index, ty):
                    emit(f"(#{index} : {ty})")
                case TOp(name, targs, args):
                    push(")")
                    for a in reversed(args):
                        push(TypeError(a) if type(a) is str else a)
                        push(" ")
                    emit(f"(op[{name}; {', '.join(str(ty) for ty in targs)}]")
                case int():
                    emit(str(x))
                case TypeError():
                    raise x
                case _:
                    raise TypeError(x)
    return "".join(out)


def print_assignment(a: Assignment) -> str:
    """``[e, ...; ^k]``, renamings included: their entries are naturals."""
    return "[" + ", ".join(map(print_term, a.prefix)) + f"; ^{a.tail_shift}]"


def term_to_json(t: Term):
    """``{"var": n}`` or ``{"op": name, "args": [...]}``, by one walk with an
    explicit stack; ``json.dumps`` of a deep result still nests, and
    :func:`print_json` writes the same text without it."""
    return fold_nodes(t, lambda v: {"var": v.index}, lambda o, args: {"op": o.name, "args": args})


def print_json(t: Term) -> str:
    """``json.dumps(term_to_json(t), separators=(", ", ": "))``, byte for
    byte, written from ``t`` with the explicit stack of :func:`print_term`:
    no object form, and no nesting limit.  Each name and each index that
    is not a plain ``int`` goes through ``json.dumps``."""
    names: dict = {}  # operation name -> its JSON text
    out: list[str] = []
    stack = [t]
    push, pop, emit = stack.append, stack.pop, out.append
    while stack:
        x = pop()
        if type(x) is str:
            emit(x)
        elif type(x) is Op:
            after = "]}"
            args = x.args
            for i in range(len(args) - 1, -1, -1):
                a = args[i]
                if type(a) is Var:
                    after = f'{{"var": {_json_index(a.index)}}}{after}'
                elif type(a) is Op:
                    push(after)
                    push(a)
                    after = ""
                else:
                    raise TypeError(f"not a term: {a!r}")
                if i:
                    after = ", " + after
            name = names.get(x.name)
            if name is None:
                name = names[x.name] = json.dumps(x.name)
            emit(f'{{"op": {name}, "args": [{after}')
        elif type(x) is Var:
            emit(f'{{"var": {_json_index(x.index)}}}')
        else:
            raise TypeError(f"not a term: {x!r}")
    return "".join(out)


def _json_index(i) -> str:
    return str(i) if type(i) is int else json.dumps(i)


def term_from_json(data) -> Term:
    """``{"var": n}`` or ``{"op": name, "args": [...]}``, with exactly
    these keys; any other shape raises ``ValueError``.  One walk with an
    explicit stack of the open operations, each with its name, its
    arguments' data and their values so far."""
    frames: list[tuple[str, list, list]] = []
    while True:
        # exact type tests: a bool is not an index, and a match statement's
        # mapping patterns cost three times as much per node
        if type(data) is not dict:
            raise ValueError(f"not a JSON term: {data!r}")
        if len(data) == 1 and type(data.get("var")) is int:
            value = Var(data["var"])
        elif len(data) == 2 and type(data.get("op")) is str and type(data.get("args")) is list:
            frames.append((data["op"], data["args"], []))
            value = None
        else:
            raise ValueError(f"not a JSON term: {data!r}")
        while frames:  # hand the value up, to the first operation with an argument left
            name, items, values = frames[-1]
            if value is not None:
                values.append(value)
            if len(values) < len(items):
                data = items[len(values)]
                break
            value = Op(name, tuple(values))
            frames.pop()
        else:
            return value


# --- signature and theory files ------------------------------------------


class SignatureFile(Record, frozen=False):
    signatures: dict[str, BindingSignature]
    schemas: dict[str, TypedSignatureSchema]


def _parse_typedecl(p: _Parser, ctors: dict[str, int]) -> None:
    """``{ name; name(n); ... }`` after the ``types`` keyword, added to
    ``ctors``, the constructors of every block read so far."""
    p.expect("{")
    while not p.at("}"):
        name = p.expect("ident")
        n = 0
        if p.accept("("):
            n = p.nat()
            p.expect(")")
        if name in ctors:
            _fail(f"duplicate type constructor '{name}'")
        ctors[name] = n
        p.expect(";")
    p.expect("}")


def _parse_opdecl(p: _Parser) -> tuple[str, BindingArity | OpSchema]:
    """``name : (n, ...);`` or ``name [metavars] : premises -> type;``,
    after the ``op`` keyword."""
    name = p.expect("ident")
    if p.accept("["):
        metavars = p.items(lambda: p.expect("ident"), "]")
        p.expect("]")
        p.expect(":")

        def premise():
            p.expect("(")
            gamma = p.items(p.type_expr, "turnstile")
            p.expect("turnstile")
            tau = p.type_expr()
            p.expect(")")
            return tuple(gamma), tau

        premises = p.items(premise, "arrow")
        p.expect("arrow")
        conclusion = p.type_expr()
        p.expect(";")
        return name, OpSchema(name, tuple(metavars), TypedArity(tuple(premises), conclusion))
    p.expect(":")
    p.expect("(")
    binders = p.items(p.nat, ")")
    p.expect(")")
    p.expect(";")
    return name, BindingArity(tuple(binders))


def _signature_block(p: _Parser, grammar: Optional[TypeGrammar]):
    """``name { op ...; }`` after the ``signature`` keyword: returns the
    name and a ``BindingSignature``, or a ``TypedSignatureSchema`` over
    ``grammar``.  Without a grammar (a theory file) a typed operation is
    an error."""
    name = p.expect("ident")
    p.expect("{")
    ops: dict[str, BindingArity | OpSchema] = {}
    while not p.at("}"):
        if p.peek() != "op":
            _fail(f"expected 'op', found '{p.peek()}'", p.span())
        p.next()
        op, decl = _parse_opdecl(p)
        if grammar is None and isinstance(decl, OpSchema):
            _fail("theory signatures must be untyped")
        if op in ops:
            _fail(f"duplicate operation name '{op}'")
        ops[op] = decl
    p.expect("}")
    typed = sum(isinstance(d, OpSchema) for d in ops.values())
    if 0 < typed < len(ops):
        _fail(f"signature '{name}' mixes typed and untyped operations")
    sig = TypedSignatureSchema(grammar, ops) if typed else BindingSignature(ops)
    _reject(validate_signature(sig))
    return name, sig


def parse_signature_file(text: str) -> SignatureFile:
    p = _Parser(text)
    ctors: dict[str, int] = {}
    f = SignatureFile({}, {})
    while not p.at("eof"):
        if p.keyword("types", "signature") == "types":
            p.next()
            _parse_typedecl(p, ctors)
            continue
        p.next()
        name, sig = _signature_block(p, TypeGrammar(ctors | {"->": 2}))
        if name in f.signatures or name in f.schemas:
            _fail(f"duplicate signature name '{name}'")
        if isinstance(sig, BindingSignature):
            f.signatures[name] = sig
        else:
            f.schemas[name] = sig
    return f


def parse_theory_file(text: str) -> EquationalTheory:
    """A theory file holds one untyped signature plus ``eq`` declarations:
    ``eq name [n1, n2] : metaterm = metaterm ;``"""
    p = _Parser(text)
    signature: Optional[BindingSignature] = None
    rules: list[Rule] = []
    while not p.at("eof"):
        if p.keyword("signature", "eq") == "signature":
            if signature is not None:
                _fail("theory file declares more than one signature", p.span())
            p.next()
            _, signature = _signature_block(p, None)
            continue
        p.next()
        name = p.expect("ident")
        p.expect("[")
        parens = p.accept("(") is not None
        binders = p.items(p.nat, ")" if parens else "]")
        if parens:
            p.expect(")")
        p.expect("]")
        p.expect(":")
        left = _read_nameless(p, meta=True)
        p.expect("=")
        right = _read_nameless(p, meta=True)
        p.expect(";")
        rules.append(Rule(name, BindingArity(tuple(binders)), left, right))
    if signature is None:
        _fail("theory file declares no signature")
    theory = EquationalTheory(signature, tuple(rules))
    _reject(validate_theory(theory))
    return theory


def print_signature(name: str, sig: BindingSignature) -> str:
    lines = [f"signature {name} {{"]
    for op, a in sig.ops.items():
        lines.append(f"  op {op} : ({', '.join(str(n) for n in a.binders)});")
    lines.append("}")
    return "\n".join(lines) + "\n"
