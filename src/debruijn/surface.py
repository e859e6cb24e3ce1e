"""Parsers and printers: s-expression terms (nameless, named, typed),
signature and theory files, assignment and renaming literals.

All printers emit canonical text (single spaces, no trailing whitespace)
and round-trip through the corresponding parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .equational import EquationalTheory, ExplicitSubst, MetaVar, Rule, validate_theory
from .model import NOp, NVar, NamedTerm
from .signature import (
    BindingArity,
    BindingSignature,
    OpSchema,
    TypeExpr,
    TypeGrammar,
    TypedArity,
    TypedSignatureSchema,
    validate_signature,
)
from .subst import NAT, Assignment
from .term import Term, Var, Op, wellformed
from .typed import TOp, TVar, TypedTerm


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
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


_TOKEN_RE = re.compile(
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


def _span(source: str, start: int, end: int) -> SourceSpan:
    line_start = source.rfind("\n", 0, start)
    return SourceSpan(start, end, source.count("\n", 0, start) + 1, start - line_start)


class Token(NamedTuple):
    """A token and its start offset in ``source``; its line and column
    are worked out only when a diagnostic asks for its span."""

    kind: str
    text: str
    start: int
    source: str

    @property
    def span(self) -> SourceSpan:
        return _span(self.source, self.start, self.start + len(self.text))


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            _fail(f"unexpected character {text[pos]!r}", _span(text, pos, pos + 1))
        kind = m.lastgroup
        if kind != "ws":
            chunk = m.group()
            tokens.append(Token(chunk if kind == "punct" else kind, chunk, pos, text))
        pos = m.end()
    tokens.append(Token("eof", "", pos, text))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            _fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def accept(self, kind: str) -> Optional[Token]:
        return self.next() if self.at(kind) else None

    def done(self):
        tok = self.peek()
        if tok.kind != "eof":
            _fail(f"unexpected trailing input {tok.text!r}", tok.span)

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

    # -- nameless terms and metaterms -----------------------------------

    def nameless(self, meta: bool = False) -> Term:
        """A nameless term; with ``meta``, a metaterm, whose leaves may also
        be metavariables ``?i`` and explicit substitutions ``{t [...]}``."""
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

    # -- named terms ----------------------------------------------------

    def named(self) -> NamedTerm:
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

    # -- typed terms ----------------------------------------------------

    def typed(self) -> TypedTerm:
        self.expect("(")
        if self.accept("#"):
            index = self.nat()
            self.expect(":")
            ty = self.type_expr()
            self.expect(")")
            return TVar(index, ty)
        head = self.expect("ident")
        if head.text != "op":
            _fail("expected 'op' or '#' in typed term", head.span)
        self.expect("[")
        name = self.expect("ident").text
        targs = self.items(self.type_expr, "]") if self.accept(";") else []
        self.expect("]")
        args = []
        while not self.at(")"):
            args.append(self.typed())
        self.expect(")")
        return TOp(name, tuple(targs), tuple(args))

    # -- literals -------------------------------------------------------

    def nat(self) -> int:
        return int(self.expect("nat").text)

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


# --- public parse functions ---------------------------------------------


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    ty = p.type_expr()
    p.done()
    return ty


_TERM_READERS = {"nameless": _Parser.nameless, "named": _Parser.named, "typed": _Parser.typed}


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
    a = p.literal(p.nameless)
    p.done()
    if sig is not None:
        for t in a.prefix:
            _reject(wellformed(sig, t))
    return a


# --- printers ------------------------------------------------------------


def print_term(t) -> str:
    """Canonical text of a nameless, named or typed term, or of a natural
    (an entry of a renaming); ``print_term(to_named(sig, t))`` names ``t``."""
    match t:
        case Var(index):
            return str(index)
        case Op(name, args):
            return "(" + " ".join([name, *(print_term(a) for a in args)]) + ")"
        case NVar(name):
            return name
        case NOp(name, args):
            parts = [name]
            for binders, body in args:
                if binders:
                    parts.append("[" + " ".join(binders) + "]")
                parts.append(print_term(body))
            return "(" + " ".join(parts) + ")"
        case TVar(index, ty):
            return f"(#{index} : {ty})"
        case TOp(name, targs, args):
            head = f"op[{name}; {', '.join(str(ty) for ty in targs)}]"
            return "(" + " ".join([head, *(print_term(a) for a in args)]) + ")"
        case int():
            return str(t)
    raise TypeError(t)


def print_assignment(a: Assignment) -> str:
    """``[e, ...; ^k]``, renamings included: their entries are naturals."""
    return "[" + ", ".join(map(print_term, a.prefix)) + f"; ^{a.tail_shift}]"


def term_to_json(t: Term):
    match t:
        case Var(index):
            return {"var": index}
        case Op(name, args):
            return {"op": name, "args": [term_to_json(a) for a in args]}
    raise TypeError(t)


def term_from_json(data) -> Term:
    """``{"var": n}`` or ``{"op": name, "args": [...]}``, with exactly
    these keys; any other shape raises ``ValueError``."""
    # exact type tests: a bool is not an index, and a match statement's
    # mapping patterns cost three times as much per node
    if type(data) is dict:
        if len(data) == 1 and type(data.get("var")) is int:
            return Var(data["var"])
        if len(data) == 2 and type(data.get("op")) is str and type(data.get("args")) is list:
            return Op(data["op"], tuple(term_from_json(a) for a in data["args"]))
    raise ValueError(f"not a JSON term: {data!r}")


# --- signature and theory files ------------------------------------------


@dataclass
class SignatureFile:
    signatures: dict[str, BindingSignature]
    schemas: dict[str, TypedSignatureSchema]


def _parse_typedecl(p: _Parser, ctors: dict[str, int]) -> None:
    """``{ name; name(n); ... }`` after the ``types`` keyword, added to
    ``ctors``, the constructors of every block read so far."""
    p.expect("{")
    while not p.at("}"):
        name = p.expect("ident").text
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
    name = p.expect("ident").text
    if p.accept("["):
        metavars = p.items(lambda: p.expect("ident").text, "]")
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
    name = p.expect("ident").text
    p.expect("{")
    ops: dict[str, BindingArity | OpSchema] = {}
    while not p.at("}"):
        kw = p.next()
        if kw.text != "op":
            _fail(f"expected 'op', found '{kw.text}'", kw.span)
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
        tok = p.expect("ident")
        if tok.text == "types":
            _parse_typedecl(p, ctors)
            continue
        if tok.text != "signature":
            _fail(f"expected 'types' or 'signature', found '{tok.text}'", tok.span)
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
        tok = p.expect("ident")
        if tok.text == "signature":
            if signature is not None:
                _fail("theory file declares more than one signature", tok.span)
            _, signature = _signature_block(p, None)
            continue
        if tok.text != "eq":
            _fail(f"expected 'signature' or 'eq', found '{tok.text}'", tok.span)
        name = p.expect("ident").text
        p.expect("[")
        parens = p.accept("(") is not None
        binders = p.items(p.nat, ")" if parens else "]")
        if parens:
            p.expect(")")
        p.expect("]")
        p.expect(":")
        left = p.nameless(meta=True)
        p.expect("=")
        right = p.nameless(meta=True)
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
