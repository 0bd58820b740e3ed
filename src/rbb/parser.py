"""Concrete ASCII syntax: parsing and canonical printing.

Grammar operators, tightest first::

    r:phi        support (the prefix is a reason term; App compounds use *)
    ~phi  B phi  negation and belief, prefix
    &            conjunction, left-associative
    |            disjunction, left-associative
    ->           implication, right-associative
    <->          biconditional, right-associative
    A r. / E r.  quantifiers; the scope extends to the end of the
                 enclosing parenthesized group

Atoms are letters, bare reason names (adequacy), equalities ``r = s`` and
``r != s``, and parenthesized formulas.  Application terms ``s * r`` are
left-associative and live in reason position; a bare ``s * r`` in formula
position is the adequacy atom of the compound.

Identifiers resolve against the declared alphabets of a
:class:`~rbb.theory.TheoryConfig`: a bound quantifier variable shadows both
alphabets, otherwise a declared reason wins over a declared letter when the
alphabets overlap (the pair-property makes the two readings agree on
validated models).  Quantifiers may bind symbols outside the declared
alphabet; substitution instances still range over the declared reasons only.

``parse(print_formula(f), cfg)`` returns ``f`` for every formula over the
declared alphabets whose letters avoid the overlap with the reasons.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    RESERVED_WORDS,
    SIGMA_NAME,
    Adequate,
    App,
    AtomicReason,
    Basic,
    Believes,
    Eq,
    ForAll,
    Formula,
    Letter,
    Not,
    Or,
    Reason,
    Sigma,
    Supports,
    _brief,
    as_and,
    as_exists,
    as_iff,
    as_implies,
    as_neq,
    atom_term,
    conj,
    exists,
    iff,
    impl,
    neq,
    term_name,
)
from .theory import TheoryConfig


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


#: One token after optional whitespace: punctuation (longest first), a word,
#: or any other character, which is an error.  ``\w`` is ``str.isalnum`` or
#: ``_``, as an identifier's later characters are; its first character must
#: also pass ``str.isalpha`` or be ``_``, which ``_lex`` checks.
_TOKEN = re.compile(r"\s*(?:(<->|->|!=|[~&|():=*.])|(\w+)|(\S))")


class _Token(NamedTuple):
    kind: str  # punctuation string, "ident", "kw", or "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _lex(text: str) -> list[_Token]:
    out: list[_Token] = []
    for match in _TOKEN.finditer(text):
        punct, word, _ = match.groups()
        start, end = match.span(match.lastindex)
        if punct is not None:
            out.append(_Token(punct, punct, start, end))
        elif word is not None and (word[0].isalpha() or word[0] == "_"):
            kind = "kw" if word in RESERVED_WORDS else "ident"
            out.append(_Token(kind, word, start, end))
        else:
            raise ParseError(
                f"unexpected character {text[start]!r}", SourceSpan(start, start + 1)
            )
    out.append(_Token("eof", "", len(text), len(text)))
    return out


class _Parser:
    def __init__(self, text: str, cfg: TheoryConfig):
        self.cfg = cfg
        self.toks = _lex(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.take()
        return None

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {_brief(shown)}", tok.span)
        return self.take()

    # -- identifier resolution ---------------------------------------------

    def _resolve_atom(self, tok: _Token, bound: frozenset[str]) -> Formula:
        name = tok.text
        if name in bound or name == SIGMA_NAME or name in self.cfg.reasons:
            return Adequate(self._resolve_reason(tok, bound))
        if name in self.cfg.letters:
            return Letter(name)
        raise ParseError(f"undeclared symbol {_brief(name)}", tok.span)

    def _resolve_reason(self, tok: _Token, bound: frozenset[str]) -> AtomicReason:
        name = tok.text
        if name in bound:
            return atom_term(name)
        if name == SIGMA_NAME:
            if not self.cfg.sigma:
                raise ParseError("'sigma' requires a sigma theory", tok.span)
            return Sigma()
        if name in self.cfg.reasons:
            return Basic(name)
        raise ParseError(f"{_brief(name)} is not a declared reason", tok.span)

    # -- grammar -----------------------------------------------------------

    def formula(self, bound: frozenset[str]) -> Formula:
        left = self.implication(bound)
        if self.accept("<->"):
            return iff(left, self.formula(bound))
        return left

    def implication(self, bound: frozenset[str]) -> Formula:
        left = self.disjunction(bound)
        if self.accept("->"):
            return impl(left, self.implication(bound))
        return left

    def disjunction(self, bound: frozenset[str]) -> Formula:
        out = self.conjunction(bound)
        while self.accept("|"):
            out = Or(out, self.conjunction(bound))
        return out

    def conjunction(self, bound: frozenset[str]) -> Formula:
        out = self.unary(bound)
        while self.accept("&"):
            out = conj(out, self.unary(bound))
        return out

    def unary(self, bound: frozenset[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.unary(bound))
        if tok.kind == "kw" and tok.text == "B":
            self.take()
            return Believes(self.unary(bound))
        if tok.kind == "kw":
            return self.quantifier(bound)
        return self.atom(bound)

    def quantifier(self, bound: frozenset[str]) -> Formula:
        head = self.take()
        if not self.cfg.quantified:
            raise ParseError(
                f"{head.text!r} needs a quantified theory", head.span
            )
        var = self.expect("ident", "a binder name")
        if var.text == SIGMA_NAME:
            raise ParseError("sigma cannot be bound", var.span)
        if var.text in self.cfg.letters and var.text not in self.cfg.reasons:
            raise ParseError(f"binder {_brief(var.text)} collides with a letter", var.span)
        self.expect(".", "'.' after the binder")
        body = self.formula(bound | {var.text})
        if head.text == "A":
            return ForAll(var.text, body)
        return exists(var.text, body)

    def atom(self, bound: frozenset[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.formula(bound)
            self.expect(")", "')'")
            if self.peek().kind in (":", "*"):
                return self.reason_continuation(self._as_term(inner, tok), bound)
            return inner
        if tok.kind == "ident":
            self.take()
            nxt = self.peek().kind
            if nxt in (":", "*"):
                return self.reason_continuation(self._resolve_reason(tok, bound), bound)
            if nxt in ("=", "!="):
                op = self.take()
                if not self.cfg.quantified:
                    raise ParseError(
                        "identity claims need a quantified theory", op.span
                    )
                right = self.expect("ident", "a reason name")
                left_term = self._resolve_reason(tok, bound)
                right_term = self._resolve_reason(right, bound)
                if op.kind == "=":
                    return Eq(left_term, right_term)
                return neq(left_term, right_term)
            return self._resolve_atom(tok, bound)
        shown = tok.text or "end of input"
        raise ParseError(f"expected a formula, found {_brief(shown)}", tok.span)

    def _as_term(self, inner: Formula, opener: _Token) -> Reason:
        if isinstance(inner, Adequate):
            return inner.reason
        raise ParseError("expected a reason term before ':' or '*'", opener.span)

    def reason_continuation(self, term: Reason, bound: frozenset[str]) -> Formula:
        """Continue after a parsed reason term: App chain, then support or adequacy."""
        term = self.app_chain(term, bound)
        if self.accept(":"):
            # The right operand of ':': an atom, possibly itself a support chain.
            return Supports(term, self.atom(bound))
        return Adequate(term)

    def app_chain(self, term: Reason, bound: frozenset[str]) -> Reason:
        """``term`` applied, left to right, to each ``* factor`` that follows."""
        while (star := self.accept("*")) is not None:
            if not self.cfg.app:
                raise ParseError("application terms require the App variant", star.span)
            term = App(term, self.app_factor(bound))
        return term

    def app_factor(self, bound: frozenset[str]) -> Reason:
        if self.accept("(") is not None:
            term = self.app_chain(self.app_factor(bound), bound)
            self.expect(")", "')'")
            return term
        ident = self.expect("ident", "a reason name")
        return self._resolve_reason(ident, bound)


def parse(text: str, cfg: TheoryConfig) -> Formula:
    """Parse concrete syntax into a formula over the declared alphabets."""
    parser = _Parser(text, cfg)
    out = parser.formula(frozenset())
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing {_brief(trailing.text)}", trailing.span)
    return out


# ---------------------------------------------------------------------------
# Printing.  Levels, loosest to tightest: quantifier 1, <-> 2, -> 3, | 4,
# & 5, prefix 6, support 7, atoms 9.  Sugar for the expanded abbreviations is
# re-folded, so printing is canonical: structurally equal formulas print
# identically, and ~p | q comes back as p -> q.


def print_reason(term: Reason) -> str:
    if isinstance(term, App):
        left = print_reason(term.left)
        right = print_reason(term.right)
        if isinstance(term.right, App):
            right = f"({right})"
        return f"{left} * {right}"
    return term_name(term)


def _print(f: Formula, level: int) -> str:
    text, own = _print_node(f)
    if own < level:
        return f"({text})"
    return text


def _print_node(f: Formula) -> tuple[str, int]:
    pair = as_neq(f)
    if pair is not None:
        return f"{print_reason(pair[0])} != {print_reason(pair[1])}", 9
    trip = as_iff(f)
    if trip is not None:
        return f"{_print(trip[0], 3)} <-> {_print(trip[1], 2)}", 2
    pair = as_and(f)
    if pair is not None:
        return f"{_print(pair[0], 5)} & {_print(pair[1], 6)}", 5
    quant = as_exists(f)
    if quant is not None:
        return f"E {quant[0]}. {_print(quant[1], 1)}", 1
    pair = as_implies(f)
    if pair is not None:
        return f"{_print(pair[0], 4)} -> {_print(pair[1], 3)}", 3
    if isinstance(f, Letter):
        return f.name, 9
    if isinstance(f, Not):
        return f"~{_print(f.sub, 6)}", 6
    if isinstance(f, Or):
        return f"{_print(f.left, 4)} | {_print(f.right, 5)}", 4
    if isinstance(f, Supports):
        return f"{print_reason(f.reason)}:{_print(f.sub, 7)}", 7
    if isinstance(f, Adequate):
        return print_reason(f.reason), 9
    if isinstance(f, Believes):
        return f"B {_print(f.sub, 6)}", 6
    if isinstance(f, Eq):
        return f"{print_reason(f.left)} = {print_reason(f.right)}", 9
    return f"A {f.var}. {_print(f.sub, 1)}", 1


def print_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; ``parse`` round-trips it."""
    return _print(f, 0)
