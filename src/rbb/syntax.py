"""Formula and reason-term data model for the language of reason-based belief.

The primitive language has propositional letters, negation, disjunction, a
support operator ``r:phi`` ("r is a reason that supports phi"), adequacy
atoms ``r`` ("r is an adequate reason"), a belief operator ``B``, equality
between reason symbols, and universal quantification over reasons.
Conjunction, implication, the biconditional, and the existential quantifier
are abbreviations; constructors expand them immediately, so structural
equality of formulas is syntactic identity of the expanded forms.

Reason terms are basic symbols, the distinguished master reason ``sigma``,
or application compounds ``s * r`` (available only in the App variant of the
theory family).  Quantifiers bind basic symbols only; ``sigma`` can never be
bound.

Every node is a frozen, slotted dataclass whose hash is computed once, when
the node is built, and kept in a ``_hash`` slot.  The cached value is the
plain dataclass hash of the field tuple, so sets and dicts of formulas
iterate in the same order as without the cache; what it saves is the
re-hash of the whole subtree on every memo lookup.  Equality walks an
explicit stack, so formulas of any depth compare; it skips identical
subtrees and stops at the first differing cached hash.  :func:`substitute`
finds capture in its one rewriting walk and returns every untouched subtree
as it is, so a quantifier's instances share its body's nodes.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Union

SIGMA_NAME = "sigma"

#: Words with fixed roles in the concrete syntax; unusable as symbol names.
RESERVED_WORDS = frozenset({"A", "E", "B"})


class CaptureError(ValueError):
    """Substitution would capture a free occurrence under a quantifier."""


def _brief(value: object) -> str:
    """``value`` for an error message: its repr, bounded in depth and cut to
    60 characters, so a large or deeply nested input is not echoed.  A string
    of up to 28 characters comes back as its plain repr."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _cached_hash(node) -> int:
    return node._hash


#: Every class made by ``_node``; nodes are never subclassed.
_NODE_TYPES: set[type] = set()


def _equal(self, other) -> bool:
    """Structural equality, iteratively (see the module docstring)."""
    if self is other:
        return True
    if type(other) not in _NODE_TYPES:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b) or a._hash != b._hash:
            return False
        for name in a.__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if type(x) in _NODE_TYPES:
                stack.append((x, y))
            elif x != y:
                return False
    return True


def _reduce(node):
    # Pickle and copy through the constructor (``__match_args__`` names its
    # fields): a cached hash of a str field holds only in the process that
    # computed it.
    return type(node), tuple(getattr(node, name) for name in node.__match_args__)


def _node(cls):
    """Make ``cls`` a frozen, slotted dataclass with its hash cached at construction.

    ``_hash`` is set after the class's own ``__post_init__`` checks, from the
    ``__hash__`` that ``dataclass`` generates; ``__hash__`` then reads it.
    ``__eq__`` is the iterative :func:`_equal`.
    """
    check = cls.__dict__.get("__post_init__")

    def __post_init__(self) -> None:
        if check is not None:
            check(self)
        object.__setattr__(self, "_hash", field_hash(self))

    cls.__annotations__ = {**cls.__dict__.get("__annotations__", {}), "_hash": "int"}
    cls._hash = field(init=False, repr=False, compare=False)
    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__  # the generated hash of the field tuple
    cls.__hash__ = _cached_hash
    cls.__eq__ = _equal
    cls.__reduce__ = _reduce
    _NODE_TYPES.add(cls)
    return cls


# ---------------------------------------------------------------------------
# Reason terms


@_node
class Basic:
    name: str

    def __post_init__(self) -> None:
        if self.name == SIGMA_NAME:
            raise ValueError("use Sigma() for the master reason, not Basic('sigma')")


@_node
class Sigma:
    """The distinguished master reason."""


@_node
class App:
    """Application compound ``left * right`` (App variant only)."""

    left: "Reason"
    right: "Reason"


Reason = Union[Basic, Sigma, App]
AtomicReason = Union[Basic, Sigma]

SIGMA = Sigma()


def atom_term(name: str) -> AtomicReason:
    """The atomic reason term written ``name`` (``sigma`` denotes the master reason)."""
    return SIGMA if name == SIGMA_NAME else Basic(name)


def term_name(term: AtomicReason) -> str:
    if type(term) is Sigma:
        return SIGMA_NAME
    return term.name


def term_symbols(term: Reason) -> frozenset[str]:
    """All reason symbols occurring in a term (App compounds are flattened)."""
    if type(term) is App:
        return term_symbols(term.left) | term_symbols(term.right)
    return frozenset({term_name(term)})


def contains_app(term: Reason) -> bool:
    return isinstance(term, App)


# ---------------------------------------------------------------------------
# Formulas


@_node
class Letter:
    name: str


@_node
class Not:
    sub: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Supports:
    reason: Reason
    sub: "Formula"


@_node
class Adequate:
    reason: Reason


@_node
class Believes:
    sub: "Formula"


@_node
class Eq:
    left: AtomicReason
    right: AtomicReason


@_node
class ForAll:
    var: str
    sub: "Formula"

    def __post_init__(self) -> None:
        if self.var == SIGMA_NAME:
            raise ValueError("the master reason sigma cannot be bound")
        if self.var in RESERVED_WORDS:
            raise ValueError(f"{self.var!r} is reserved and cannot be a binder")


Formula = Union[Letter, Not, Or, Supports, Adequate, Believes, Eq, ForAll]


# ---------------------------------------------------------------------------
# Derived connectives, expanded at construction


def impl(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(Not(antecedent), consequent)


def conj(*parts: Formula) -> Formula:
    """Left-folded conjunction; requires at least one conjunct."""
    if not parts:
        raise ValueError("conj needs at least one formula")
    out = parts[0]
    for part in parts[1:]:
        out = Not(Or(Not(out), Not(part)))
    return out


def disj(*parts: Formula) -> Formula:
    if not parts:
        raise ValueError("disj needs at least one formula")
    out = parts[0]
    for part in parts[1:]:
        out = Or(out, part)
    return out


def iff(left: Formula, right: Formula) -> Formula:
    return conj(impl(left, right), impl(right, left))


def exists(var: str, body: Formula) -> Formula:
    return Not(ForAll(var, Not(body)))


def neq(left: AtomicReason, right: AtomicReason) -> Formula:
    return Not(Eq(left, right))


# ---------------------------------------------------------------------------
# Destructuring helpers for the expanded abbreviations


def as_implies(formula: Formula) -> tuple[Formula, Formula] | None:
    if isinstance(formula, Or) and isinstance(formula.left, Not):
        return formula.left.sub, formula.right
    return None


def as_and(formula: Formula) -> tuple[Formula, Formula] | None:
    if (
        isinstance(formula, Not)
        and isinstance(formula.sub, Or)
        and isinstance(formula.sub.left, Not)
        and isinstance(formula.sub.right, Not)
    ):
        return formula.sub.left.sub, formula.sub.right.sub
    return None


def as_iff(formula: Formula) -> tuple[Formula, Formula] | None:
    pair = as_and(formula)
    if pair is None:
        return None
    fwd, bwd = (as_implies(p) for p in pair)
    if fwd is None or bwd is None:
        return None
    if fwd[0] == bwd[1] and fwd[1] == bwd[0]:
        return fwd
    return None


def as_exists(formula: Formula) -> tuple[str, Formula] | None:
    if (
        isinstance(formula, Not)
        and isinstance(formula.sub, ForAll)
        and isinstance(formula.sub.sub, Not)
    ):
        return formula.sub.var, formula.sub.sub.sub
    return None


def as_neq(formula: Formula) -> tuple[AtomicReason, AtomicReason] | None:
    if isinstance(formula, Not) and isinstance(formula.sub, Eq):
        return formula.sub.left, formula.sub.right
    return None


# ---------------------------------------------------------------------------
# Occurrence analysis and substitution


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Preorder traversal of all subformulas, the formula itself included.

    The walk keeps an explicit stack, so formulas of any depth are visited
    without recursion; the right operand is pushed first to keep preorder.
    """
    stack = [formula]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, Or):
            stack.append(f.right)
            stack.append(f.left)
        elif isinstance(f, (Not, Supports, Believes, ForAll)):
            stack.append(f.sub)


def formula_letters(formula: Formula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(formula) if isinstance(f, Letter))


def free_reasons(formula: Formula) -> frozenset[str]:
    """Reason symbols with at least one free occurrence.

    A symbol occurs in reason position as a support prefix, an adequacy atom,
    or an equality operand; occurrences under a matching quantifier are bound.
    Letters are never reason occurrences, even under a shared alphabet.
    """
    out: set[str] = set()
    stack: list[tuple[Formula, frozenset[str]]] = [(formula, frozenset())]
    while stack:
        f, bound = stack.pop()
        # Syntax nodes are never subclassed, so the exact type decides.
        kind = type(f)
        if kind is Or:
            stack.append((f.right, bound))
            stack.append((f.left, bound))
        elif kind is Not or kind is Believes:
            stack.append((f.sub, bound))
        elif kind is Supports:
            out.update(term_symbols(f.reason) - bound)
            stack.append((f.sub, bound))
        elif kind is Adequate:
            out.update(term_symbols(f.reason) - bound)
        elif kind is Eq:
            out.update(term_symbols(f.left) - bound)
            out.update(term_symbols(f.right) - bound)
        elif kind is not Letter:
            stack.append((f.sub, bound | {f.var}))
    return frozenset(out)


def is_free_for(s: str, r: str, formula: Formula) -> bool:
    """True when substituting ``s`` for free ``r`` in ``formula`` captures nothing.

    Equivalently: no free occurrence of ``r`` lies inside the scope of a
    quantifier binding ``s``.  Substituting a symbol for itself is always
    safe, and ``sigma`` is safe as a substituent because it cannot be bound.
    The walk keeps an explicit stack, so formulas of any depth are checked.
    """
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Or):
            stack += (f.right, f.left)
        elif isinstance(f, (Not, Supports, Believes)):
            stack.append(f.sub)
        elif not isinstance(f, ForAll) or f.var == r:
            continue
        elif f.var != s:
            stack.append(f.sub)
        elif r in free_reasons(f.sub):
            return False
    return True


def substitute(formula: Formula, r: str, s: str) -> Formula:
    """The formula with every free reason occurrence of ``r`` replaced by ``s``.

    One walk both rewrites and checks: it raises :class:`CaptureError` at a
    quantifier on ``s`` whose scope has a free ``r`` (exactly when
    :func:`is_free_for` is false).  Every subtree without a free ``r`` comes
    back as the same object, so the result shares them with ``formula``,
    and ``substitute(f, r, r)`` is ``f``.  Letter occurrences are untouched:
    substitution rewrites reason positions only.
    """
    if r == s:
        return formula
    repl = atom_term(s)

    def term(t: Reason) -> Reason:
        if type(t) is App:
            left, right = term(t.left), term(t.right)
            return t if left is t.left and right is t.right else App(left, right)
        return repl if term_name(t) == r else t

    def walk(f: Formula) -> Formula:
        kind = type(f)
        if kind is Letter:
            return f
        if kind is Not or kind is Believes:
            sub = walk(f.sub)
            return f if sub is f.sub else kind(sub)
        if kind is Or:
            left, right = walk(f.left), walk(f.right)
            return f if left is f.left and right is f.right else Or(left, right)
        if kind is Supports:
            reason, sub = term(f.reason), walk(f.sub)
            return f if reason is f.reason and sub is f.sub else Supports(reason, sub)
        if kind is Adequate:
            reason = term(f.reason)
            return f if reason is f.reason else Adequate(reason)
        if kind is Eq:
            left, right = term(f.left), term(f.right)
            if left is f.left and right is f.right:
                return f
            return Eq(left, right)  # type: ignore[arg-type]
        if f.var == r:
            return f
        sub = walk(f.sub)
        if sub is f.sub:
            return f
        # s differs from r, so the body changed only at a free r.
        if f.var == s:
            raise CaptureError(f"{_brief(s)} is not free for {_brief(r)}")
        return ForAll(f.var, sub)

    return walk(formula)


@lru_cache(maxsize=256)
def instances(quantifier: ForAll, names: tuple[str, ...]) -> tuple[Formula, ...]:
    """The capture-free instances of ``quantifier`` over ``names``, in their order.

    ``A t. phi`` is read substitutionally: one instance ``phi[s/t]`` for each
    name s that is free for t in phi, found by one :func:`substitute` walk
    per name that skips the name on :class:`CaptureError`.  The instances
    share every subtree of phi without a free t.  This is the one place
    instances are built; the results live in a small bounded cache shared
    by the whole process, keyed on the quantifier and the names.
    """
    out = []
    for name in names:
        try:
            out.append(substitute(quantifier.sub, quantifier.var, name))
        except CaptureError:
            pass
    return tuple(out)
