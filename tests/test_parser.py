import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from corpus import class_config, random_formula
from rbb.parser import ParseError, SourceSpan, _lex, parse, print_formula, print_reason
from rbb.syntax import (
    RESERVED_WORDS,
    SIGMA,
    Adequate,
    App,
    Believes,
    Eq,
    ForAll,
    Letter,
    Not,
    Or,
    Supports,
    atom_term,
    conj,
    iff,
    impl,
)
from rbb.theory import TheoryConfig

CFG = TheoryConfig.from_name("QRBB", ("r", "s"), ("p", "q"))
SIGMA_CFG = TheoryConfig.from_name("RBBs", ("r", "s"), ("p", "q"))

P, Q = Letter("p"), Letter("q")
R, S = atom_term("r"), atom_term("s")


def test_supports_binds_tighter_than_implication():
    assert parse("r:p -> q", CFG) == impl(Supports(R, P), Q)


def test_negation_scopes_over_a_supports_atom():
    assert parse("~r:p", CFG) == Not(Supports(R, P))


def test_conjunction_binds_tighter_than_disjunction():
    assert parse("r:p | q & r", CFG) == Or(Supports(R, P), conj(Q, Adequate(R)))


def test_implication_associates_right():
    assert parse("p -> q -> p", CFG) == impl(P, impl(Q, P))


def test_belief_takes_the_smallest_argument():
    assert parse("B p & q", CFG) == conj(Believes(P), Q)


def test_bare_reason_is_an_adequacy_claim():
    assert parse("r", CFG) == Adequate(R)
    assert parse("B r", CFG) == Believes(Adequate(R))


def test_quantifier_scopes_to_the_right_edge():
    t = atom_term("t")
    want = ForAll("t", impl(Supports(t, P), Believes(Adequate(t))))
    assert parse("A t. t:p -> B t", CFG) == want


def test_nested_supports_print_without_parens():
    f = Supports(S, Supports(R, P))
    assert print_formula(f) == "s:r:p"
    assert parse("s:r:p", CFG) == f


def test_equality_tokens():
    assert parse("r = s", CFG) == Eq(R, S)
    assert parse("r != s", CFG) == Not(Eq(R, S))


def test_biconditional_round_trips():
    f = iff(P, Q)
    assert parse(print_formula(f), CFG) == f


def test_sigma_needs_a_sigma_theory():
    assert parse("B sigma", SIGMA_CFG) == Believes(Adequate(SIGMA))
    with pytest.raises(ParseError):
        parse("B sigma", CFG)


def test_quantifiers_need_a_quantified_theory():
    base = TheoryConfig.from_name("RBB", ("r", "s"), ("p", "q"))
    with pytest.raises(ParseError):
        parse("A t. t:p", base)


@pytest.mark.parametrize(
    "bad",
    ["", "p &", "(p", "r:", "x", "A p. q", "p = q", "B B", ")", "p q"],
)
def test_malformed_inputs_raise_parse_error(bad):
    with pytest.raises(ParseError):
        parse(bad, CFG)


def test_parse_error_carries_a_span():
    with pytest.raises(ParseError) as err:
        parse("p & x", CFG)
    assert "x" in str(err.value)


@pytest.mark.parametrize(
    "text,message,span",
    [
        ("A sigma. p", "sigma cannot be bound", SourceSpan(2, 7)),
        ("(p):q", "expected a reason term before ':' or '*'", SourceSpan(0, 1)),
    ],
)
def test_parse_error_message_and_span(text, message, span):
    with pytest.raises(ParseError) as err:
        parse(text, CFG)
    assert (err.value.message, err.value.span) == (message, span)
    assert str(err.value) == f"{message} (at {span.start}..{span.end})"


def test_print_reason_on_atoms():
    assert print_reason(R) == "r"
    assert print_reason(SIGMA) == "sigma"


APP_CFG = TheoryConfig.from_name("RBB+App", ("r", "s", "u"), ("p", "q"))
U = atom_term("u")


# Application is left-associative, so only a compound right factor keeps
# its parentheses in print.
@pytest.mark.parametrize(
    "text,expected,printed",
    [
        ("s * r:p", Supports(App(S, R), P), "s * r:p"),
        ("(s * r):p", Supports(App(S, R), P), "s * r:p"),
        ("s * (r * u):p", Supports(App(S, App(R, U)), P), "s * (r * u):p"),
        ("(s * r) * u:p", Supports(App(App(S, R), U), P), "s * r * u:p"),
        ("~(s * r):(p -> q)", Not(Supports(App(S, R), impl(P, Q))), "~s * r:(p -> q)"),
    ],
)
def test_application_terms_round_trip(text, expected, printed):
    assert parse(text, APP_CFG) == expected
    assert print_formula(expected) == printed
    assert parse(printed, APP_CFG) == expected


def test_application_terms_need_the_app_variant():
    base = TheoryConfig.from_name("RBB", ("r", "s", "u"), ("p", "q"))
    for text in ("s * r:p", "s * (r * u):p"):
        with pytest.raises(ParseError, match="require the App variant"):
            parse(text, base)


_FUZZ_CFG = class_config("QRBBs")


@st.composite
def formulas(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_formula(random.Random(seed), _FUZZ_CFG, depth=4)


@given(formulas())
@settings(max_examples=300)
def test_round_trip_is_identity(f):
    assert parse(print_formula(f), _FUZZ_CFG) == f


@given(formulas())
@settings(max_examples=100)
def test_printing_is_stable(f):
    once = print_formula(f)
    assert print_formula(parse(once, _FUZZ_CFG)) == once


def test_round_trip_corpus_at_speed():
    # the acceptance run uses ten thousand; a quarter of that here keeps
    # the unit suite snappy while exercising the same generator
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(2500):
        f = random_formula(rng, _FUZZ_CFG, depth=4)
        assert parse(print_formula(f), _FUZZ_CFG) == f
    assert time.perf_counter() - start < 10.0


# -- the lexer against the character loop it replaced --------------------------

_PUNCT = ("<->", "->", "!=", "~", "&", "|", "(", ")", ":", "=", "*", ".")


def _lex_oracle(text):
    """The character-by-character lexer, as ``(kind, text, start, end)`` rows."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                out.append((punct, punct, i, i + len(punct)))
                i += len(punct)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "kw" if word in RESERVED_WORDS else "ident"
                out.append((kind, word, i, j))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", SourceSpan(i, i + 1))
    out.append(("eof", "", n, n))
    return out


def _outcome(lex, text):
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as err:
        return err.message, err.span


# Identifier characters, every punctuation token and its pieces, and
# characters that str.isalpha, str.isalnum and str.isspace tell apart:
# \u00b2, \u00bd and \u216b are alphanumeric but not alphabetic, \u0663 is a
# decimal digit, \u00aa is a letter, and \u00a0 is whitespace.
_PIECES = (
    list("pqrs_AEB19")
    + list(_PUNCT)
    + list("\u00e9\u00b2\u0663\u00bd\u216b\u00aa\u00a0 \t\n-!<@")
)


def test_lexer_matches_the_character_loop():
    rng = random.Random(17)
    failed = 0
    for _ in range(40_000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(12)))
        want = _outcome(_lex_oracle, text)
        assert _outcome(_lex, text) == want, text
        failed += isinstance(want, tuple)
    assert 10_000 < failed < 30_000
