"""Contracts both parsers keep on mutated input (grammar-aware fuzzing, as in
LangFuzz: Holler, Herzig & Zeller, USENIX Security 2012).

(a) A 1-4 character mutant of a `random_program` printout gets a `repair`
    verdict, never an exception, and every tree `repair` accepts survives
    `parse(pretty_print(tree))` unchanged.
(b) A mutant of `emit_java` output, by character or by token edits, gives
    a JavaAst or a ParseFailure; every accepted tree runs in
    `interpret_java` without raising and survives
    `parse_java(emit_java(tree))` unchanged.
(c) Every proper token prefix of an emitted translation is a ParseFailure.

Every check runs under a SIGALRM guard, so a parser that stops advancing
fails instead of stalling the suite. Seeds are fixed; tier-1 runs 1,000
mutants per language, and `pytest -m slow` runs 100,000 per language.
"""

import contextlib
import dataclasses
import functools
import random
import re
import signal

import pytest

from relicforge.cobol import SourceFile, Verdict, parse_source, pretty_print, repair
from relicforge.datagen import random_program
from relicforge.errors import ParseFailure
from relicforge.evaluate import interpret_java
from relicforge.transpile import emit_java, parse_java, translate_rules
from relicforge.transpile.jparser import _lex

# Tier-1 checks FAST_CHUNKS chunks of FAST_CHUNK mutants per language; the
# slow mode checks SLOW_CHUNKS chunks of SLOW_CHUNK from SLOW_START on, so the
# two modes check different mutants.
FAST_CHUNK = 200
FAST_CHUNKS = 5
SLOW_CHUNK = 2_000
SLOW_CHUNKS = 50  # 100,000 mutants per language
SLOW_START = 1_000_000
MUTANTS_PER_BASE = 25

# What an ACCEPT, or the translation's `in()`, reads in turn.
INPUTS = ["1", "A", "-7", "", "123456789"]
COBOL_ALPHABET = " \n.()'\"=<>+-*/9Xx0aZN"
JAVA_ALPHABET = " \n;{}()[]\"'=<>!&|+-*/.,:0123456789_xaZ"


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def shape(value):
    """A tree as nested tuples of its fields, line numbers left out."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            shape(getattr(value, f.name)) for f in dataclasses.fields(value) if f.name != "line"
        )
    if isinstance(value, (list, tuple)):
        return tuple(shape(v) for v in value)
    return value


@functools.lru_cache(maxsize=64)
def cobol_base(base: int) -> str:
    return pretty_print(random_program(random.Random(base), allow_goto=base % 2 == 1))


@functools.lru_cache(maxsize=64)
def java_base(base: int) -> str:
    return emit_java(translate_rules(parse_source(SourceFile("b", cobol_base(base)))).jast)


@functools.lru_cache(maxsize=64)
def word_starts(text: str) -> list[int]:
    return [m.start() for m in re.finditer(r"(?<=\s)\S", text)]


def char_edits(text: str, rng: random.Random, alphabet: str) -> str:
    """1-4 edits: insert, delete or replace one character, half of them at
    the start of a word. An inserted or replacing character comes from the
    alphabet or from the text itself."""
    starts = word_starts(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.choice(starts) if rng.random() < 0.5 else rng.randrange(len(text))
        new = rng.choice(alphabet) if rng.random() < 0.7 else rng.choice(text)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + new + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + new + text[at + 1:]
    return text


def token_edits(text: str, rng: random.Random) -> str:
    """1-4 token edits: delete, duplicate, swap with its neighbour, or
    replace by a token taken from elsewhere in the text."""
    words = [tok.text for tok in _lex(text)]
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(words) - 1)
        edit = rng.randrange(4)
        if edit == 0:
            del words[at]
        elif edit == 1:
            words.insert(at, words[at])
        elif edit == 2:
            words[at], words[at + 1] = words[at + 1], words[at]
        else:
            words[at] = rng.choice(words)
    return " ".join(words)


def cobol_mutant(i: int) -> str:
    rng = random.Random(f"cobol-mutant:{i}")
    return char_edits(cobol_base(i // MUTANTS_PER_BASE), rng, COBOL_ALPHABET)


def java_mutant(i: int) -> str:
    rng = random.Random(f"java-mutant:{i}")
    text = java_base(i // MUTANTS_PER_BASE)
    if i % 2:
        return token_edits(text, rng)
    return char_edits(text, rng, JAVA_ALPHABET)


def check_cobol(i: int) -> tuple[bool, str | None]:
    """(accepted, the broken contract or None) for COBOL mutant `i`."""
    text = cobol_mutant(i)
    try:
        with time_limit(10):
            _fixed, log = repair(SourceFile("m", text))
            if log.verdict is Verdict.REJECTED:
                return False, None
            again = parse_source(SourceFile("p", pretty_print(log.ast)))
    except Exception as exc:  # noqa: BLE001 - any exception breaks the contract
        return False, f"{type(exc).__name__}: {exc}"
    if shape(again.program) != shape(log.ast.program):
        return True, "parse(print(tree)) differs from the tree"
    return True, None


def check_java(i: int) -> tuple[bool, str | None]:
    text = java_mutant(i)
    try:
        with time_limit(10):
            try:
                jast = parse_java(text)
            except ParseFailure:
                return False, None
            interpret_java(jast, INPUTS)
            again = parse_java(emit_java(jast))
    except Exception as exc:  # noqa: BLE001 - any exception breaks the contract
        return True, f"{type(exc).__name__}: {exc}"
    if again != jast:
        return True, "parse_java(emit_java(tree)) differs from the tree"
    return True, None


CHECKS = {"cobol": (check_cobol, cobol_mutant), "java": (check_java, java_mutant)}


def run_chunk(language: str, first: int, size: int) -> int:
    """Check mutants `first` onwards; returns how many were accepted."""
    check, mutant = CHECKS[language]
    accepted, breaks = 0, []
    for i in range(first, first + size):
        ok, broken = check(i)
        accepted += ok
        if broken is not None:
            breaks.append((i, broken, mutant(i)))
    assert not breaks, "\n\n".join(f"mutant {i}: {why}\n{text}" for i, why, text in breaks[:3])
    return accepted


@pytest.mark.parametrize("language", CHECKS)
@pytest.mark.parametrize("chunk", range(FAST_CHUNKS))
def test_mutants_keep_the_contracts(language, chunk):
    accepted = run_chunk(language, chunk * FAST_CHUNK, FAST_CHUNK)
    # A chunk whose mutants all fail to parse, or all parse, checks little.
    assert 0 < accepted < FAST_CHUNK


@pytest.mark.slow
@pytest.mark.parametrize("language", CHECKS)
@pytest.mark.parametrize("chunk", range(SLOW_CHUNKS))
def test_many_mutants_keep_the_contracts(language, chunk):
    run_chunk(language, SLOW_START + chunk * SLOW_CHUNK, SLOW_CHUNK)


@pytest.mark.parametrize("base", range(3))
def test_every_proper_token_prefix_is_a_parse_failure(base):
    text = java_base(base)
    tokens = _lex(text)
    lines = text.split("\n")
    with time_limit(60):
        for tok in tokens:  # the prefix ends before `tok`
            prefix = "\n".join(lines[:tok.line - 1] + [lines[tok.line - 1][:tok.col - 1]])
            with pytest.raises(ParseFailure):
                parse_java(prefix)
    assert parse_java(text) is not None
