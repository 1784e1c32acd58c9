"""Benchmark input generators: determinism and intended verdicts."""

import random

import pytest

from relicforge import datagen
from relicforge.cobol import SourceFile, Verdict, parse_source, pretty_print, repair
from relicforge.corpus import curate, ingest
from relicforge.evaluate import input_battery, interpret_cobol
from relicforge.evaluate.values import OutcomeKind

from perfbench import gen

GENERATORS = {
    "acceptance": lambda root, seed: gen.acceptance(root, seed, 10),
    "differential": lambda root, seed: gen.differential(root, seed, 12, 1),
    "dirty_intake": lambda root, seed: gen.dirty_intake(root, seed, 60),
}


def _snapshot(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_bytes(tmp_path, name):
    first = GENERATORS[name](tmp_path / "a", 7)
    second = GENERATORS[name](tmp_path / "b", 7)
    other = GENERATORS[name](tmp_path / "c", 8)
    assert _snapshot(first.root) == _snapshot(second.root)
    assert first.intended == second.intended
    assert first.expected_rules == second.expected_rules
    assert _snapshot(first.root) != _snapshot(other.root)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_curate_reaches_every_intended_status(tmp_path, name):
    corpus = GENERATORS[name](tmp_path, 3)
    manifest = curate(ingest(corpus.root), corpus.root)
    got = {r.relative_path: r.status.value for r in manifest.records}
    assert got == corpus.intended


def _printed_sample(seed):
    return pretty_print(datagen.sample_program(random.Random(seed), program_id="S0001"))


@pytest.mark.parametrize(
    "kind,status,rules",
    [(k, s, r) for k, _share, s, r in gen.DIRTY_MIX
     if k not in ("exact_duplicate", "crlf_duplicate", "undecodable", "trivial")],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_damage_kind_gets_its_verdict_through_repair(kind, status, rules, seed):
    data = gen.mutate(_printed_sample(seed), kind, random.Random(seed))
    _fixed, log = repair(SourceFile("probe.cbl", data.decode("utf-8")))
    want = {gen.KEPT: Verdict.CLEAN, gen.REPAIRED: Verdict.REPAIRED,
            gen.REJECTED: Verdict.REJECTED}[status]
    assert log.verdict is want
    assert sorted(e.rule.value for e in log.entries) == sorted(r.value for r in rules)


def test_undecodable_is_not_utf8():
    data = gen.mutate(_printed_sample(1), "undecodable", random.Random(1))
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")


def test_crlf_duplicate_normalizes_to_its_source():
    text = _printed_sample(1)
    data = gen.mutate(text, "crlf_duplicate", random.Random(1))
    assert data != text.encode("utf-8")
    from relicforge.corpus import normalize_text

    assert normalize_text(data.decode("utf-8")) == normalize_text(text)


def test_differential_files_end_as_their_kind_says(tmp_path):
    corpus = gen.differential(tmp_path, 5, 8, 2)
    assert sorted(corpus.kinds.values()) == ["step_limit"] * 2 + ["terminating"] * 6
    for name, kind in corpus.kinds.items():
        ast = parse_source(SourceFile(name, (tmp_path / name).read_text()))
        kinds = {interpret_cobol(ast, v).outcome.kind for v in input_battery(name)}
        if kind == "step_limit":
            assert kinds == {OutcomeKind.STEP_LIMIT}
        else:
            assert OutcomeKind.STEP_LIMIT not in kinds
