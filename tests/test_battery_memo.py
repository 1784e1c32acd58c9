"""`score_file` runs each side once per distinct input prefix it reads.

`ref_score_file` below is `score_file` as it was before the memo: it runs
both sides on every battery vector. Every file must get the same result
from both. The soundness checks pin down what the memo relies on: a run
whose vector shares the values an earlier run read gives an equal
`Trace`, and a run that read every value stands only for its own vector.
"""

import random

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.corpus import curate, ingest, load_ast
from relicforge.datagen import acceptance_corpus, random_program, sample_program
from relicforge.evaluate import (
    INPUT_LENGTH,
    INPUT_VECTORS,
    LABEL_AGREEMENT_MIN,
    compile_cobol,
    compile_java,
    has_goto,
    input_battery,
    interpret_cobol,
    interpret_java,
    label_agreement,
    load_oracle_labels,
    score_file,
    traces_match,
)
from relicforge.evaluate import scoring, values
from relicforge.evaluate.values import HALTED, STEP_LIMIT, runtime_error
from relicforge.transpile import translate_rules
from relicforge.transpile import jnodes as j

from tests.test_one_cfg_builder import translations

# --- the reference: score_file without the memo -------------------------------


def ref_score_file(
    ast: n.CobolAst,
    jast: j.JavaAst,
    oracle=None,
    *,
    file_id: str | None = None,
    seed: int = scoring.DEFAULT_SEED,
    actions_used=None,
) -> dict:
    """{correct, reason} for one source/translation pair.

    Each side is compiled once and then run on every vector of the input
    battery; the compiled programs are dropped when this call returns.
    Files containing GO TO are judged on behavior alone: the structure
    already diverged by construction, so label agreement is waived when
    the traces still line up.
    """
    fid = file_id if file_id is not None else ast.program_id
    cobol, java = compile_cobol(ast), compile_java(jast)
    for vector in input_battery(fid, seed):
        ok, reason = traces_match(
            interpret_cobol(cobol, vector), interpret_java(java, vector)
        )
        if not ok:
            return {"correct": False, "reason": reason}
    if oracle and actions_used is not None and not has_goto(ast):
        if label_agreement(actions_used, oracle) < LABEL_AGREEMENT_MIN:
            return {"correct": False, "reason": "label agreement"}
    return {"correct": True, "reason": ""}


def assert_same_scores(ast: n.CobolAst, jasts: list[j.JavaAst], file_id: str) -> None:
    for jast in jasts:
        got = score_file(ast, jast, file_id=file_id)
        assert got == ref_score_file(ast, jast, file_id=file_id), file_id


# --- equal results on generated programs --------------------------------------


@pytest.fixture
def short_step_limit(monkeypatch):
    """Both interpreters stop at 10,000 steps instead of MAX_STEPS.

    About 4% of `random_program` files loop, and one looping run costs up
    to 0.1 s at the full limit, which the reference pays on every vector.
    The memo never reads the limit; a step-limit run is one more outcome.
    """
    monkeypatch.setattr(values, "MAX_STEPS", 10_000)


@pytest.mark.usefixtures("short_step_limit")
@pytest.mark.parametrize("seed", range(200))
def test_random_programs(seed):
    # Each program is scored with its rules translation and one of the four
    # forced ones, rotating with the seed; the tests below score every
    # translation of the sample programs and the acceptance corpus.
    for allow_goto in (False, True):
        ast = random_program(random.Random(seed), allow_goto=allow_goto)
        rules, *forced = translations(ast)
        assert_same_scores(ast, [rules, forced[seed % len(forced)]],
                           f"random:{seed}:{allow_goto}")


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    ast = sample_program(random.Random(seed))
    assert_same_scores(ast, translations(ast), f"sample:{seed}")


def test_acceptance_corpus(tmp_path):
    acceptance_corpus(tmp_path, count=40, seed=3)
    manifest = curate(ingest(tmp_path), tmp_path)
    eligible = manifest.eligible()
    assert len(eligible) == 40
    for record in eligible:
        ast = load_ast(tmp_path, record)
        assert_same_scores(ast, translations(ast), record.id)
        # The label check after the battery sees the same verdicts too.
        oracle = load_oracle_labels(tmp_path / record.oracle_labels)
        result = translate_rules(ast)
        kwargs = dict(file_id=record.id, actions_used=result.actions_used)
        assert (score_file(ast, result.jast, oracle, **kwargs)
                == ref_score_file(ast, result.jast, oracle, **kwargs))


# --- hand-written programs ----------------------------------------------------

HEADER = (
    "IDENTIFICATION DIVISION. PROGRAM-ID. {pid}. DATA DIVISION. WORKING-STORAGE SECTION."
    " 01 K PIC 9(4). 01 N PIC 9(4) VALUE 0. PROCEDURE DIVISION. MAIN. "
)

PROGRAMS = {
    # Reads nothing, prints, then loops until the step limit.
    "reads_nothing": (
        'DISPLAY "START". PERFORM UNTIL N > 9999 MOVE 5 TO N END-PERFORM. STOP RUN.'
    ),
    # Reads one value; what it prints depends on that value alone.
    "reads_one": (
        "ACCEPT K. IF K > 49 DISPLAY \"HIGH\" K ELSE DISPLAY \"LOW\" K END-IF. STOP RUN."
    ),
    # Reads every battery value, then one more: `input exhausted`.
    "reads_past_the_end": (
        "PERFORM UNTIL N > 8 ACCEPT K DISPLAY K ADD 1 TO N END-PERFORM. STOP RUN."
    ),
}


def program(name: str, body: str | None = None) -> n.CobolAst:
    pid = name.upper().replace("_", "-")
    text = HEADER.format(pid=pid) + (PROGRAMS[name] if body is None else body)
    return parse_source(SourceFile(name, text))


def sides(ast: n.CobolAst):
    """(compiled program, run) for the COBOL side and its rules translation."""
    return [(compile_cobol(ast), interpret_cobol),
            (compile_java(translate_rules(ast).jast), interpret_java)]


@pytest.mark.parametrize("name, read, outcome", [
    ("reads_nothing", 0, STEP_LIMIT),
    ("reads_one", 1, HALTED),
    ("reads_past_the_end", INPUT_LENGTH, runtime_error("input exhausted")),
])
def test_hand_written_programs_end_as_intended(name, read, outcome):
    vector = input_battery("hand")[0]
    for compiled, run in sides(program(name)):
        assert run(compiled, vector).outcome == outcome
        assert len(vector) - len(compiled.inputs) == read


def shared_prefix_vectors(vector: list[str], read: int, rng: random.Random):
    """Vectors that start with the `read` values a run read: the bare
    prefix, and the prefix with new values after it."""
    yield vector[:read]
    yield vector[:read] + [str(rng.randint(0, 99)) for _ in range(len(vector) - read)]


def assert_prefix_sound(ast: n.CobolAst, file_id: str) -> None:
    """Two vectors that share a run's read prefix give equal traces, on a
    program already used for other runs and on a fresh one."""
    rng = random.Random(file_id)
    jast = translate_rules(ast).jast
    for compile_, run, subject in ((compile_cobol, interpret_cobol, ast),
                                   (compile_java, interpret_java, jast)):
        compiled = compile_(subject)
        for vector in input_battery(file_id):
            trace = run(compiled, vector)
            read = len(vector) - len(compiled.inputs)
            if read == len(vector):
                continue  # it may have asked for more: it stands for itself only
            for other in shared_prefix_vectors(vector, read, rng):
                assert run(compiled, other) == trace, (file_id, vector, other)
                assert run(compile_(subject), other) == trace, (file_id, vector, other)


@pytest.mark.parametrize("name", ["reads_nothing", "reads_one"])
def test_runs_that_share_the_read_prefix_are_equal(name):
    assert_prefix_sound(program(name), name)


@pytest.mark.usefixtures("short_step_limit")
@pytest.mark.parametrize("seed", range(30))
def test_random_runs_that_share_the_read_prefix_are_equal(seed):
    for allow_goto in (False, True):
        ast = random_program(random.Random(seed), allow_goto=allow_goto)
        assert_prefix_sound(ast, f"prefix:{seed}:{allow_goto}")


def test_a_run_that_read_everything_stands_for_its_own_vector_only():
    ast = program("reads_past_the_end")
    vector = input_battery("past")[0]
    longer = vector + ["7"]
    for compiled, run in sides(ast):
        seen = []
        first = scoring._run_once(run, compiled, vector, seen)
        assert first.outcome == runtime_error("input exhausted")
        assert scoring._run_once(run, compiled, list(vector), seen) is first
        # The same eight values and one more: the run ends another way.
        again = scoring._run_once(run, compiled, longer, seen)
        assert again.outcome == HALTED
        assert again == run(compiled, longer)
        assert len(seen) == 2


# --- runs per side, counted through the names score_file calls ----------------


@pytest.fixture
def calls(monkeypatch):
    counts = {"cobol": 0, "java": 0}

    def counting(side, real):
        def run(program, vector):
            counts[side] += 1
            return real(program, vector)
        return run

    monkeypatch.setattr(scoring, "interpret_cobol", counting("cobol", interpret_cobol))
    monkeypatch.setattr(scoring, "interpret_java", counting("java", interpret_java))
    return counts


def test_an_input_free_file_runs_once_per_side(calls):
    ast = program("reads_nothing")
    jast = translate_rules(ast).jast
    assert score_file(ast, jast) == {"correct": True, "reason": ""}
    assert calls == {"cobol": 1, "java": 1}


def test_a_file_that_reads_every_value_runs_on_every_vector(calls):
    ast = program("reads_past_the_end")
    jast = translate_rules(ast).jast
    battery = input_battery(ast.program_id)
    assert len({tuple(v) for v in battery}) == INPUT_VECTORS
    assert score_file(ast, jast) == {"correct": True, "reason": ""}
    assert calls == {"cobol": INPUT_VECTORS, "java": INPUT_VECTORS}


def test_a_file_that_reads_one_value_runs_once_per_first_value(calls):
    ast = program("reads_one")
    jast = translate_rules(ast).jast
    assert score_file(ast, jast) == {"correct": True, "reason": ""}
    firsts = {v[0] for v in input_battery(ast.program_id)}
    assert calls == {"cobol": len(firsts), "java": len(firsts)}


def test_a_translation_that_reads_where_the_source_does_not(calls):
    # The source prints MISS without reading. The translation reads one
    # value and prints HIT only for the first value of the third battery
    # vector, so the two sides part there and nowhere before it.
    ast = program("silent", 'DISPLAY "MISS". STOP RUN.')
    battery = input_battery(ast.program_id)
    hit = battery[2][0]
    assert hit not in (battery[0][0], battery[1][0])
    reader = program("reader", f'ACCEPT K. IF K = {hit} DISPLAY "HIT" ELSE DISPLAY "MISS"'
                               " END-IF. STOP RUN.")
    jast = translate_rules(reader).jast
    want = {"correct": False, "reason": "trace mismatch at line 1"}
    assert ref_score_file(ast, jast) == want
    assert score_file(ast, jast) == want
    assert calls == {"cobol": 1, "java": 3}
