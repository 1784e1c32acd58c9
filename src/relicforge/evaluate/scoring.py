"""File-level correctness scoring and corpus-level evaluation summaries.

A translation is correct when it reproduces the source's observable
behavior on a deterministic input battery and, where oracle labels exist,
agrees with at least 90% of them. Corpus evaluation translates every Test
record under one approach and aggregates accuracy plus before/after
complexity and coupling into an EvalSummary. The "before" figures are the
ones curate stored in each record's manifest metrics, so a source that
no longer has the md5 curate recorded is not scored against them: it
scores incorrect ("source changed since curate") until it is curated
again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from pathlib import Path

from relicforge.analysis import measure
from relicforge.cobol import nodes as n
from relicforge.corpus import CorpusConfig, CorpusManifest, Record, load_ast
from relicforge.corpus.manifest import TEST, TRAIN
from relicforge.errors import EvalError, FormatError, ParseFailure, SourceError
from relicforge.evaluate.cobol_interp import compile_cobol, interpret_cobol
from relicforge.evaluate.java_interp import compile_java, interpret_java
from relicforge.evaluate.values import Trace
from relicforge.transpile import (
    Action,
    external_method_name,
    java_metrics,
    parse_java,
    translate_rules,
    translate_with_fallbacks,
)
from relicforge.transpile import jnodes as j

INPUT_VECTORS = 5
INPUT_LENGTH = 8
LABEL_AGREEMENT_MIN = 0.9
DEFAULT_SEED = 42

APPROACH_RULES = "Rules"
APPROACH_AI = "Ai"


def input_battery(file_id: str, seed: int = DEFAULT_SEED) -> list[list[str]]:
    """Deterministic per-file input vectors: 5 runs of 8 small decimals."""
    rng = random.Random(f"{seed}:{file_id}")
    return [
        [str(rng.randint(0, 99)) for _ in range(INPUT_LENGTH)]
        for _ in range(INPUT_VECTORS)
    ]


def traces_match(a: Trace, b: Trace) -> tuple[bool, str]:
    """Symmetric comparison: output lines, call events, then outcome kind.
    Error reasons are free-form text and deliberately not compared. A callee
    is compared as Java spells it (`external_method_name`), the only
    spelling a parsed translation keeps: `AUDIT-LOG` and `AUDIT_LOG` are
    one callee, `prog_AUDIT_LOG`."""
    for k, (x, y) in enumerate(zip(a.display_lines, b.display_lines)):
        if x != y:
            return False, f"trace mismatch at line {k + 1}"
    if len(a.display_lines) != len(b.display_lines):
        shared = min(len(a.display_lines), len(b.display_lines))
        return False, f"trace mismatch at line {shared + 1}"
    for k, (x, y) in enumerate(zip(a.call_events, b.call_events)):
        if x != y and (x[1] != y[1]
                       or external_method_name(x[0]) != external_method_name(y[0])):
            return False, f"call mismatch at event {k + 1}"
    if len(a.call_events) != len(b.call_events):
        shared = min(len(a.call_events), len(b.call_events))
        return False, f"call mismatch at event {shared + 1}"
    if a.outcome.kind is not b.outcome.kind:
        return False, "outcome mismatch"
    return True, ""


def has_goto(ast: n.CobolAst) -> bool:
    return any(isinstance(node, n.GoTo) for node in n.iter_preorder(ast.program))


def load_oracle_labels(path: Path | str) -> dict[int, Action]:
    """Oracle actions by statement ref from a `<stem>.labels.json` sidecar.
    Raises FormatError naming the file when it is unreadable or malformed,
    and when a `stmt_ref` is not an int (a bool is not)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        labels = {}
        for item in data["labels"]:
            ref = item["stmt_ref"]
            if type(ref) is not int:
                raise TypeError(f"stmt_ref is a {type(ref).__name__}, not an int")
            labels[ref] = Action.from_json(item)
        return labels
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise FormatError(
            f"{path}: unreadable oracle labels ({exc.__class__.__name__}: {exc})"
        ) from exc


def label_agreement(actions_used: dict[int, Action], oracle: dict[int, Action]) -> float:
    """Fraction of oracle statements whose applied action kind matches.
    Split positions are not compared: the label names the transformation."""
    if not oracle:
        return 1.0
    hits = sum(
        1
        for ref, want in oracle.items()
        if ref in actions_used and actions_used[ref].kind is want.kind
    )
    return hits / len(oracle)


def _run_once(run, program, vector: list[str],
              seen: list[tuple[list[str], int, Trace]]) -> Trace:
    """`run(program, vector)`, or the trace of an earlier run in `seen`
    whose vector shares the prefix that run read.

    A run starts from a fully reset state and leaves the values it did not
    read in `program.inputs`, so its trace depends only on the `read`
    values it popped. A run that read every value may have ended on
    `input exhausted`, so it stands only for an identical vector.
    """
    for prior, read, trace in seen:
        if vector[:read] == prior[:read] and (read < len(prior) or vector == prior):
            return trace
    trace = run(program, vector)
    seen.append((vector, len(vector) - len(program.inputs), trace))
    return trace


def score_file(
    ast: n.CobolAst,
    jast: j.JavaAst,
    oracle: dict[int, Action] | None = None,
    *,
    file_id: str | None = None,
    seed: int = DEFAULT_SEED,
    actions_used: dict[int, Action] | None = None,
) -> dict:
    """{correct, reason} for one source/translation pair.

    Each side is built once and checked on every vector of the input
    battery. A statement list compiles when a run first enters it, so the
    statements no vector reaches are never compiled, and a list compiled
    by one vector's run serves the later ones. Each side runs only once per
    distinct input prefix it reads: a vector that starts with the values an
    earlier run of the same side read reuses that run's trace (see
    `_run_once`). The programs and the traces are dropped when this call
    returns. Files containing GO TO are judged on behavior alone: the
    structure already diverged by construction, so label agreement is
    waived when the traces still line up.
    """
    fid = file_id if file_id is not None else ast.program_id
    cobol, java = compile_cobol(ast), compile_java(jast)
    cobol_runs, java_runs = [], []
    for vector in input_battery(fid, seed):
        ok, reason = traces_match(
            _run_once(interpret_cobol, cobol, vector, cobol_runs),
            _run_once(interpret_java, java, vector, java_runs),
        )
        if not ok:
            return {"correct": False, "reason": reason}
    if oracle and actions_used is not None and not has_goto(ast):
        if label_agreement(actions_used, oracle) < LABEL_AGREEMENT_MIN:
            return {"correct": False, "reason": "label agreement"}
    return {"correct": True, "reason": ""}


# -- corpus-level aggregation --------------------------------------------------


@dataclass
class FileScore:
    id: str
    correct: bool
    reason: str
    cx_before: int | None = None
    cx_after: int | None = None
    cp_before: int | None = None
    cp_after: int | None = None


def drop_pct(before: float, after: float) -> float:
    return 0.0 if before == 0 else 100.0 * (before - after) / before


@dataclass
class EvalSummary:
    approach: str
    n: int
    accuracy: float
    mean_cx_before: float
    mean_cx_after: float
    cx_drop_pct: float
    mean_cp_before: float
    mean_cp_after: float
    cp_drop_pct: float
    fallback_count: int
    per_fold: list["EvalSummary"] | None = None

    def to_json(self) -> dict:
        """Every field in declaration order; no folds are written as null."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["per_fold"] = [s.to_json() for s in self.per_fold] if self.per_fold else None
        return data

    @classmethod
    def from_json(cls, data: dict) -> "EvalSummary":
        """Raises KeyError when a field other than `per_fold` is missing."""
        folds = data.get("per_fold")
        return cls(
            **{f.name: data[f.name] for f in fields(cls) if f.name != "per_fold"},
            per_fold=[cls.from_json(s) for s in folds] if folds else None,
        )


def _summarize(approach: str, rows: list[FileScore], fallback_count: int) -> EvalSummary:
    if not rows:
        raise EvalError("no records to evaluate")
    n = len(rows)
    accuracy = sum(1 for r in rows if r.correct) / n
    # Means are paired: only files with a measurable translation count,
    # on both sides, so the drop percentages stay comparable.
    measured = [r for r in rows if r.cx_after is not None]

    def mean(values) -> float:
        got = list(values)
        return sum(got) / len(got) if got else 0.0

    mean_cx_before = mean(r.cx_before for r in measured)
    mean_cx_after = mean(r.cx_after for r in measured)
    mean_cp_before = mean(r.cp_before for r in measured)
    mean_cp_after = mean(r.cp_after for r in measured)
    return EvalSummary(
        approach=approach,
        n=n,
        accuracy=accuracy,
        mean_cx_before=mean_cx_before,
        mean_cx_after=mean_cx_after,
        cx_drop_pct=drop_pct(mean_cx_before, mean_cx_after),
        mean_cp_before=mean_cp_before,
        mean_cp_after=mean_cp_after,
        cp_drop_pct=drop_pct(mean_cp_before, mean_cp_after),
        fallback_count=fallback_count,
    )


# -- translation and scoring ---------------------------------------------------


def _translate(kind: str, ast: n.CobolAst, record: Record, root: Path, ckpt):
    """(jast, actions_used, fallback count, failure reason) for one record
    under one approach. `rules` applies the rule defaults, `ai` the
    actions `ckpt` predicts, and `external` parses the record's
    `<stem>.java` sidecar; a sidecar that cannot be read or parsed gives
    no jast and the reason instead."""
    if kind == "external":
        try:
            jast = parse_java((root / record.oracle_java).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError):
            return None, None, 0, "external translation unreadable"
        except ParseFailure:
            return None, None, 0, "external translation unparseable"
        return jast, None, 0, ""
    if kind == "ai":
        from relicforge.model import predict

        actions = {ref: action for ref, action, _conf in predict(ast, ckpt)}
        result = translate_with_fallbacks(ast, actions)
    else:
        result = translate_rules(ast)
    return result.jast, result.actions_used, len(result.fallbacks), ""


def _score_records(records, kind: str, ckpt, root: Path, seed: int, approach: str,
                   config: CorpusConfig, pairs: list[dict] | None = None):
    """Translate (see `_translate`) and score each record: the summary and
    one FileScore per record. With `pairs`, each translated record appends
    its report pair: id, complexity before and after, both trees as JSON."""
    rows: list[FileScore] = []
    fallback_count = 0
    for record in records:
        try:
            ast = load_ast(root, record, config)
        except SourceError as exc:
            rows.append(FileScore(record.id, False, exc.reason))
            continue
        if ast is None:
            rows.append(FileScore(record.id, False, "source failed to parse"))
            continue
        # Curate measured this same tree; only a manifest without metrics
        # (one written by hand, say) needs it measured here.
        before = record.metrics or measure(ast)
        jast, actions_used, fallbacks, failure = _translate(kind, ast, record, root, ckpt)
        fallback_count += fallbacks
        if jast is None:
            rows.append(FileScore(record.id, False, failure,
                                  before.cyclomatic, None, before.coupling, None))
            continue
        after = java_metrics(jast)
        oracle = None
        try:
            if record.oracle_labels:
                oracle = load_oracle_labels(root / record.oracle_labels)
        except FormatError:
            got = {"correct": False, "reason": "oracle labels unreadable"}
        else:
            got = score_file(ast, jast, oracle, file_id=record.id, seed=seed,
                             actions_used=actions_used)
        rows.append(FileScore(record.id, got["correct"], got["reason"],
                              before.cyclomatic, after.cyclomatic,
                              before.coupling, after.coupling))
        if pairs is not None:
            pairs.append({
                "id": record.id,
                "cx_before": before.cyclomatic,
                "cx_after": after.cyclomatic,
                "cobol_ast": n.to_json(ast.program),
                "java_ast": j.to_json(jast),
            })
    return _summarize(approach, rows, fallback_count), rows


# -- entry points ------------------------------------------------------------------


def _resolve_manifest(manifest, root) -> tuple[CorpusManifest, Path]:
    if isinstance(manifest, (str, Path)):
        path = Path(manifest)
        loaded = CorpusManifest.read_jsonl(path)
        return loaded, Path(root) if root is not None else path.parent
    return manifest, Path(root) if root is not None else Path(".")


def build_training_set(root: Path | str, records,
                       config: CorpusConfig = CorpusConfig()) -> list:
    """TrainSamples for the given records: oracle labels where sidecars
    exist, default rule labels otherwise. A record whose source is
    unreadable, has changed since curate, does not parse or holds no
    statement, or whose sidecar is unreadable, gives no sample. `config`
    must be the one the corpus was curated with, so each file is read in
    its source format."""
    root = Path(root)
    samples = (_train_sample(root, record, config) for record in records)
    return [sample for sample in samples if sample is not None]


def _train_sample(root: Path, record: Record, config: CorpusConfig):
    """One record's TrainSample, or None (see `build_training_set`)."""
    from relicforge.model import sample_from_ast

    try:
        ast = load_ast(root, record, config)
    except SourceError:
        return None
    if ast is None or not any(para.body for para in ast.paragraphs):
        return None  # no statement, so no step to weigh
    labels = None
    if record.oracle_labels:
        try:
            labels = load_oracle_labels(root / record.oracle_labels)
        except FormatError:
            return None
    return sample_from_ast(ast, labels)


def run_evaluation(
    manifest,
    approach: str,
    checkpoint=None,
    seed: int = DEFAULT_SEED,
    *,
    root=None,
    per_fold: bool = False,
    external_name: str = "manual",
    config: CorpusConfig = CorpusConfig(),
) -> tuple[EvalSummary, list[FileScore], list[dict]]:
    """Score the Test split under `approach`: `rules`, `ai` (`checkpoint` is
    a ModelCheckpoint or its path) or `external` (Test records with a
    `<stem>.java` sidecar). Returns (summary, rows, pairs): one FileScore
    per Test record, one report pair per translated one (`_score_records`);
    `per_fold` adds a summary per Train fold. `config` must be the one the
    corpus was curated with. A source or labels sidecar that cannot be
    read, or a source changed since curate, scores its file incorrect."""
    manifest, root = _resolve_manifest(manifest, root)
    kind = str(approach).strip().lower()
    if kind not in ("rules", "ai", "external"):
        raise EvalError(f"unknown approach {approach!r}")
    label = {"rules": APPROACH_RULES, "ai": APPROACH_AI}.get(kind) \
        or f"External({external_name})"

    ckpt = checkpoint
    if kind == "ai":
        if checkpoint is None:
            raise EvalError("the Ai approach requires a model checkpoint")
        if isinstance(checkpoint, (str, Path)):
            from relicforge.model import load

            ckpt = load(checkpoint)

    test = [r for r in manifest.records if r.split is TEST]
    if kind == "external":
        test = [r for r in test if r.oracle_java]
        if not test:
            raise EvalError("no external translations in the Test split")
    if not test:
        raise EvalError("Test split is empty")

    pairs: list[dict] = []
    summary, rows = _score_records(test, kind, ckpt, root, seed, label, config, pairs)
    if per_fold:
        summary.per_fold = _fold_summaries(manifest, kind, ckpt, root, seed, label, config)
    return summary, rows, pairs


def _fold_summaries(manifest, kind, ckpt, root, seed, label, config: CorpusConfig):
    """Cross-validation view over the Train split's round-robin folds. The
    Ai approach scores each fold with a checkpoint retrained on the other
    folds with `ckpt`'s config, featurizing each Train record once for all
    folds; `external` scores each fold's records that have a sidecar, and
    `rules` each fold as it is."""
    train = [r for r in manifest.records if r.split is TRAIN]
    folds = sorted({r.fold for r in train if r.fold is not None})
    if kind == "ai":
        featurized = [(r.fold, _train_sample(root, r, config)) for r in train]
    subs: list[EvalSummary] = []
    for fold in folds:
        records = [r for r in train if r.fold == fold]
        if kind == "external":
            records = [r for r in records if r.oracle_java]
        if not records:
            continue
        fold_ckpt = ckpt
        if kind == "ai":
            from relicforge.model import train as train_model

            dataset = [sample for f, sample in featurized
                       if f != fold and sample is not None]
            fold_ckpt = train_model(dataset, ckpt.config)
        sub, _ = _score_records(records, kind, fold_ckpt, root, seed, label, config)
        subs.append(sub)
    return subs


# -- serialization --------------------------------------------------------------


def write_eval_json(summary: EvalSummary, path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary.to_json(), indent=2) + "\n", encoding="utf-8")
