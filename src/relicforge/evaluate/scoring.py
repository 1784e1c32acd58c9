"""File-level correctness scoring and corpus-level evaluation summaries.

A translation is correct when it reproduces the source's observable
behavior on a deterministic input battery and, where oracle labels exist,
agrees with at least 90% of them. Corpus evaluation translates every Test
record under one approach and aggregates accuracy plus before/after
complexity and coupling into an EvalSummary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from relicforge.analysis import measure
from relicforge.cobol import nodes as n
from relicforge.corpus import CorpusManifest, Record, Split, load_ast
from relicforge.errors import EvalError, ParseFailure
from relicforge.evaluate.cobol_interp import interpret_cobol
from relicforge.evaluate.java_interp import interpret_java
from relicforge.evaluate.values import Trace
from relicforge.transpile import (
    Action,
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
DEFAULT_TAU = 0.6

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
    Error reasons are free-form text and deliberately not compared."""
    for k, (x, y) in enumerate(zip(a.display_lines, b.display_lines)):
        if x != y:
            return False, f"trace mismatch at line {k + 1}"
    if len(a.display_lines) != len(b.display_lines):
        shared = min(len(a.display_lines), len(b.display_lines))
        return False, f"trace mismatch at line {shared + 1}"
    for k, (x, y) in enumerate(zip(a.call_events, b.call_events)):
        if x != y:
            return False, f"call mismatch at event {k + 1}"
    if len(a.call_events) != len(b.call_events):
        shared = min(len(a.call_events), len(b.call_events))
        return False, f"call mismatch at event {shared + 1}"
    if a.outcome.kind is not b.outcome.kind:
        return False, "outcome mismatch"
    return True, ""


def has_goto(ast: n.CobolAst) -> bool:
    return any(node.kind is n.NodeKind.GOTO for node in n.iter_preorder(ast.program))


def load_oracle_labels(path: Path | str) -> dict[int, Action]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {int(item["stmt_ref"]): Action.from_json(item) for item in data["labels"]}


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

    Files containing GO TO are judged on behavior alone: the structure
    already diverged by construction, so label agreement is waived when
    the traces still line up.
    """
    fid = file_id if file_id is not None else ast.program_id
    for vector in input_battery(fid, seed):
        ok, reason = traces_match(
            interpret_cobol(ast, vector), interpret_java(jast, vector)
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
    cx_before: int | None
    cx_after: int | None
    cp_before: int | None
    cp_after: int | None

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "correct": self.correct,
            "reason": self.reason,
            "cx_before": self.cx_before,
            "cx_after": self.cx_after,
            "cp_before": self.cp_before,
            "cp_after": self.cp_after,
        }


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
        return {
            "approach": self.approach,
            "n": self.n,
            "accuracy": self.accuracy,
            "mean_cx_before": self.mean_cx_before,
            "mean_cx_after": self.mean_cx_after,
            "cx_drop_pct": self.cx_drop_pct,
            "mean_cp_before": self.mean_cp_before,
            "mean_cp_after": self.mean_cp_after,
            "cp_drop_pct": self.cp_drop_pct,
            "fallback_count": self.fallback_count,
            "per_fold": [s.to_json() for s in self.per_fold] if self.per_fold else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EvalSummary":
        folds = data.get("per_fold")
        return cls(
            approach=data["approach"],
            n=data["n"],
            accuracy=data["accuracy"],
            mean_cx_before=data["mean_cx_before"],
            mean_cx_after=data["mean_cx_after"],
            cx_drop_pct=data["cx_drop_pct"],
            mean_cp_before=data["mean_cp_before"],
            mean_cp_after=data["mean_cp_after"],
            cp_drop_pct=data["cp_drop_pct"],
            fallback_count=data["fallback_count"],
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


# -- per-approach translators ---------------------------------------------------


def _rules_translator():
    def run(ast: n.CobolAst, record: Record):
        result = translate_rules(ast)
        return result.jast, result.actions_used, len(result.fallbacks), ""

    return run


def _ai_translator(ckpt, tau: float):
    from relicforge.model import predict

    def run(ast: n.CobolAst, record: Record):
        actions = {ref: action for ref, action, _conf in predict(ast, ckpt, tau)}
        result = translate_with_fallbacks(ast, actions)
        return result.jast, result.actions_used, len(result.fallbacks), ""

    return run


def _external_translator(root: Path):
    def run(ast: n.CobolAst, record: Record):
        path = root / record.oracle_java
        try:
            jast = parse_java(path.read_text(encoding="utf-8"))
        except OSError:
            return None, None, 0, "external translation unreadable"
        except ParseFailure:
            return None, None, 0, "external translation unparseable"
        return jast, None, 0, ""

    return run


def _score_records(records, translate, root: Path, seed: int, approach: str):
    rows: list[FileScore] = []
    pairs: list[dict] = []
    fallback_count = 0
    for record in records:
        ast, _verdict = load_ast(root, record)
        if ast is None:
            rows.append(FileScore(record.id, False, "source failed to parse",
                                  None, None, None, None))
            continue
        before = measure(ast)
        jast, actions_used, fallbacks, failure = translate(ast, record)
        fallback_count += fallbacks
        if jast is None:
            rows.append(FileScore(record.id, False, failure,
                                  before.cyclomatic, None, before.coupling, None))
            continue
        after = java_metrics(jast)
        oracle = None
        if record.oracle_labels:
            oracle = load_oracle_labels(root / record.oracle_labels)
        got = score_file(ast, jast, oracle, file_id=record.id, seed=seed,
                         actions_used=actions_used)
        rows.append(FileScore(record.id, got["correct"], got["reason"],
                              before.cyclomatic, after.cyclomatic,
                              before.coupling, after.coupling))
        pairs.append({
            "id": record.id,
            "cx_before": before.cyclomatic,
            "cx_after": after.cyclomatic,
            "cobol_ast": n.to_json(ast.program),
            "java_ast": j.to_json(jast),
        })
    return _summarize(approach, rows, fallback_count), rows, pairs


# -- entry points ------------------------------------------------------------------


def _resolve_manifest(manifest, root) -> tuple[CorpusManifest, Path]:
    if isinstance(manifest, (str, Path)):
        path = Path(manifest)
        loaded = CorpusManifest.read_jsonl(path)
        return loaded, Path(root) if root is not None else path.parent
    return manifest, Path(root) if root is not None else Path(".")


def build_training_set(root: Path | str, records) -> list:
    """TrainSamples for the given records: oracle labels where sidecars
    exist, default rule labels otherwise."""
    from relicforge.model import sample_from_ast

    root = Path(root)
    samples = []
    for record in records:
        ast, _verdict = load_ast(root, record)
        if ast is None:
            continue
        labels = None
        if record.oracle_labels:
            labels = load_oracle_labels(root / record.oracle_labels)
        samples.append(sample_from_ast(ast, labels))
    return samples


def run_evaluation(
    manifest,
    approach: str,
    checkpoint=None,
    seed: int = DEFAULT_SEED,
    *,
    root=None,
    tau: float = DEFAULT_TAU,
    per_fold: bool = False,
    external_name: str = "manual",
) -> tuple[EvalSummary, list[FileScore], list[dict]]:
    """Full evaluation: summary plus per-file rows and AST pairs for reports."""
    manifest, root = _resolve_manifest(manifest, root)
    kind = str(approach).strip().lower()
    if kind not in ("rules", "ai", "external"):
        raise EvalError(f"unknown approach {approach!r}")
    label = {"rules": APPROACH_RULES, "ai": APPROACH_AI}.get(kind) \
        or f"External({external_name})"

    ckpt = None
    if kind == "ai":
        if checkpoint is None:
            raise EvalError("the Ai approach requires a model checkpoint")
        if isinstance(checkpoint, (str, Path)):
            from relicforge.model import load

            ckpt = load(checkpoint)
        else:
            ckpt = checkpoint

    def translator_for(fold_ckpt=None):
        if kind == "rules":
            return _rules_translator()
        if kind == "ai":
            return _ai_translator(fold_ckpt if fold_ckpt is not None else ckpt, tau)
        return _external_translator(root)

    test = [r for r in manifest.records if r.split is Split.TEST]
    if kind == "external":
        test = [r for r in test if r.oracle_java]
        if not test:
            raise EvalError("no external translations in the Test split")
    if not test:
        raise EvalError("Test split is empty")

    summary, rows, pairs = _score_records(test, translator_for(), root, seed, label)
    if per_fold:
        summary.per_fold = _fold_summaries(
            manifest, kind, root, seed, tau, ckpt, label, translator_for
        )
    return summary, rows, pairs


def _fold_summaries(manifest, kind, root, seed, tau, ckpt, label, translator_for):
    """Cross-validation view over the Train split's round-robin folds. The
    Ai approach retrains per fold on the other folds with the checkpoint's
    own config; the other approaches just score each fold."""
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    folds = sorted({r.fold for r in train if r.fold is not None})
    subs: list[EvalSummary] = []
    for fold in folds:
        records = [r for r in train if r.fold == fold]
        if kind == "external":
            records = [r for r in records if r.oracle_java]
        if not records:
            continue
        translate = translator_for()
        if kind == "ai":
            from relicforge.model import train as train_model

            rest = [r for r in train if r.fold != fold]
            dataset = build_training_set(root, rest)
            translate = translator_for(train_model(dataset, ckpt.config))
        sub, _, _ = _score_records(records, translate, root, seed, label)
        subs.append(sub)
    return subs


def evaluate_corpus(
    manifest,
    approach: str,
    checkpoint=None,
    seed: int = DEFAULT_SEED,
    **kwargs,
) -> EvalSummary:
    summary, _rows, _pairs = run_evaluation(manifest, approach, checkpoint, seed, **kwargs)
    return summary


# -- serialization helpers: EvalSummary as JSON, rows and pairs as JSONL -------


def write_eval_json(summary: EvalSummary, path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary.to_json(), indent=2) + "\n", encoding="utf-8")


def write_file_scores(rows: list[FileScore], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_json(), separators=(",", ":")) + "\n")


def write_pairs(pairs: list[dict], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair, separators=(",", ":")) + "\n")
