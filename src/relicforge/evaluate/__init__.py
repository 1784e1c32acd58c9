"""Differential interpreters and translation scoring."""

from relicforge.evaluate.cobol_interp import compile_cobol, interpret_cobol
from relicforge.evaluate.java_interp import compile_java, interpret_java
from relicforge.evaluate.scoring import (
    INPUT_LENGTH,
    INPUT_VECTORS,
    LABEL_AGREEMENT_MIN,
    EvalSummary,
    FileScore,
    build_training_set,
    drop_pct,
    has_goto,
    input_battery,
    label_agreement,
    load_oracle_labels,
    run_evaluation,
    score_file,
    traces_match,
    write_eval_json,
)
from relicforge.evaluate.values import MAX_STEPS, OutcomeKind, Trace

__all__ = [
    "INPUT_LENGTH",
    "INPUT_VECTORS",
    "LABEL_AGREEMENT_MIN",
    "MAX_STEPS",
    "EvalSummary",
    "FileScore",
    "OutcomeKind",
    "Trace",
    "build_training_set",
    "compile_cobol",
    "compile_java",
    "drop_pct",
    "has_goto",
    "input_battery",
    "interpret_cobol",
    "interpret_java",
    "label_agreement",
    "load_oracle_labels",
    "run_evaluation",
    "score_file",
    "traces_match",
    "write_eval_json",
]
