"""Per-layer metrics: where the traced run puts its spans and what it
derives from them.

Each wrapper sits at the module attribute the caller looks the function
up through, for example `repair` finds `parse` in its own module and
`scoring` finds `load_ast`, `measure` and both interpreters in its own.
Spans go no finer than one LSTM forward pass or one loss-and-gradients
batch. The stage functions the benchmark calls itself (ingest, curate,
split, train, run_evaluation, ...) get spans too, wrapped where
workloads.py looks them up, so that every second of a stage belongs to a
layer or, in the `bench.*` stage spans, to the benchmark's own code.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from relicforge.cobol.repair import RepairRule

from perfbench.spans import Span, Tracer, self_times

LAYERS = ("cobol", "analysis", "corpus", "model", "transpile", "evaluate")
# The layers plus the benchmark's own code: their shares add up to 1.
SHARE_OWNERS = LAYERS + ("bench",)


def _tokens(args, kwargs, result):
    return {"tokens": len(result)}


def _repair(args, kwargs, result):
    log = result[1]
    return {"verdict": log.verdict.value, "rules": [e.rule.value for e in log.entries]}


def _batch_steps(args, kwargs, result):
    return {"steps": sum(len(sample.steps) for sample in args[0])}


def _pass_steps(args, kwargs, result):
    return {"steps": int(result.logits.shape[0])}


def _fallbacks(args, kwargs, result):
    return {"fallbacks": len(result.fallbacks)}


def _outcome(args, kwargs, result):
    return {"outcome": result.outcome.kind.value}


# (module where the caller looks the name up, attribute, span name, facts)
WRAPS = (
    ("perfbench.workloads", "ingest", "corpus.ingest", None),
    ("perfbench.workloads", "curate", "corpus.curate", None),
    ("perfbench.workloads", "split", "corpus.split", None),
    ("relicforge.corpus.manifest", "CorpusManifest.write_jsonl", "corpus.write_jsonl", None),
    ("perfbench.workloads", "build_training_set", "evaluate.build_training_set", None),
    ("relicforge.model", "train", "model.train", None),
    ("perfbench.workloads", "run_evaluation", "evaluate.run_evaluation", None),
    ("perfbench.workloads", "write_eval_json", "evaluate.write_eval_json", None),
    ("relicforge.cobol.repair", "tokenize", "cobol.tokenize", _tokens),
    ("relicforge.cobol.parser", "tokenize", "cobol.tokenize", _tokens),
    ("relicforge.cobol.repair", "parse", "cobol.parse", None),
    ("relicforge.cobol.parser", "parse", "cobol.parse", None),
    ("relicforge.corpus.pipeline", "repair", "cobol.repair", _repair),
    ("relicforge.corpus.pipeline", "measure", "analysis.measure", None),
    ("relicforge.evaluate.scoring", "measure", "analysis.measure", None),
    ("relicforge.analysis.metrics", "build_cfg", "analysis.build_cfg", None),
    ("relicforge.model.training", "build_cfg", "analysis.build_cfg", None),
    ("relicforge.model.predict", "build_cfg", "analysis.build_cfg", None),
    ("relicforge.model.training", "step_features", "analysis.step_features", None),
    ("relicforge.model.predict", "step_features", "analysis.step_features", None),
    ("relicforge.evaluate.scoring", "load_ast", "corpus.load_ast", None),
    ("relicforge.model", "sample_from_ast", "model.sample_from_ast", None),
    ("relicforge.model.training", "loss_and_grads", "model.loss_and_grads", _batch_steps),
    ("relicforge.model.training", "dataset_metrics", "model.dataset_metrics", None),
    ("relicforge.model.training", "forward", "model.forward", _pass_steps),
    ("relicforge.model.predict", "forward", "model.forward", _pass_steps),
    ("relicforge.model", "predict", "model.predict", None),
    ("relicforge.model", "save", "model.checkpoint.save", None),
    ("relicforge.model", "load", "model.checkpoint.load", None),
    ("relicforge.evaluate.scoring", "translate_rules", "transpile.translate", _fallbacks),
    ("relicforge.evaluate.scoring", "translate_with_fallbacks", "transpile.translate",
     _fallbacks),
    ("relicforge.evaluate.scoring", "java_metrics", "transpile.java_metrics", None),
    ("relicforge.evaluate.scoring", "interpret_cobol", "evaluate.interpret_cobol", _outcome),
    ("relicforge.evaluate.scoring", "interpret_java", "evaluate.interpret_java", _outcome),
    ("relicforge.evaluate.scoring", "score_file", "evaluate.score_file", None),
)


def install(tracer: Tracer) -> None:
    for module, attr, span_name, facts in WRAPS:
        tracer.wrap(module, attr, span_name, facts)


def _calls_self(prefix):
    return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]


def _interpreter(prefix):
    return _calls_self(prefix) + [
        (f"{prefix}.run_p50_s", "s", "lower"),
        (f"{prefix}.run_p99_s", "s", "lower"),
        (f"{prefix}.step_limit_runs", "count", "lower"),
        (f"{prefix}.step_limit_share_s", "ratio", "lower"),
        (f"{prefix}.runtime_error_runs", "count", "lower"),
    ]


# (name, unit, better) for every per-layer metric the traced run reports.
METRICS = (
    _calls_self("cobol.tokenize") + [("cobol.tokenize.tokens_per_s", "tokens/s", "higher")]
    + _calls_self("cobol.parse") + [("cobol.parse.calls_per_file", "calls/file", "lower")]
    + _calls_self("cobol.repair") + [
        ("cobol.repair.parse_attempts_per_call", "attempts/call", "lower"),
        ("cobol.repair.repaired", "count", "higher"),
        ("cobol.repair.rejected", "count", "lower"),
    ] + [(f"cobol.repair.rules_fired.{rule.value}", "count", "lower") for rule in RepairRule]
    + _calls_self("corpus.load_ast")
    + [("corpus.load_ast.calls_per_record", "calls/record", "lower")]
    + _calls_self("analysis.measure")
    + _calls_self("analysis.build_cfg")
    + _calls_self("analysis.step_features")
    + [
        ("model.loss_and_grads.self_s", "s", "lower"),
        ("model.loss_and_grads.steps_per_s", "steps/s", "higher"),
        ("model.dataset_metrics.self_s", "s", "lower"),
        ("model.dataset_metrics.share_of_train", "ratio", "lower"),
        ("model.forward.calls", "count", "lower"),
        ("model.forward.us_per_1k_steps", "us", "lower"),
    ]
    + _calls_self("model.predict")
    + [
        ("model.checkpoint.save_s", "s", "lower"),
        ("model.checkpoint.load_s", "s", "lower"),
        ("model.checkpoint.bytes", "bytes", "lower"),
    ]
    + _calls_self("transpile.translate")
    + [("transpile.translate.fallbacks_per_file", "fallbacks/file", "lower")]
    + _calls_self("transpile.java_metrics")
    + _interpreter("evaluate.interpret_cobol")
    + _interpreter("evaluate.interpret_java")
    + [
        ("evaluate.score_file.file_p50_s", "s", "lower"),
        ("evaluate.score_file.file_p99_s", "s", "lower"),
        ("datagen.gen_s", "s", "lower"),
    ]
    + [(f"{owner}.share_of_wall", "ratio", "lower") for owner in SHARE_OWNERS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in METRICS}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans: list[Span], files: int,
           records: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one traced iteration, plus the sample count
    behind each percentile. `files` counts generated files, `records` the
    records curate left eligible. Shares are of the time the top-level
    spans, the stages, cover."""
    own = self_times(spans)
    wall_s = sum(span.duration for span in spans if span.parent is None)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def duration(index):
        return spans[index].duration

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[i] for i in by_name[name])

    def total_s(name):
        return sum(duration(i) for i in by_name[name])

    def info_sum(name, key):
        return sum(spans[i].info.get(key, 0) for i in by_name[name])

    out: dict[str, float] = {}
    samples: dict[str, int] = {}
    for name, _unit, _better in METRICS:
        prefix, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls(prefix)
        elif what == "self_s":
            out[name] = self_s(prefix)

    out["cobol.tokenize.tokens_per_s"] = _ratio(
        info_sum("cobol.tokenize", "tokens"), self_s("cobol.tokenize"))
    out["cobol.parse.calls_per_file"] = _ratio(calls("cobol.parse"), files)

    repairs = by_name["cobol.repair"]
    repair_set = set(repairs)
    attempts = sum(1 for i in by_name["cobol.tokenize"] if spans[i].parent in repair_set)
    out["cobol.repair.parse_attempts_per_call"] = _ratio(attempts, len(repairs))
    verdicts = Counter(spans[i].info.get("verdict") for i in repairs)
    out["cobol.repair.repaired"] = verdicts["Repaired"]
    out["cobol.repair.rejected"] = verdicts["Rejected"]
    fired = Counter(rule for i in repairs for rule in spans[i].info.get("rules", ()))
    for rule in RepairRule:
        out[f"cobol.repair.rules_fired.{rule.value}"] = fired[rule.value]

    out["corpus.load_ast.calls_per_record"] = _ratio(calls("corpus.load_ast"), records)

    out["model.loss_and_grads.steps_per_s"] = _ratio(
        info_sum("model.loss_and_grads", "steps"), self_s("model.loss_and_grads"))
    out["model.dataset_metrics.share_of_train"] = _ratio(
        total_s("model.dataset_metrics"), total_s("model.train"))
    out["model.forward.us_per_1k_steps"] = _ratio(
        total_s("model.forward"), info_sum("model.forward", "steps")) * 1e9
    out["model.checkpoint.save_s"] = total_s("model.checkpoint.save")
    out["model.checkpoint.load_s"] = total_s("model.checkpoint.load")

    out["transpile.translate.fallbacks_per_file"] = _ratio(
        info_sum("transpile.translate", "fallbacks"), calls("transpile.translate"))

    for side in ("evaluate.interpret_cobol", "evaluate.interpret_java"):
        runs = by_name[side]
        durations = [duration(i) for i in runs]
        limited = [duration(i) for i in runs if spans[i].info.get("outcome") == "StepLimit"]
        out[f"{side}.run_p50_s"] = percentile(durations, 0.50)
        out[f"{side}.run_p99_s"] = percentile(durations, 0.99)
        out[f"{side}.step_limit_runs"] = len(limited)
        out[f"{side}.step_limit_share_s"] = _ratio(sum(limited), sum(durations))
        out[f"{side}.runtime_error_runs"] = sum(
            1 for i in runs if spans[i].info.get("outcome") == "RuntimeError")
        samples[f"{side}.run"] = len(runs)

    scored = [duration(i) for i in by_name["evaluate.score_file"]]
    out["evaluate.score_file.file_p50_s"] = percentile(scored, 0.50)
    out["evaluate.score_file.file_p99_s"] = percentile(scored, 0.99)
    samples["evaluate.score_file.file"] = len(scored)

    layer_self: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        layer_self[span.name.split(".", 1)[0]] += own[index]
    for owner in SHARE_OWNERS:
        out[f"{owner}.share_of_wall"] = _ratio(layer_self[owner], wall_s)
    return out, samples
