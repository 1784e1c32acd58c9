"""The benchmark's workloads: generate, run the pipeline stages, check.

One iteration runs every stage of a workload once over the generated
corpus, writes the artifacts a user would keep (manifest JSONL, eval
JSON, checkpoint) and checks them. A run repeats iterations for the
requested number of seconds and reports medians.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import shutil
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import relicforge.model as model
from relicforge.cobol import SourceFile, repair
from relicforge.corpus import (
    MANIFEST_NAME,
    CorpusManifest,
    Split,
    curate,
    ingest,
    normalize_text,
    split,
)
from relicforge.evaluate import build_training_set, run_evaluation, write_eval_json

from perfbench import gen, layers, speed
from perfbench.spans import Tracer

ACCEPTANCE_FILES = 120
ACCEPTANCE_EPOCHS = 2
DIFFERENTIAL_FILES = 160
# The share of random_program files that hit the step limit on some input,
# measured over seeds 1-10 with 300 files each: 116 of 3,000 (3.9%, from 5
# to 17 per seed), so 6 of 160.
DIFFERENTIAL_STEP_LIMIT_FILES = 6
DIRTY_FILES = 500


@dataclass
class Workload:
    name: str
    why: str
    generate: Callable[[Path, int], gen.Corpus]
    stages: Callable[["Context"], None]


@dataclass
class Context:
    """What the stages of one iteration share."""

    corpus: gen.Corpus
    seed: int
    out: Path
    tracer: Tracer
    manifest: CorpusManifest | None = None
    evals: dict = field(default_factory=dict)  # approach -> (summary, rows)
    train_files: int = 0
    checkpoint_bytes: int = 0
    sampler: speed.Sampler = field(default_factory=speed.Sampler)
    stage_s: dict[str, float] = field(default_factory=dict)  # scaled
    raw_stage_s: dict[str, float] = field(default_factory=dict)  # less the probes' time

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time one stage and scale it by the probes taken during it."""
        count, spent = len(self.sampler.samples), self.sampler.spent
        with self.tracer.stage(f"bench.{name}") as span:
            yield
        raw = span.duration - (self.sampler.spent - spent)
        samples = self.sampler.samples[count:] or [speed.probe_s()]
        self.raw_stage_s[name] = raw
        self.stage_s[name] = raw * speed.factor(samples)


def _curate_stage(ctx: Context) -> None:
    with ctx.stage("curate"):
        manifest = ingest(ctx.corpus.root)
        curate(manifest, ctx.corpus.root, jobs=1)
        split(manifest, ctx.seed)
        manifest.write_jsonl(ctx.out / MANIFEST_NAME)
    ctx.manifest = manifest


def _evaluate(ctx: Context, approach: str, checkpoint=None, per_fold=False) -> None:
    with ctx.stage(f"eval_{approach}"):
        summary, rows, _pairs = run_evaluation(
            ctx.manifest, approach, checkpoint, root=ctx.corpus.root, per_fold=per_fold
        )
        write_eval_json(summary, ctx.out / f"eval_{approach}.json")
    ctx.evals[approach] = (summary, rows)


def _acceptance_stages(ctx: Context) -> None:
    _curate_stage(ctx)
    train_records = [r for r in ctx.manifest.records if r.split is Split.TRAIN]
    ctx.train_files = len(train_records)
    with ctx.stage("featurize"):
        dataset = build_training_set(ctx.corpus.root, train_records)
    with ctx.stage("train"):
        ckpt = model.train(dataset, model.ModelConfig(epochs=ACCEPTANCE_EPOCHS))
    with ctx.stage("checkpoint"):
        model.save(ckpt, ctx.out / "model.ckpt")
        loaded = model.load(ctx.out / "model.ckpt")
    ctx.checkpoint_bytes = (ctx.out / "model.ckpt").stat().st_size
    _evaluate(ctx, "rules")
    _evaluate(ctx, "ai", loaded)


def _differential_stages(ctx: Context) -> None:
    _curate_stage(ctx)
    _evaluate(ctx, "rules", per_fold=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance",
            "the paper's Ai-vs-Rules path: curate, featurize, train, checkpoint, "
            "then both evaluations; the model layer does most of the work",
            lambda root, seed: gen.acceptance(root, seed, ACCEPTANCE_FILES),
            _acceptance_stages,
        ),
        Workload(
            "differential",
            "random programs scored by both interpreters with no training; the "
            "step-limit tail dominates, and model changes must not move it",
            lambda root, seed: gen.differential(
                root, seed, DIFFERENTIAL_FILES, DIFFERENTIAL_STEP_LIMIT_FILES
            ),
            _differential_stages,
        ),
        Workload(
            "dirty_intake",
            "damaged, garbage, duplicate and trivial files through ingest, curate "
            "and split only: the cobol front end on its repair path",
            lambda root, seed: gen.dirty_intake(root, seed, DIRTY_FILES),
            _curate_stage,
        ),
    )
}


def generate(name: str, root: Path, seed: int) -> gen.Corpus:
    return WORKLOADS[name].generate(root, seed)


# -- one iteration ---------------------------------------------------------------


@dataclass
class Iteration:
    """What a run keeps of one iteration: numbers and digests, not trees."""

    traced: bool
    wall_s: float = 0.0  # summed stage time, scaled
    stage_s: dict[str, float] = field(default_factory=dict)  # scaled
    raw_stage_s: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)  # end-to-end, scaled
    per_layer: dict[str, float] = field(default_factory=dict)  # scaled
    samples: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failed_files: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    raised: bool = False


def run_iteration(workload: Workload, corpus: gen.Corpus, seed: int, out: Path,
                  traced: bool) -> Iteration:
    """Run every stage once and check it; failures are recorded, never raised.
    Times are scaled to the nominal machine (see speed.py)."""
    out.mkdir(parents=True)
    gc.collect()  # start every iteration from the same heap
    tracer = Tracer()
    ctx = Context(corpus, seed, out, tracer)
    it = Iteration(traced)
    if traced:
        layers.install(tracer)
    try:
        with tracer, ctx.sampler:
            workload.stages(ctx)
    except Exception as exc:  # a stage raised: no file of this iteration was carried
        it.raised = True
        it.problems.append(f"stage raised {type(exc).__name__}: {exc}")
        it.failed_files.update(corpus.intended)
    it.stage_s = dict(ctx.stage_s)
    it.raw_stage_s = dict(ctx.raw_stage_s)
    it.wall_s = sum(ctx.stage_s.values())
    for path in sorted(out.iterdir()):
        it.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    shutil.rmtree(out)
    if it.raised:
        return it
    check_iteration(ctx, it)
    it.metrics = iteration_metrics(ctx, it)
    if traced:
        per_layer, it.samples = layers.derive(
            tracer.spans, len(corpus.intended), len(ctx.manifest.eligible())
        )
        # Spans hold raw seconds, probes included; scale them all alike.
        span_wall = sum(span.duration for span in tracer.spans if span.parent is None)
        it.per_layer = speed.scaled(per_layer, layers.UNITS, it.wall_s / span_wall)
        it.per_layer["model.checkpoint.bytes"] = ctx.checkpoint_bytes
        covered = sum(it.per_layer[f"{owner}.share_of_wall"] for owner in layers.SHARE_OWNERS)
        if not math.isclose(covered, 1.0, abs_tol=1e-6):
            it.problems.append(f"layer shares add up to {covered:.6f} of traced wall_s, not 1")
    return it


def _scored(summary) -> int:
    """Files an evaluation scored: the Test split plus, per fold, Train."""
    return summary.n + sum(f.n for f in summary.per_fold or ())


def _unmeasured_folds(records, summary) -> list[list[str]]:
    """The files of each fold whose paired complexity means leave a file
    out. A file whose source failed to parse, or whose translation failed,
    has no cx_after and so drops out of its fold's mean_cx_before and
    mean_cp_before, which then differ from the means curate recorded for
    the fold's files. The fold rows themselves are not returned."""
    folds = sorted({r.fold for r in records if r.split is Split.TRAIN and r.fold is not None})
    bad = []
    for fold, sub in zip(folds, summary.per_fold or ()):
        members = [r for r in records if r.split is Split.TRAIN and r.fold == fold]
        cx = statistics.fmean(r.metrics.cyclomatic for r in members)
        cp = statistics.fmean(r.metrics.coupling for r in members)
        if len(members) != sub.n or not (math.isclose(cx, sub.mean_cx_before)
                                         and math.isclose(cp, sub.mean_cp_before)):
            bad.append([r.relative_path for r in members])
    return bad


def check_iteration(ctx: Context, it: Iteration) -> None:
    """Curate statuses must match the generator's intent, and every scored
    file must have been parsed, translated and measured: Test rows one by
    one, Train files (with per_fold) through their fold's means."""
    intended = ctx.corpus.intended
    records = ctx.manifest.records
    seen = set()
    for record in records:
        seen.add(record.relative_path)
        got = record.status.value if record.status else None
        if got != intended.get(record.relative_path):
            it.failed_files.add(record.relative_path)
    it.failed_files.update(set(intended) - seen)
    if it.failed_files:
        it.problems.append(f"{len(it.failed_files)} files got the wrong status")
    train = sum(1 for r in records if r.split is Split.TRAIN)
    for approach, (summary, rows) in ctx.evals.items():
        unscored = [r for r in rows if r.cx_after is None]
        if unscored:
            it.failed_files.update(r.id for r in unscored)
            it.problems.append(f"eval {approach}: {len(unscored)} Test files not translated "
                               f"and measured, first: {unscored[0].reason}")
        if summary.per_fold is None:
            continue
        folded = sum(f.n for f in summary.per_fold)
        if folded != train:
            it.problems.append(f"eval {approach}: folds scored {folded} of {train} Train files")
        for members in _unmeasured_folds(records, summary):
            it.failed_files.update(members)
            it.problems.append(f"eval {approach}: a fold of {len(members)} Train files "
                               "left a file unmeasured")


def check_repair_rules(corpus: gen.Corpus) -> set[str]:
    """Files whose repair fired other rules than their damage calls for."""
    wrong = set()
    for name, want in corpus.expected_rules.items():
        text = normalize_text((corpus.root / name).read_bytes().decode("utf-8"))
        source = SourceFile(name, text)
        _fixed, log = repair(source)
        if sorted(e.rule.value for e in log.entries) != want:
            wrong.add(name)
    return wrong


# -- end-to-end metrics ---------------------------------------------------------

# (name, unit, better) as the report prints them. A workload reports only
# the stages it runs; END_TO_END in run.py lists the ones every workload
# reports, which BENCHMARK.json bounds.
REPORT_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("curate_files_per_s", "files/s", "higher"),
    ("featurize_files_per_s", "files/s", "higher"),
    ("train_epoch_s", "s", "lower"),
    ("eval_rules_files_per_s", "files/s", "higher"),
    ("eval_ai_files_per_s", "files/s", "higher"),
    ("accuracy_rules", "ratio", "higher"),
    ("accuracy_ai", "ratio", "higher"),
    ("cx_after_rules", "mean CC", "lower"),
    ("cx_after_ai", "mean CC", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_share", "ratio", "lower"),
)


def iteration_metrics(ctx: Context, it: Iteration) -> dict[str, float]:
    stage = it.stage_s
    out = {"wall_s": it.wall_s,
           "curate_files_per_s": len(ctx.corpus.intended) / stage["curate"]}
    if "featurize" in stage:
        out["featurize_files_per_s"] = ctx.train_files / stage["featurize"]
        out["train_epoch_s"] = stage["train"] / ACCEPTANCE_EPOCHS
    for approach, (summary, _rows) in ctx.evals.items():
        out[f"eval_{approach}_files_per_s"] = _scored(summary) / stage[f"eval_{approach}"]
        out[f"accuracy_{approach}"] = summary.accuracy
        out[f"cx_after_{approach}"] = summary.mean_cx_after
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = [k for k in rows[0] if all(k in r for r in rows)]
    return {k: statistics.median(r[k] for r in rows) for k in keys}


def failed_share(iterations: list[Iteration], files: int, wrong_rules=frozenset()):
    """(attempted, failed, share): every file counts once per iteration. A
    file whose repair fires the wrong rules fails in every iteration, since
    every iteration repairs it the same way."""
    attempted = files * len(iterations)
    failed = sum(len(it.failed_files | set(wrong_rules)) for it in iterations)
    return attempted, failed, failed / attempted if attempted else 0.0
