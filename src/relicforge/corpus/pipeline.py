"""Corpus pipeline: ingest, repair, parse, dedup, trivial filter, split.

Pipeline order is fixed: repair (whose clean parse is the file's tree) ->
dedup -> filter_trivial -> metrics labeling. Statuses are recomputed from the files on disk on every
curate call, so curate is idempotent on its own output. Repair and
metrics run once per distinct normalized text: files with the same text
share that one result, and dedup then marks every copy after the first.
The per-text work can fan out over a process pool; results are merged in
record order so worker count never changes the output.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from relicforge.analysis.metrics import FEATURE_NAMES, MetricsRecord, measure
from relicforge.cobol import SourceFile, SourceFormat, Verdict, repair
from relicforge.corpus.manifest import (
    DUPLICATE,
    KEPT,
    REJECTED,
    REPAIRED,
    TEST,
    TRAIN,
    TRIVIAL,
    CorpusManifest,
    Record,
    Status,
)
from relicforge.errors import SourceError, SplitError

DEFAULT_EXTENSIONS = (".cbl", ".cob", ".txt")
TRAIN_FRACTION = 0.8
FOLD_COUNT = 5

_STATUS_OF_VERDICT = {
    Verdict.CLEAN: Status.KEPT,
    Verdict.REPAIRED: Status.REPAIRED,
    Verdict.REJECTED: Status.REJECTED,
}

_STATEMENTS = FEATURE_NAMES.index("statements")
_DISPLAYS = FEATURE_NAMES.index("displays")


@dataclass(frozen=True)
class CorpusConfig:
    extensions: tuple[str, ...] = DEFAULT_EXTENSIONS
    format: SourceFormat = SourceFormat.FREE
    min_statements: int = 3


def _md5(text: str) -> str:
    """The md5 a record stores for its normalized text."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def normalize_text(raw: str) -> str:
    """Dedup normalization: CRLF to LF plus per-line trailing-space strip."""
    lines = raw.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines)


def ingest(root: Path | str, config: CorpusConfig = CorpusConfig()) -> CorpusManifest:
    """Scan root for source files; one record per file, path order, no statuses.

    Unreadable or undecodable files are recorded as Rejected instead of
    aborting the scan. Oracle sidecars (<stem>.java, <stem>.labels.json)
    are attached when present.
    """
    root = Path(root)
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in config.extensions),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    records: list[Record] = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        record = Record(id=rel, relative_path=rel, md5="", lines=0)
        try:
            raw = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            record.status = REJECTED
            record.reason = "not valid UTF-8"
            records.append(record)
            continue
        except OSError as exc:
            record.status = REJECTED
            record.reason = f"unreadable: {exc.__class__.__name__}"
            records.append(record)
            continue
        text = normalize_text(raw)
        record.md5 = _md5(text)
        record.lines = len(text.split("\n"))
        java = path.with_suffix(".java")
        labels = path.with_name(path.stem + ".labels.json")
        if java.is_file():
            record.oracle_java = java.relative_to(root).as_posix()
        if labels.is_file():
            record.oracle_labels = labels.relative_to(root).as_posix()
        records.append(record)
    return CorpusManifest(records)


def read_normalized(root: Path | str, record: Record) -> str:
    raw = (Path(root) / record.relative_path).read_bytes().decode("utf-8")
    return normalize_text(raw)


def load_ast(root: Path | str, record: Record, config: CorpusConfig = CorpusConfig()):
    """Rebuild a curated record's tree; returns (ast, verdict).

    The manifest stores no repaired text or tree, so downstream consumers
    rebuild the tree on demand with one repair call, which parses the file
    once and hands back the tree of its clean parse. Repair is
    deterministic, so for a file left unchanged since curate, read under
    the config it was curated with, this reproduces the curate-time tree
    and verdict. Raises SourceError, a FormatError naming the file, when
    the file can no longer be read, or when its normalized text no longer
    has the record's md5 (a record without an md5, as in a hand-written
    manifest, is not checked). Returns (None, Rejected) for unrepairable
    files.
    """
    try:
        text = read_normalized(root, record)
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceError(record.relative_path, "source unreadable") from exc
    if record.md5 and _md5(text) != record.md5:
        raise SourceError(record.relative_path, "source changed since curate")
    _fixed, log = repair(SourceFile(record.id, text, config.format))
    return log.ast, log.verdict


@dataclass
class _FileResult:
    verdict: Verdict
    metrics: MetricsRecord | None = None


def _curate_one(args: tuple[str, str, SourceFormat]) -> _FileResult:
    file_id, text, fmt = args
    _fixed, log = repair(SourceFile(file_id, text, fmt))
    return _FileResult(log.verdict, None if log.ast is None else measure(log.ast))


def dedup(manifest: CorpusManifest) -> CorpusManifest:
    """First (lexicographic) path per md5 class stays; the rest point at it."""
    survivors: dict[str, Record] = {}
    for record in sorted(manifest.records, key=lambda r: r.relative_path):
        if record.status is REJECTED or not record.md5:
            continue
        keeper = survivors.get(record.md5)
        if keeper is None:
            survivors[record.md5] = record
        else:
            record.status = DUPLICATE
            record.duplicate_of = keeper.id
            record.metrics = None
    return manifest


def filter_trivial(manifest: CorpusManifest, min_statements: int = 3) -> CorpusManifest:
    """Demote parsed records that are too small or pure Display noise."""
    for record in manifest.records:
        if record.status not in (KEPT, REPAIRED) or record.metrics is None:
            continue
        statements = int(record.metrics.features[_STATEMENTS])
        displays = int(record.metrics.features[_DISPLAYS])
        if statements < min_statements or (statements > 0 and displays == statements):
            record.status = TRIVIAL
            record.metrics = None
    return manifest


def curate(
    manifest: CorpusManifest,
    root: Path | str,
    config: CorpusConfig = CorpusConfig(),
    jobs: int = 1,
) -> CorpusManifest:
    """Assign every record a terminal status and attach metrics.

    Returns the manifest; read summary counts via manifest.counts().
    """
    candidates: list[Record] = []
    slots: list[int] = []  # per candidate, the task that curates its text
    tasks: list[tuple[str, str, SourceFormat]] = []
    task_of_text: dict[str, int] = {}
    for record in manifest.records:
        if record.status is REJECTED and not record.md5:
            continue  # unreadable at ingest; terminal
        record.status = None
        record.duplicate_of = None
        record.reason = None
        record.metrics = None
        try:
            text = read_normalized(root, record)
        except (OSError, UnicodeDecodeError) as exc:
            record.status = REJECTED
            record.reason = f"unreadable: {exc.__class__.__name__}"
            continue
        if text not in task_of_text:
            task_of_text[text] = len(tasks)
            tasks.append((record.id, text, config.format))
        candidates.append(record)
        slots.append(task_of_text[text])

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_curate_one, tasks, chunksize=16))
    else:
        results = [_curate_one(task) for task in tasks]

    for record, slot in zip(candidates, slots):
        result = results[slot]
        record.status = _STATUS_OF_VERDICT[result.verdict]
        if record.status is REJECTED:
            record.reason = "unrepairable syntax"
        record.metrics = result.metrics

    dedup(manifest)
    filter_trivial(manifest, config.min_statements)
    return manifest


def split(manifest: CorpusManifest, seed: int) -> CorpusManifest:
    """Shuffle eligible records with a seeded PRNG; 80% Train (round down),
    rest Test; Train folds assigned round-robin 0..4 in shuffle order."""
    eligible = sorted(manifest.eligible(), key=lambda r: r.relative_path)
    if len(eligible) < FOLD_COUNT:
        raise SplitError(f"need at least {FOLD_COUNT} eligible records, have {len(eligible)}")
    for record in manifest.records:
        record.split = None
        record.fold = None
    rng = random.Random(seed)
    rng.shuffle(eligible)
    train_count = int(len(eligible) * TRAIN_FRACTION)
    for i, record in enumerate(eligible):
        if i < train_count:
            record.split = TRAIN
            record.fold = i % FOLD_COUNT
        else:
            record.split = TEST
    return manifest
