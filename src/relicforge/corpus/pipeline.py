"""Corpus pipeline: ingest, repair, parse, dedup, trivial filter, split.

Ingest lists the tree once, finds each file's sidecars in that listing
and reads no file. Curate reads every source during intake, and
`load_ast` reads it again downstream to check that it is unchanged; both
read with one plain `open` through `read_normalized`.

Pipeline order is fixed: repair (whose clean parse is the file's tree)
and metrics -> dedup, whose merge loop attaches the metrics and the tree
-> filter_trivial. Statuses are recomputed from the files on disk on
every curate call, so curate is idempotent on its own output. Repair and
metrics run once per distinct normalized text, and that one grouping by
text is also the dedup: the first path of a text keeps the result and
every later copy is marked Duplicate of it. The record that keeps a
text holds its tree in memory, so within one run each distinct text is
repaired and parsed once; `load_ast` repairs again only for a manifest
read back from JSONL, which holds no trees. The per-text work can fan
out over a process pool; results are merged in path order so worker
count never changes the output.
"""

from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from relicforge.analysis.metrics import FEATURE_NAMES, MetricsRecord, measure
from relicforge.cobol import SourceFile, SourceFormat, Verdict, repair
from relicforge.cobol.nodes import CobolAst
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
    """Dedup normalization: a leading byte order mark dropped, CRLF to LF
    plus per-line trailing-space strip."""
    if raw.startswith("\ufeff"):
        raw = raw[1:]
    lines = raw.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join([line.rstrip() for line in lines])


def _list_files(root: str) -> set[str]:
    """Every file under root, as its posix path relative to root.

    The same set as `Path(root).rglob("*")` filtered by `is_file()`:
    regular files and symlinks to files. Symlinked directories are not
    followed; broken links, symlink loops, FIFOs, sockets, directories
    (whatever their name) and the contents of a directory that cannot be
    listed are left out. A root that is not a directory lists nothing.
    """
    files: set[str] = set()
    if not os.path.isdir(root):
        return files
    pending = [(root, "")]
    while pending:
        directory, prefix = pending.pop()
        try:
            with os.scandir(directory) as it:
                entries = list(it)
        except PermissionError:
            continue
        for entry in entries:
            try:
                if entry.is_file():
                    files.add(prefix + entry.name)
                elif entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, prefix + entry.name + "/"))
            except OSError:  # a symlink loop: not a file
                continue
    return files


def _suffix(rel: str) -> str:
    """pathlib's suffix of the last path component: `..cbl` has `.cbl`,
    `.cbl` and `a.` have none."""
    name = rel[rel.rfind("/") + 1:]
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def ingest(root: Path | str, config: CorpusConfig = CorpusConfig()) -> CorpusManifest:
    """List root's source files; one record per file, path order, no statuses.

    The tree is listed once with `os.scandir` (see `_list_files`), and a
    file is a source when its suffix, lowercased, is one of
    `config.extensions`. No file is read: each record has no md5, zero
    lines and no status until `curate` reads it. Oracle sidecars
    (<stem>.java, <stem>.labels.json beside the source) are attached when
    the listing holds them, so finding one costs no stat call.
    """
    root = os.fspath(root)
    files = _list_files(root)
    records: list[Record] = []
    for rel in sorted(files):
        suffix = _suffix(rel)
        if suffix.lower() not in config.extensions:
            continue
        record = Record(id=rel, relative_path=rel, md5="", lines=0)
        stem = rel[: len(rel) - len(suffix)]
        if stem + ".java" in files:
            record.oracle_java = stem + ".java"
        if stem + ".labels.json" in files:
            record.oracle_labels = stem + ".labels.json"
        records.append(record)
    return CorpusManifest(records)


def read_normalized(root: Path | str, record: Record) -> str:
    """The record's file under root, decoded as UTF-8 and `normalize_text`ed.

    Raises OSError or UnicodeDecodeError; curate and `load_ast` both read
    through here.
    """
    with open(os.path.join(root, record.relative_path), "rb") as f:
        raw = f.read()
    return normalize_text(raw.decode("utf-8"))


def load_ast(root: Path | str, record: Record, config: CorpusConfig = CorpusConfig()):
    """A curated record's tree, or None for a file that cannot be repaired.

    The file is read every time: raises SourceError, a FormatError naming
    the file, when it can no longer be read, or when its normalized text
    no longer has the record's md5 (a record without an md5, as in a
    hand-written manifest, is not checked). A record that curate kept in
    this run holds the tree of its clean parse; once the md5 check has
    passed, that tree is returned as is and shared, so callers only read
    it. A record without one (read back from JSONL, or written by hand) is
    rebuilt with one repair call, which parses the file once. Repair is
    deterministic, so for a file left unchanged since curate, read under
    the config it was curated with, both give the curate-time tree.
    """
    try:
        text = read_normalized(root, record)
    except (OSError, UnicodeDecodeError) as exc:
        raise SourceError(record.relative_path, "source unreadable") from exc
    if record.md5:
        if _md5(text) != record.md5:
            raise SourceError(record.relative_path, "source changed since curate")
        if record.ast is not None:  # the file still holds the text curate parsed
            return record.ast
    _fixed, log = repair(SourceFile(record.id, text, config.format))
    return log.ast


@dataclass
class _FileResult:
    verdict: Verdict
    ast: CobolAst | None = None
    metrics: MetricsRecord | None = None


def _curate_one(args: tuple[str, str, SourceFormat]) -> _FileResult:
    file_id, text, fmt = args
    _fixed, log = repair(SourceFile(file_id, text, fmt))
    return _FileResult(log.verdict, log.ast, None if log.ast is None else measure(log.ast))


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
            record.ast = None
    return manifest


def curate(
    manifest: CorpusManifest,
    root: Path | str,
    config: CorpusConfig = CorpusConfig(),
    jobs: int = 1,
) -> CorpusManifest:
    """Assign every record a terminal status and attach metrics and trees.

    Every record's file is read once, and a record takes its md5 and line
    count from that text, so `load_ast` sees the text curate judged. A
    file that is not UTF-8 is Rejected as "not valid UTF-8", one that
    cannot be read as "unreadable: <exception name>", and neither keeps an
    md5 or a line count. Readable records are grouped by text: in path
    order the first record of a text keeps its result and every later one
    becomes a Duplicate of it. Only the record that keeps a text holds its
    tree. Returns the manifest; read summary counts via manifest.counts().
    """
    pending: list[tuple[Record, int]] = []  # readable records, each with its text's task
    tasks: list[tuple[str, str, SourceFormat]] = []
    task_of_text: dict[str, int] = {}
    for record in manifest.records:
        record.status = None
        record.duplicate_of = None
        record.reason = None
        record.metrics = None
        record.ast = None
        try:
            text = read_normalized(root, record)
        except (OSError, UnicodeDecodeError) as exc:
            record.status = REJECTED
            record.reason = ("not valid UTF-8" if isinstance(exc, UnicodeDecodeError)
                             else f"unreadable: {exc.__class__.__name__}")
            record.md5 = ""
            record.lines = 0
            continue
        record.md5 = _md5(text)
        record.lines = text.count("\n") + 1
        if text not in task_of_text:
            task_of_text[text] = len(tasks)
            tasks.append((record.id, text, config.format))
        pending.append((record, task_of_text[text]))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_curate_one, tasks, chunksize=16))
    else:
        results = [_curate_one(task) for task in tasks]

    keepers: dict[int, Record] = {}  # per task, the first path with its text
    for record, slot in sorted(pending, key=lambda pair: pair[0].relative_path):
        result = results[slot]
        record.status = _STATUS_OF_VERDICT[result.verdict]
        if record.status is REJECTED:
            record.reason = "unrepairable syntax"
        elif keepers.setdefault(slot, record) is not record:
            record.status = DUPLICATE
            record.duplicate_of = keepers[slot].id
        else:
            record.metrics = result.metrics
            record.ast = result.ast

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
