"""The intake against a reference intake kept here as it was: `ref_ingest`,
the pathlib `rglob` + `is_file` scan that read, hashed and line-counted
every file, and `ref_curate` with `ref_dedup`, which read every file
again and grouped the survivors a second time, by md5.

`ingest` now only lists the tree once with os.scandir, and `curate` reads
each file once and dedups in its own grouping by text. `curate(ingest())`
must write the manifest bytes `ref_curate(ref_ingest())` writes, on a
tree that holds what a scan can trip on: nested directories with
sidecars, pathlib's suffix corner cases, a directory named like a
source, symlinks to a file, to a directory and to nothing, a symlink
loop, a FIFO and a file that is not UTF-8.
"""

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from relicforge.cobol import SourceFormat
from relicforge.corpus import CorpusConfig, CorpusManifest, Record, Status, curate, ingest
from relicforge.corpus.manifest import DUPLICATE, REJECTED
from relicforge.corpus.pipeline import (
    _STATUS_OF_VERDICT,
    _curate_one,
    _md5,
    filter_trivial,
    read_normalized,
)

# --- the reference: the intake as it was -------------------------------------------


def _ref_normalize_text(raw):
    lines = raw.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines)


def ref_ingest(root, config=CorpusConfig()):
    root = Path(root)
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in config.extensions),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    records = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        record = Record(id=rel, relative_path=rel, md5="", lines=0)
        try:
            raw = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            record.status = Status.REJECTED
            record.reason = "not valid UTF-8"
            records.append(record)
            continue
        except OSError as exc:
            record.status = Status.REJECTED
            record.reason = f"unreadable: {exc.__class__.__name__}"
            records.append(record)
            continue
        text = _ref_normalize_text(raw)
        record.md5 = hashlib.md5(text.encode("utf-8")).hexdigest()
        record.lines = len(text.split("\n"))
        java = path.with_suffix(".java")
        labels = path.with_name(path.stem + ".labels.json")
        if java.is_file():
            record.oracle_java = java.relative_to(root).as_posix()
        if labels.is_file():
            record.oracle_labels = labels.relative_to(root).as_posix()
        records.append(record)
    return CorpusManifest(records)


def ref_dedup(manifest: CorpusManifest) -> CorpusManifest:
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


def ref_curate(
    manifest: CorpusManifest,
    root: Path | str,
    config: CorpusConfig = CorpusConfig(),
    jobs: int = 1,
) -> CorpusManifest:
    """Assign every record a terminal status and attach metrics.

    Each file is read again, and a record that reads takes its md5 and
    line count from that text, so dedup and `load_ast` see the text curate
    judged. Returns the manifest; read summary counts via manifest.counts().
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
        record.md5 = _md5(text)
        record.lines = text.count("\n") + 1
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

    ref_dedup(manifest)
    filter_trivial(manifest, config.min_statements)
    return manifest


def manifest_bytes(manifest: CorpusManifest, path: Path) -> bytes:
    manifest.write_jsonl(path)
    return path.read_bytes()


def assert_reference_intake(root, out: Path, config=CorpusConfig(), jobs=1) -> CorpusManifest:
    """`curate(ingest(root))` writes the bytes of `ref_curate(ref_ingest(root))`;
    returns the curated manifest."""
    want = manifest_bytes(ref_curate(ref_ingest(root, config), root, config), out / "ref.jsonl")
    got = curate(ingest(root, config), root, config, jobs)
    assert manifest_bytes(got, out / "got.jsonl") == want
    return got


# --- the tree -------------------------------------------------------------------------

SOURCE = "DISPLAY 'A'.  \r\nSTOP RUN.\r\n"


def _write(root: Path, rel: str, data=SOURCE):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)


def _symlink(root: Path, rel: str, target: str):
    try:
        (root / rel).symlink_to(target)
    except (OSError, NotImplementedError):
        pytest.skip("symlinks not supported here")


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "corpus"
    for rel in ("top.cbl", "top.java", "a/mid.cob", "a/mid.labels.json",
                "a/b/c/deep.cbl", "a/b/c/deep.java", "a/b/c/deep.labels.json",
                "a/b/other.txt", "UP.CBL", "UP.java", "Mixed.Cob", "a.b.cbl", "a.b.java",
                "a.b.labels.json", "..cbl", "..java", "..labels.json", ".cbl", "a.",
                "noext", ".hidden/h.cbl", "x.cbl/inner.cob", "sd.cbl", "sl.cbl",
                "sb.cbl", "lonely.java"):
        _write(root, rel)
    _write(root, "empty.cbl", "")
    _write(root, "bad.cbl", b"DISPLAY 'A'.\n\xff\xfe\n")
    _write(root, "a/bad.labels.json", b"\xff")
    (root / "sd.java").mkdir()  # a directory where a sidecar would be
    _symlink(root, "link.cbl", "top.cbl")
    _symlink(root, "sl.java", "top.java")
    _symlink(root, "sb.labels.json", "missing.labels.json")
    _symlink(root, "linkdir", "a")
    _symlink(root, "broken.cbl", "missing.cbl")
    _symlink(root, "loop.cbl", "loop.cbl")
    if hasattr(os, "mkfifo"):
        os.mkfifo(root / "pipe.cbl")
    return root


def test_same_records_as_the_rglob_scan(tree, tmp_path):
    got = ingest(tree)
    assert all((r.md5, r.lines, r.status) == ("", 0, None) for r in got.records)
    by_id = got.by_id()
    assert sorted(by_id) == sorted([
        "..cbl", "Mixed.Cob", "UP.CBL", "a.b.cbl", "a/b/c/deep.cbl", "a/b/other.txt",
        "a/mid.cob", "bad.cbl", "empty.cbl", "link.cbl", "top.cbl", "x.cbl/inner.cob",
        ".hidden/h.cbl", "sb.cbl", "sd.cbl", "sl.cbl",
    ])
    assert [r.id for r in got.records] == sorted(by_id)
    assert (by_id["a/b/c/deep.cbl"].oracle_java, by_id["a/b/c/deep.cbl"].oracle_labels) == (
        "a/b/c/deep.java", "a/b/c/deep.labels.json")
    assert (by_id["..cbl"].oracle_java, by_id["..cbl"].oracle_labels) == (
        "..java", "..labels.json")
    assert by_id["UP.CBL"].oracle_java == "UP.java"
    assert by_id["sl.cbl"].oracle_java == "sl.java"
    assert by_id["sd.cbl"].oracle_java is None
    assert by_id["sb.cbl"].oracle_labels is None
    for jobs in (1, 2):
        curated = assert_reference_intake(tree, tmp_path, jobs=jobs).by_id()
        assert (curated["bad.cbl"].status, curated["bad.cbl"].reason) == (
            Status.REJECTED, "not valid UTF-8")
        assert curated["empty.cbl"].lines == 1
        assert curated["top.cbl"].lines == 3


@pytest.mark.parametrize("extensions", [(".java",), (".json",), ("",), (".cbl", ".")])
def test_other_extensions(tree, tmp_path, extensions):
    config = CorpusConfig(extensions=extensions)
    assert assert_reference_intake(tree, tmp_path, config).records


def test_string_root_and_missing_root(tree, tmp_path):
    assert_reference_intake(str(tree), tmp_path)
    assert ingest(tmp_path / "missing").records == ref_ingest(tmp_path / "missing").records == []
    assert ingest(tree / "top.cbl").records == ref_ingest(tree / "top.cbl").records == []
