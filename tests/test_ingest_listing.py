"""`ingest` lists the tree once with os.scandir, against `ref_ingest`,
the pathlib `rglob` + `is_file` scan it replaced, kept here as it was.

Both must give equal records on a tree that holds what a scan can trip
on: nested directories with sidecars, pathlib's suffix corner cases, a
directory named like a source, symlinks to a file, to a directory and to
nothing, a symlink loop, a FIFO and a file that is not UTF-8.
"""

import hashlib
import os
from pathlib import Path

import pytest

from relicforge.corpus import CorpusConfig, CorpusManifest, Record, Status, ingest

# --- the reference: ingest as it was -----------------------------------------------


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


def test_same_records_as_the_rglob_scan(tree):
    got = ingest(tree)
    assert got.records == ref_ingest(tree).records
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
    assert by_id["bad.cbl"].status is Status.REJECTED
    assert by_id["empty.cbl"].lines == 1
    assert by_id["top.cbl"].lines == 3


@pytest.mark.parametrize("extensions", [(".java",), (".json",), ("",), (".cbl", ".")])
def test_other_extensions(tree, extensions):
    config = CorpusConfig(extensions=extensions)
    got = ingest(tree, config)
    assert got.records == ref_ingest(tree, config).records
    assert got.records


def test_string_root_and_missing_root(tree, tmp_path):
    assert ingest(str(tree)).records == ref_ingest(tree).records
    assert ingest(tmp_path / "missing").records == ref_ingest(tmp_path / "missing").records == []
    assert ingest(tree / "top.cbl").records == ref_ingest(tree / "top.cbl").records == []
