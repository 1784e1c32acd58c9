"""Corpus manifest records and JSON-Lines persistence.

Every record keeps the full key set in a fixed order (absent values are
null) so manifest files are byte-stable across runs and worker counts.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from relicforge.analysis.metrics import MetricsRecord
from relicforge.cobol.nodes import CobolAst
from relicforge.errors import FormatError


class Status(enum.Enum):
    KEPT = "Kept"
    REPAIRED = "Repaired"
    DUPLICATE = "Duplicate"
    TRIVIAL = "Trivial"
    REJECTED = "Rejected"


# Module constants for function bodies: on Python 3.10 and 3.11 a
# `Status.KEPT` read goes through EnumType's `__getattr__` hook (about
# 140-230 ns against 15-50 ns for a global), and curate reads them per record.
KEPT = Status.KEPT
REPAIRED = Status.REPAIRED
DUPLICATE = Status.DUPLICATE
TRIVIAL = Status.TRIVIAL
REJECTED = Status.REJECTED


class Split(enum.Enum):
    TRAIN = "Train"
    TEST = "Test"


# Module constants for function bodies, as for Status above.
TRAIN = Split.TRAIN
TEST = Split.TEST


@dataclass
class Record:
    id: str
    relative_path: str
    md5: str
    lines: int
    status: Status | None = None
    duplicate_of: str | None = None
    reason: str | None = None
    metrics: MetricsRecord | None = None
    split: Split | None = None
    fold: int | None = None
    oracle_java: str | None = None
    oracle_labels: str | None = None
    # Curate's tree of a text's clean parse, on the record that keeps the
    # text. Never serialized, so a manifest read back from JSONL holds none;
    # `load_ast` hands it out, and everything downstream only reads it.
    ast: CobolAst | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "relative_path": self.relative_path,
            "md5": self.md5,
            "lines": self.lines,
            "status": self.status.value if self.status else None,
            "duplicate_of": self.duplicate_of,
            "reason": self.reason,
            "metrics": self.metrics.to_json() if self.metrics else None,
            "split": self.split.value if self.split else None,
            "fold": self.fold,
            "oracle_java": self.oracle_java,
            "oracle_labels": self.oracle_labels,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Record":
        """Raises TypeError for a `fold` that is neither null nor an int
        (a bool is not)."""
        record = cls(
            id=data["id"],
            relative_path=data["relative_path"],
            md5=data["md5"],
            lines=data["lines"],
            status=Status(data["status"]) if data.get("status") else None,
            duplicate_of=data.get("duplicate_of"),
            reason=data.get("reason"),
            metrics=MetricsRecord.from_json(data["metrics"]) if data.get("metrics") else None,
            split=Split(data["split"]) if data.get("split") else None,
            fold=data.get("fold"),
            oracle_java=data.get("oracle_java"),
            oracle_labels=data.get("oracle_labels"),
        )
        if record.fold is not None and type(record.fold) is not int:
            raise TypeError(f"fold is a {type(record.fold).__name__}, not an int")
        return record


@dataclass
class CorpusManifest:
    records: list[Record] = field(default_factory=list)

    def by_id(self) -> dict[str, Record]:
        return {r.id: r for r in self.records}

    def eligible(self) -> list[Record]:
        """Records that survived curation and may be split/trained on."""
        return [r for r in self.records if r.status in (KEPT, REPAIRED)]

    def counts(self) -> dict[str, int]:
        tally = {"clean": 0, "repaired": 0, "rejected": 0, "duplicate": 0, "trivial": 0}
        names = {
            KEPT: "clean",
            REPAIRED: "repaired",
            REJECTED: "rejected",
            DUPLICATE: "duplicate",
            TRIVIAL: "trivial",
        }
        for r in self.records:
            if r.status is not None:
                tally[names[r.status]] += 1
        return tally

    def write_jsonl(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_json(), separators=(",", ":")) + "\n")

    @classmethod
    def read_jsonl(cls, path: Path | str) -> "CorpusManifest":
        """Raises FormatError naming the file and the 1-based line of the
        first record that is not valid JSON, lacks a key, holds an unknown
        status or split, or holds a fold that is not an int."""
        records = []
        # Bytes, decoded a line at a time, so a bad byte names its own line.
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if line:
                        records.append(Record.from_json(json.loads(line)))
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise FormatError(
                        f"{path}: line {line_no}: unreadable manifest record "
                        f"({exc.__class__.__name__}: {exc})"
                    ) from exc
        return cls(records)

MANIFEST_NAME = "corpus.manifest.jsonl"
