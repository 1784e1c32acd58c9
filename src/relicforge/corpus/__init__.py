"""Corpus management: manifests, curation pipeline, train/test splits."""

from relicforge.corpus.manifest import (
    MANIFEST_NAME,
    CorpusManifest,
    Record,
    Split,
    Status,
)
from relicforge.corpus.pipeline import (
    CorpusConfig,
    curate,
    ingest,
    load_ast,
    normalize_text,
    split,
)

__all__ = [
    "MANIFEST_NAME",
    "CorpusManifest",
    "Record",
    "Split",
    "Status",
    "CorpusConfig",
    "curate",
    "ingest",
    "load_ast",
    "normalize_text",
    "split",
]
