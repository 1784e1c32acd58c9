"""Curate and evaluation measure every program without a control-flow graph.

`measure` counts the graph's edges, loop-back edges, Branch nodes and
V(G) in its one walk of the tree; `build_cfg` is left as the reference
the tests hold those counts to. Here it raises, and a corpus of GO TO
programs still goes through ingest, curate, split and the rules
evaluation.
"""

import random

import pytest

from relicforge.analysis import cfg, metrics
from relicforge.cobol import nodes as n
from relicforge.cobol.printer import pretty_print
from relicforge.corpus import curate, ingest, split
from relicforge.datagen import random_program
from relicforge.evaluate import run_evaluation


def _no_graph(ast):
    raise AssertionError("build_cfg called")


@pytest.fixture
def no_graph(monkeypatch):
    monkeypatch.setattr(cfg, "build_cfg", _no_graph)
    monkeypatch.setattr(metrics, "build_cfg", _no_graph)


def test_curate_split_and_evaluate_build_no_graph(tmp_path, no_graph):
    gotos = 0
    for seed in range(12):
        ast = random_program(random.Random(seed), allow_goto=True, program_id=f"G{seed}")
        gotos += any(v.kind is n.NodeKind.GOTO for v in n.iter_preorder(ast.program))
        (tmp_path / f"g{seed:02d}.cbl").write_text(pretty_print(ast))
    assert gotos > 0
    manifest = curate(ingest(tmp_path), tmp_path)
    assert len(manifest.eligible()) == 12
    assert all(r.metrics is not None for r in manifest.eligible())
    split(manifest, seed=1)
    summary, rows, _ = run_evaluation(manifest, "rules", root=tmp_path)
    assert len(rows) > 0
