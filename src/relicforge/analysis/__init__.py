"""Control-flow graphs, static metrics, and model step features."""

from relicforge.analysis.cfg import (
    CfgNodeKind,
    EdgeKind,
    build_cfg,
    cyclomatic,
    validate,
)
from relicforge.analysis.metrics import (
    FEATURE_NAMES,
    MetricsRecord,
    coupling,
    decision_complexity,
    file_features,
    measure,
)
from relicforge.analysis.steps import (
    EDGE_ORDER,
    STEP_FEATURE_COUNT,
    step_features,
)

__all__ = [
    "CfgNodeKind",
    "EDGE_ORDER",
    "EdgeKind",
    "FEATURE_NAMES",
    "MetricsRecord",
    "STEP_FEATURE_COUNT",
    "build_cfg",
    "coupling",
    "cyclomatic",
    "decision_complexity",
    "file_features",
    "measure",
    "step_features",
    "validate",
]
