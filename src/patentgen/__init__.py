"""Multi-agent patent drafting pipeline, dataset tooling and metrics."""

__version__ = "0.1.0"

from .core import (
    CANONICAL_QUESTIONS,
    DEFAULT_SECTION_ORDER,
    Draft,
    DraftQA,
    GuidelineNode,
    PatentDoc,
    PGTree,
    ReviewVerdict,
    RunRecord,
    make_draft,
    render_draft,
)
from .pipeline import PatentPipeline, PipelineConfig

__all__ = [
    "CANONICAL_QUESTIONS",
    "DEFAULT_SECTION_ORDER",
    "Draft",
    "DraftQA",
    "GuidelineNode",
    "PGTree",
    "PatentDoc",
    "PatentPipeline",
    "PipelineConfig",
    "ReviewVerdict",
    "RunRecord",
    "make_draft",
    "render_draft",
]
