"""Multi-agent patent drafting pipeline, dataset tooling and metrics."""

__version__ = "0.1.0"
