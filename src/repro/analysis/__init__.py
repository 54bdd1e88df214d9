"""Analysis: the paper's metrics and report formatting."""
