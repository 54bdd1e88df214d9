"""Experiment drivers that regenerate the paper's figures and tables."""
