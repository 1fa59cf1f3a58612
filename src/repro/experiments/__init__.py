"""Experiment scenarios and figure harnesses."""
