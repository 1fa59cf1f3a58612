"""Baselines: SysViz-style wire tracer and sampling monitors."""
