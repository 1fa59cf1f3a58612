"""Discrete-event simulation kernel: engine, processes, resources, tracking."""
