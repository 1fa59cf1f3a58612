"""Shared foundations: time base, IDs, RNG streams, records, errors."""
