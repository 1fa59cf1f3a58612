"""The n-tier testbed substrate: nodes, tiers, clients, faults, wiring."""
