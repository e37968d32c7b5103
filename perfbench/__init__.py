"""The repository benchmark: seeded workloads, an oracle, and a traced run (see run.py)."""
