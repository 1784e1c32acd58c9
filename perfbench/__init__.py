"""Benchmark for the relicforge pipeline: seeded workloads, timed stages,
correctness gates, and a traced run for per-layer numbers."""
