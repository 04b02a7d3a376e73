"""Benchmark for voicesep: workloads, span tracer and per-layer probes.

Entry point: `python3 bench/run.py --workload NAME --seed N --seconds S
--trace 0|1`, run from the root of a source checkout.
"""
