"""Benchmark of the repro program: workloads, layer tracing, metrics."""
