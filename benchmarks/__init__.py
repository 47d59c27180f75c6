"""Benchmarks: the paper harness (paper/) and the pipeline benchmark (pipeline/)."""
