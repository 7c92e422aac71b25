"""Benchmark of the Auto-Formula stack: see README.md in this directory."""
