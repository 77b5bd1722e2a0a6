"""Benchmark of hydroformer: see run.py and NOTES.md."""
