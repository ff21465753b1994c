"""Closed-loop serving benchmark for the query-optimization stack.

Run it from the repository root: ``python3 perfbench/run.py --help``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""
