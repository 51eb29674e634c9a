"""KOKO benchmark: workloads, tracing and the command-line entry point.

Run ``python3 kokobench/run.py --help`` from the repository root; see
``kokobench/README.md`` for the workloads, metrics and stage timers.
"""
