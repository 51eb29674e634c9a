"""Shared SparkSession bootstrap for spark-submit entrypoints.

Jobs run standalone (``python jobs/<name>.py`` or ``spark-submit
jobs/<name>.py``); they, the benchmark and the tests' ``spark`` fixture
all build their session with ``repro.session.session``.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.session import session as _session


def session(app: str) -> SparkSession:
    s = _session(app)
    s.sparkContext.setLogLevel("ERROR")
    return s
