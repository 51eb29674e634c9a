"""Spark's Python daemon, started without Spark's archives on the path.

Spark puts ``pyspark.zip``, the py4j zip and the spark-core jar at the
head of its Python workers' path, and every task's ``setup_spark_files``
calls ``importlib.invalidate_caches()``, which on Python 3.11 re-reads the
central directory of every archive importer (116–223 ms a task, measured
inside ``mapInPandas``). Named by ``spark.python.daemon.module``, this
module takes the archives off ``sys.path`` and out of
``sys.path_importer_cache`` (module lookup has already made importers for
them), so workers import the installed pyspark and py4j, then runs
``pyspark.daemon.manager()``. If either package cannot be found without the
archives, the path stays as Spark made it.

Nothing is imported from pyspark at module level: that would load it from
the archive before the path is changed.
"""
from __future__ import annotations

import sys
from importlib.machinery import PathFinder


def without_archives(path: list[str]) -> list[str]:
    """``path`` less its ``.zip`` and ``.jar`` entries, or ``path`` itself
    when pyspark or py4j is found only in those archives."""
    kept = [p for p in path if not p.endswith((".zip", ".jar"))]
    if all(PathFinder.find_spec(m, kept) for m in ("pyspark", "py4j")):
        return kept
    return path


if __name__ == "__main__":
    kept = without_archives(sys.path)
    for p in set(sys.path) - set(kept):
        sys.path_importer_cache.pop(p, None)
    sys.path[:] = kept
    from pyspark import daemon

    daemon.manager()
