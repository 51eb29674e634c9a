"""The one SparkSession definition, shared by the jobs (``jobs/_common``),
the benchmark (through ``jobs/_common``) and the tests' ``spark`` fixture.

Settings read only at JVM launch (driver memory, driver host) come from
``PYSPARK_SUBMIT_ARGS`` and are the caller's; everything set here is
honoured by ``getOrCreate`` on a fresh JVM.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    """A local SparkSession named ``app``.

    Automatic broadcast joins are disabled so shuffle paths are exercised;
    a broadcast join comes only from an explicit ``F.broadcast`` hint on a
    side that is provably small (the KOKO index build, DPLI and the engine
    use them); the threshold itself is never raised. Python workers start
    through ``repro.sparkdaemon``, which keeps Spark's archives off their
    import path.
    """
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.python.daemon.module", "repro.sparkdaemon")
        .getOrCreate()
    )
