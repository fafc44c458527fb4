"""Spark helpers: the driver's session and the workers' task wrapper.

:func:`get_session` is the session for ``python -m repro.experiments``
(outside pytest). It mirrors conftest.py's session settings so the
experiments and the tests see identical Spark behaviour (shuffle
partitions, Arrow, no auto-broadcast). The driver gets 4g, not Spark's 1g
default, because a run keeps every requested dataset's indexes cached.

:func:`spark_task` wraps every Python function ``repro`` hands to Spark
(``mapPartitions``, ``mapInPandas``). It cuts the start-up cost a reused
Python worker pays before each task.
"""
from __future__ import annotations

import functools
import os
import sys
import zipimport

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    """Create (or reuse) the local session with the repro settings."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", "4g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def spark_task(fn):
    """``fn(it)``, run after dropping the worker's cached zip finders.

    Before every task a PySpark worker calls
    ``importlib.invalidate_caches()``. On CPython 3.11 each cached
    ``zipimporter`` then re-reads its archive's whole central directory
    (pyspark.zip: 3.5 MB, 1,328 entries): 0.08-0.2 s of CPU a task on
    a 4-core machine, for the 16 finders a worker holds. Deleting
    those finders from ``sys.path_importer_cache`` leaves the next task
    none to re-read. Imported modules stay in ``sys.modules``, and Python
    rebuilds a finder on demand from ``zipimport._zip_directory_cache``,
    not from the archive. No result changes.
    """

    @functools.wraps(fn)
    def task(it):
        cache = sys.path_importer_cache
        for path in [p for p, f in cache.items()
                     if isinstance(f, zipimport.zipimporter)]:
            del cache[path]
        return fn(it)

    return task
