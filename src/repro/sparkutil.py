"""SparkSession helper for ``python -m repro.experiments`` (outside pytest).

Mirrors conftest.py's session settings so the experiments and the tests
see identical Spark behaviour (shuffle partitions, Arrow, no
auto-broadcast). The driver gets 4g, not Spark's 1g default, because a
run keeps every requested dataset's indexes cached.
"""
from __future__ import annotations

import os

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
