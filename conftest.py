import os
import sys

# spark.driver.memory is read at JVM launch, so an explicit heap goes into
# PYSPARK_SUBMIT_ARGS before any test module starts pyspark. Unset, the
# driver gets Spark's default heap, as under ``python -m repro.run``.
if mem := os.environ.get("SPARK_DRIVER_MEM"):
    os.environ.setdefault("PYSPARK_SUBMIT_ARGS", f"--driver-memory {mem} pyspark-shell")

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session:
    ``repro.run.Context.spark``'s, so tests run on the tables' session
    configuration, with the driver heap of ``SPARK_DRIVER_MEM`` if set."""
    from repro.run import Context

    s = Context().spark
    sc = s.sparkContext
    print(
        f"[conftest] driver heap={sc.getConf().get('spark.driver.memory', 'Spark default')} "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
