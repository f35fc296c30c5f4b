"""Spark's Python worker daemon, minus the per-task re-read of zip archives.

Before every task, ``pyspark.worker_util.setup_spark_files`` calls
``importlib.invalidate_caches()``. Workers that import pyspark from
``pyspark.zip`` then re-read the directory of every cached zip archive
(about 1,700 entries in ``pyspark.zip``): 100-200 ms of CPU per task. No
archive changes during a run, so this daemon makes that re-read a no-op
and then runs the stock one; the workers it forks inherit the patch.
Select it with ``spark.python.daemon.module=repro.sparkdaemon``.
"""
import zipimport

import pyspark.daemon


def keep_directory(self) -> None:
    """``zipimporter.invalidate_caches`` that keeps the directory read at import."""


if __name__ == "__main__":
    zipimport.zipimporter.invalidate_caches = keep_directory
    pyspark.daemon.manager()
