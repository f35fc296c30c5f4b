"""The Python worker daemon keeps each zip archive's directory across tasks."""
import importlib
import sys
import zipimport

from repro import sparkdaemon


def _directories_kept(_):
    """In a worker: the zip importers, and whether a cache invalidation,
    which Spark makes before every task, replaced any directory they hold."""
    zips = [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]
    before = [id(z._files) for z in zips]
    importlib.invalidate_caches()
    kept = before == [id(z._files) for z in zips]
    yield zipimport.zipimporter.invalidate_caches.__name__, len(zips), kept


def test_workers_keep_zip_directories(spark):
    sc = spark.sparkContext
    assert sc.getConf().get("spark.python.daemon.module") == "repro.sparkdaemon"
    rows = sc.parallelize(range(4), 2).mapPartitions(_directories_kept).collect()
    assert len(rows) == 2
    for name, _, kept in rows:
        assert name == sparkdaemon.keep_directory.__name__
        assert kept
