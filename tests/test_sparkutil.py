"""The Spark task wrapper: zip finders are dropped, nothing else changes."""
import importlib
import sys
import uuid
import zipfile
import zipimport

import pytest
from pyspark import RDD

from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.sparkutil import spark_task
from repro.vectors.generate import base_spark
from tests.conftest import TEST_K, TEST_NPROBE


def _zip_finders():
    return [p for p, f in sys.path_importer_cache.items()
            if isinstance(f, zipimport.zipimporter)]


@pytest.fixture
def zip_modules(tmp_path):
    """``(archive, (first, second))``: a zip holding two modules, put on
    ``sys.path``, with ``first`` imported so a ``zipimporter`` is cached.
    ``sys.path``, ``sys.path_importer_cache`` and ``sys.modules`` are put
    back afterwards."""
    names = tuple(f"zipmod_{uuid.uuid4().hex}_{i}" for i in range(2))
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for name in names:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")
    path, cache = list(sys.path), dict(sys.path_importer_cache)
    sys.path.insert(0, str(archive))
    try:
        importlib.import_module(names[0])
        yield str(archive), names
    finally:
        sys.path[:] = path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(cache)
        for name in names:
            sys.modules.pop(name, None)


def test_spark_task_drops_only_zip_finders(zip_modules):
    archive, (first, second) = zip_modules
    assert _zip_finders() == [archive]
    others = {p: f for p, f in sys.path_importer_cache.items()
              if f is not None and p != archive}
    assert others
    calls = []

    def fn(it):
        calls.append(it)
        return "out"

    it = iter(range(3))
    assert spark_task(fn)(it) == "out"
    assert calls == [it]
    assert _zip_finders() == []
    assert all(sys.path_importer_cache.get(p) is f for p, f in others.items())
    assert first in sys.modules
    mod = importlib.import_module(second)
    assert mod.NAME == second
    assert isinstance(mod.__loader__, zipimport.zipimporter)
    assert mod.__loader__.archive == archive


def test_invalidate_caches_rereads_no_dropped_archive(zip_modules,
                                                      monkeypatch):
    # importlib.invalidate_caches() is what a PySpark worker runs before
    # every task; a cached zipimporter re-reads its whole archive there.
    reads = []
    read = zipimport._read_directory

    def counting(archive):
        reads.append(archive)
        return read(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    importlib.invalidate_caches()
    assert len(reads) >= 1
    reads.clear()
    spark_task(list)(iter(()))
    importlib.invalidate_caches()
    assert reads == []


def test_every_spark_function_is_wrapped(spark, ds, monkeypatch):
    # A build plus a search hands every repro worker function to Spark;
    # each must arrive wrapped by spark_task.
    seen = []
    task_code = spark_task(list).__code__

    def spy(cls, name):
        raw = getattr(cls, name)

        def call(self, f, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("repro."):
                seen.append((name, f))
            return raw(self, f, *args, **kwargs)

        monkeypatch.setattr(cls, name, call)

    for cls, name in ((RDD, "map"), (RDD, "mapPartitions"),
                      (type(spark.range(1)), "mapInPandas")):
        spy(cls, name)
    s = HarmonySearcher.build(
        spark, base_spark(spark, ds["spec"], 0.0008),
        HarmonyConfig(n_nodes=4, mode="dimension", nlist=8,
                      prewarm_per_cluster=8, k_hint=TEST_K),
        profile_queries=ds["q"],
    )
    try:
        s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    finally:
        s.di.unpersist()
    assert {(name, f.__name__) for name, f in seen} == {
        ("mapInPandas", "gen"), ("mapInPandas", "assign"),
        ("mapInPandas", "cell_parts"), ("mapPartitions", "build_cells"),
        ("mapPartitions", "cell_heads"), ("mapPartitions", "scan"),
    }
    assert all(f.__code__ is task_code for _, f in seen)
