"""Spark's Python workers start through ``repro.sparkdaemon``: they import
the installed pyspark, hold no archive importer (so a task's
``importlib.invalidate_caches()`` re-reads no zip or jar), and the path is
left as Spark made it when pyspark or py4j exists only in an archive."""
import sys
import zipfile
import zipimport

import pandas as pd

from repro.sparkdaemon import without_archives


def _worker_state(batches):
    import pyspark

    for _ in batches:
        pass
    archives = [
        k for k, v in sys.path_importer_cache.items() if isinstance(v, zipimport.zipimporter)
    ]
    yield pd.DataFrame({"pyspark": [pyspark.__file__], "archives": [len(archives)]})


def test_worker_holds_no_archive_importer(spark):
    rows = (
        spark.range(4, numPartitions=2)
        .mapInPandas(_worker_state, "pyspark string, archives long")
        .collect()
    )
    assert len(rows) == 2
    for r in rows:
        assert ".zip" not in r.pyspark and ".jar" not in r.pyspark
        assert r.archives == 0


def _packages(root, *names):
    for n in names:
        (root / n).mkdir(parents=True)
        (root / n / "__init__.py").write_text("")


def _zip(path, *names):
    with zipfile.ZipFile(path, "w") as z:
        for n in names:
            z.writestr(f"{n}/__init__.py", "")
    return str(path)


class TestWithoutArchives:
    def test_drops_archives_when_packages_are_installed(self, tmp_path):
        _packages(tmp_path / "site", "pyspark", "py4j")
        zipped = _zip(tmp_path / "pyspark.zip", "pyspark")
        path = [str(tmp_path / "site"), zipped, str(tmp_path / "spark-core.jar")]
        assert without_archives(path) == [str(tmp_path / "site")]

    def test_pyspark_only_in_a_zip_keeps_the_path(self, tmp_path):
        _packages(tmp_path / "site", "py4j")
        zipped = _zip(tmp_path / "pyspark.zip", "pyspark")
        path = [zipped, str(tmp_path / "site")]
        assert without_archives(path) == path

    def test_py4j_only_in_a_zip_keeps_the_path(self, tmp_path):
        _packages(tmp_path / "site", "pyspark")
        zipped = _zip(tmp_path / "py4j-src.zip", "py4j")
        path = [str(tmp_path / "site"), zipped]
        assert without_archives(path) == path
