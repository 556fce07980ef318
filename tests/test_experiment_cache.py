"""Tests for the process-wide experiment cache and persistence on a file backend."""

from __future__ import annotations

import pytest

from repro.core import OrderedInvertedFile
from repro.core.query.expr import Subset
from repro.datasets.msnbc import MsnbcConfig
from repro.datasets.msweb import MswebConfig
from repro.datasets.synthetic import SyntheticConfig
from repro.experiments import cache
from repro.storage import Environment


@pytest.fixture(autouse=True)
def clean_cache():
    cache.clear()
    yield
    cache.clear()


class TestExperimentCache:
    def test_same_config_returns_same_dataset_object(self):
        config = SyntheticConfig(num_records=200, domain_size=40, seed=1)
        assert cache.synthetic_dataset(config) is cache.synthetic_dataset(config)

    def test_different_configs_return_different_datasets(self):
        first = cache.synthetic_dataset(SyntheticConfig(num_records=200, domain_size=40, seed=1))
        second = cache.synthetic_dataset(SyntheticConfig(num_records=200, domain_size=40, seed=2))
        assert first is not second

    def test_real_dataset_caches(self):
        msweb_config = MswebConfig(num_sessions=200, seed=3)
        msnbc_config = MsnbcConfig(num_sessions=200, seed=3)
        assert cache.msweb_dataset(msweb_config) is cache.msweb_dataset(msweb_config)
        assert cache.msnbc_dataset(msnbc_config) is cache.msnbc_dataset(msnbc_config)

    def test_cached_index_builds_once(self):
        config = SyntheticConfig(num_records=150, domain_size=30, seed=4)
        dataset = cache.synthetic_dataset(config)
        calls = []

        def build():
            calls.append(1)
            return OrderedInvertedFile(dataset)

        first = cache.cached_index(config, "OIF", build)
        second = cache.cached_index(config, "OIF", build)
        assert first is second
        assert len(calls) == 1

    def test_clear_resets_everything(self):
        config = SyntheticConfig(num_records=150, domain_size=30, seed=5)
        dataset = cache.synthetic_dataset(config)
        cache.cached_index(config, "OIF", lambda: OrderedInvertedFile(dataset))
        cache.clear()
        assert cache.synthetic_dataset(config) is not dataset


class TestFileBackedIndex:
    def test_oif_on_a_file_backed_environment(self, tmp_path, paper_dataset):
        env = Environment(path=str(tmp_path / "oif.pages"), page_size=1024, cache_bytes=8192)
        oif = OrderedInvertedFile(paper_dataset, env=env)
        assert oif.evaluate(Subset({"a", "d"})) == [101, 104, 114]
        env.close()
        assert (tmp_path / "oif.pages").stat().st_size == env.page_file.num_pages * 1024
