"""Tests for the exception hierarchy and how the library surfaces failures."""

from __future__ import annotations

import pytest

from repro import errors
from repro.core import Dataset, OrderedInvertedFile
from repro.core.query.expr import Subset
from repro.errors import (
    BTreeError,
    CompressionError,
    DatasetError,
    QueryError,
    ReproError,
    StorageError,
    WorkloadError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_class",
        [
            errors.StorageError,
            errors.PageError,
            errors.BufferPoolError,
            errors.BTreeError,
            errors.DuplicateKeyError,
            errors.KeyNotFoundError,
            errors.HashFileError,
            errors.CompressionError,
            errors.IndexBuildError,
            errors.IndexNotBuiltError,
            errors.QueryError,
            errors.DatasetError,
            errors.WorkloadError,
            errors.ExperimentError,
        ],
    )
    def test_every_error_is_a_repro_error(self, exception_class):
        assert issubclass(exception_class, ReproError)

    def test_storage_sub_hierarchy(self):
        assert issubclass(BTreeError, StorageError)
        assert issubclass(errors.DuplicateKeyError, BTreeError)
        assert issubclass(errors.PageError, StorageError)

    def test_catching_the_base_class_is_enough(self):
        with pytest.raises(ReproError):
            Dataset([])
        with pytest.raises(ReproError):
            raise CompressionError("bad stream")


class TestErrorsInPractice:
    def test_query_errors_carry_useful_messages(self, paper_oif):
        with pytest.raises(QueryError) as excinfo:
            paper_oif.evaluate(Subset(set()))
        assert "non-empty" in str(excinfo.value)

    def test_dataset_errors_name_the_problem(self):
        with pytest.raises(DatasetError) as excinfo:
            Dataset.from_transactions([set()])
        assert "empty" in str(excinfo.value)

    def test_workload_error_for_impossible_size(self, skewed_dataset):
        from repro.workloads import WorkloadGenerator

        generator = WorkloadGenerator(skewed_dataset)
        with pytest.raises(WorkloadError):
            generator.subset_query(10_000)

    def test_index_usage_before_build(self, paper_dataset):
        oif = OrderedInvertedFile(paper_dataset, build=False)
        with pytest.raises(errors.IndexNotBuiltError):
            oif.evaluate(Subset({"a"}))
