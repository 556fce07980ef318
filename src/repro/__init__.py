"""repro — a reproduction of the Ordered Inverted File (OIF), EDBT 2011.

The package implements Terrovitis et al., "Efficient Answering of Set
Containment Queries for Skewed Item Distributions": the OIF index, the classic
inverted-file baseline, an unordered B-tree ablation, a signature-file
extension baseline, a simulated disk storage engine with page-access
accounting, dataset generators, query workloads and the full experiment suite.

Quick start::

    from repro import Dataset, Equality, OrderedInvertedFile, Subset, Superset

    data = Dataset.from_transactions([
        {"milk", "bread"},
        {"milk", "bread", "eggs"},
        {"eggs"},
    ])
    oif = OrderedInvertedFile(data)
    oif.evaluate(Subset({"milk", "bread"}))      # -> [1, 2]
    oif.evaluate(Equality({"eggs"}))             # -> [3]
    oif.evaluate(Superset({"milk", "bread"}))    # -> [1]

For serving workloads, :mod:`repro.service` keeps indexes resident and answers
queries concurrently with result caching (``repro-oif serve``).  See the
top-level ``README.md`` for installation, the CLI quickstart, the serving
workflow and how to reproduce the paper's figures.
"""

from repro.baselines import (
    InvertedFile,
    NaiveScanIndex,
    SignatureFile,
    UnorderedBTreeInvertedFile,
)
from repro.core import (
    And,
    Dataset,
    Equality,
    Expr,
    ItemOrder,
    Not,
    Or,
    OrderedInvertedFile,
    QueryResult,
    QueryType,
    Record,
    SetContainmentIndex,
    Subset,
    Superset,
    Vocabulary,
    expr_from_dict,
)
from repro.errors import ReproError, ServiceError
from repro.storage import Environment

#: Serving types re-exported lazily (PEP 562): ``from repro import
#: ServiceServer`` works, but batch/experiment users do not pay for the
#: HTTP-server and thread-pool imports on every ``import repro``.
_SERVICE_EXPORTS = frozenset(
    {
        "IndexManager",
        "ManagedIndex",
        "QueryExecutor",
        "QueryOutcome",
        "ResultCache",
        "ServiceClient",
        "ServiceServer",
    }
)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.1.0"

__all__ = [
    "Dataset",
    "Record",
    "Vocabulary",
    "ItemOrder",
    "OrderedInvertedFile",
    "InvertedFile",
    "UnorderedBTreeInvertedFile",
    "SignatureFile",
    "NaiveScanIndex",
    "SetContainmentIndex",
    "QueryType",
    "QueryResult",
    "And",
    "Or",
    "Not",
    "Subset",
    "Equality",
    "Superset",
    "Expr",
    "expr_from_dict",
    "Environment",
    "ReproError",
    "ServiceError",
    "IndexManager",
    "ManagedIndex",
    "QueryExecutor",
    "QueryOutcome",
    "ResultCache",
    "ServiceClient",
    "ServiceServer",
    "__version__",
]
