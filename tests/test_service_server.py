"""End-to-end tests: JSON-over-HTTP server + client over a real socket.

The server binds 127.0.0.1 on an ephemeral port (no external network), the
client is the real :class:`repro.service.client.ServiceClient`, so these
exercise the full wire path: routing, JSON codecs, error mapping, the
concurrent executor behind ``/batch`` and cache accounting in ``/stats``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service import ServiceClient, ServiceServer

TRANSACTIONS = [
    {"a", "b", "d", "g"},
    {"a", "b", "e"},
    {"a", "b", "e", "f"},
    {"a", "b", "d"},
    {"a", "b", "c", "f"},
    {"a", "c"},
    {"d", "h"},
    {"a", "b", "f"},
    {"b", "c"},
    {"b", "g", "j"},
]


@pytest.fixture(scope="module")
def server():
    with ServiceServer(max_workers=4, cache_capacity=128) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    test_client = ServiceClient(port=server.port)
    test_client.create_index("web", transactions=TRANSACTIONS)
    return test_client


def test_healthz_round_trip(server, client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert "web" in payload["indexes"]
    assert payload["uptime_seconds"] >= 0


def test_create_describes_the_index(client):
    (description,) = [d for d in client.indexes() if d["name"] == "web"]
    assert description["kind"] == "oif"
    assert description["records"] == len(TRANSACTIONS)
    assert description["size_bytes"] > 0


def test_single_queries_for_all_three_predicates(client):
    subset = client.query("web", "subset", ["a", "b"])
    assert subset["record_ids"] == [1, 2, 3, 4, 5, 8]
    equality = client.query("web", "equality", ["a", "c"])
    assert equality["record_ids"] == [6]
    superset = client.query("web", "superset", ["a", "b", "e", "f"])
    assert superset["record_ids"] == [2, 3, 8]
    assert subset["cached"] is False


def test_batch_of_100_queries(client):
    queries = []
    for n in range(100):
        queries.append({"type": "subset", "items": [["a"], ["b"], ["a", "b"], ["d"]][n % 4]})
    results = client.batch(queries, index="web")
    assert len(results) == 100
    for query, result in zip(queries, results):
        assert sorted(result["items"]) == sorted(query["items"])
    by_items = {tuple(sorted(r["items"])): r["record_ids"] for r in results}
    assert by_items[("a", "b")] == [1, 2, 3, 4, 5, 8]
    assert by_items[("d",)] == [1, 4, 7]


def test_stats_show_cache_hits_on_a_repeated_hot_query(client):
    for _ in range(5):
        client.query("web", "subset", ["a", "b"])
    stats = client.stats()
    assert stats["cache"]["hits"] > 0
    assert stats["serving"]["cache_hits"] > 0
    assert stats["serving"]["queries"] >= 5
    assert stats["serving"]["latency"]["count"] == stats["serving"]["queries"]
    index_names = [d["name"] for d in stats["indexes"]]
    assert "web" in index_names


def test_update_over_http_invalidates_and_is_queryable(client):
    response = client.insert("web", [{"a", "b", "zz"}], flush=True)
    assert response["inserted"] == 1
    (new_id,) = response["record_ids"]
    assert response["flush"]["records_merged"] == 1
    result = client.query("web", "subset", ["zz"])
    assert result["record_ids"] == [new_id]
    hot = client.query("web", "subset", ["a", "b"])
    assert new_id in hot["record_ids"]


def test_rebuild_endpoint_preserves_answers(client):
    before = client.query("web", "subset", ["a", "b"])["record_ids"]
    description = client.rebuild_index("web")
    assert description["pending_updates"] == 0
    assert client.query("web", "subset", ["a", "b"])["record_ids"] == before


def test_create_and_drop_second_index(client):
    client.create_index("tiny", transactions=[{"x"}, {"x", "y"}], kind="if")
    assert client.query("tiny", "subset", ["x"])["record_ids"] == [1, 2]
    client.drop_index("tiny")
    assert all(d["name"] != "tiny" for d in client.indexes())


def test_unknown_index_maps_to_404(client):
    with pytest.raises(ServiceError, match="no index named"):
        client.query("ghost", "subset", ["a"])


def test_bad_requests_map_to_400(server, client):
    with pytest.raises(ServiceError, match="non-empty list of query items"):
        client.query("web", "subset", [])
    with pytest.raises(ServiceError, match="unknown query type"):
        client.query("web", "between", ["a"])
    with pytest.raises(ServiceError, match="exactly one of"):
        client.create_index("broken")
    # Malformed JSON straight over the socket.
    request = urllib.request.Request(
        f"{server.url}/query", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "malformed JSON" in json.loads(excinfo.value.read())["error"]


def test_invalid_index_options_map_to_400(client):
    with pytest.raises(ServiceError, match="invalid index options"):
        client._request(
            "POST",
            "/indexes",
            {"name": "opts", "transactions": [["a"]], "options": {"bogus": 1}},
        )
    # The failed create must not leak its name reservation.
    client.create_index("opts", transactions=[{"a"}])
    client.drop_index("opts")


@pytest.mark.parametrize("option", ["shard_backend", "shard_workers"])
def test_per_create_shard_backend_options_map_to_400(client, option):
    # The backend is one server-wide setting, not a per-index option.
    with pytest.raises(ServiceError, match="invalid index options"):
        client._request(
            "POST",
            "/indexes",
            {
                "name": "opts",
                "transactions": [["a"], ["b"]],
                "shards": 2,
                "options": {option: "processes" if option == "shard_backend" else 2},
            },
        )


def test_malformed_content_length_maps_to_400(server):
    import http.client

    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert "Content-Length" in json.loads(response.read())["error"]
    finally:
        connection.close()


def test_unknown_paths_are_404(server):
    request = urllib.request.Request(f"{server.url}/nope")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 404


def test_duplicate_index_name_is_rejected(client):
    with pytest.raises(ServiceError, match="already exists"):
        client.create_index("web", transactions=[{"a"}])


def test_index_names_with_spaces_round_trip_and_slashes_are_rejected(client):
    client.create_index("my index", transactions=[{"x"}])
    assert client.query("my index", "subset", ["x"])["record_ids"] == [1]
    client.rebuild_index("my index")
    client.drop_index("my index")
    assert all(d["name"] != "my index" for d in client.indexes())
    with pytest.raises(ServiceError, match="must not contain"):
        client.create_index("a/b", transactions=[{"x"}])


def test_server_adopts_cache_of_a_supplied_executor():
    """A caller-provided executor is authoritative: its cache is the cache."""
    from repro.core import Dataset
    from repro.service import IndexManager, QueryExecutor, ResultCache

    cache = ResultCache(capacity=8)
    manager = IndexManager(result_cache=cache)
    manager.create("pre", Dataset.from_transactions([{"a"}, {"a", "b"}]))
    executor = QueryExecutor(manager, cache=cache, max_workers=2)
    with ServiceServer(executor=executor) as running:
        assert running.cache is cache
        assert running.manager is manager
        test_client = ServiceClient(port=running.port)
        test_client.query("pre", "subset", ["a"])
        assert test_client.query("pre", "subset", ["a"])["cached"] is True
        test_client.insert("pre", [{"a", "c"}])
        assert test_client.query("pre", "subset", ["a"])["cached"] is False
    with pytest.raises(ServiceError, match="not the one the executor is bound to"):
        ServiceServer(executor=QueryExecutor(manager, cache=cache), manager=IndexManager())


def test_create_index_rejects_non_list_transactions(client):
    for bad in ("abc", {"a": 1}, [], ["not-a-list"]):
        with pytest.raises(ServiceError, match="non-empty list of item lists"):
            client._request(
                "POST", "/indexes", {"name": "bad", "transactions": bad}
            )


def test_update_rejects_non_list_transaction_elements(client):
    for bad in (["ab"], [5], "ab", []):
        with pytest.raises(ServiceError, match="non-empty list of item lists"):
            client._request("POST", "/update", {"index": "web", "transactions": bad})


def test_batch_rejects_non_object_queries(client):
    with pytest.raises(ServiceError, match="must be an object"):
        client._request("POST", "/batch", {"index": "web", "queries": ["subset"]})


def test_server_adopts_cache_of_a_prebuilt_manager():
    """Indexes created before the server exists still get invalidation."""
    from repro.core import Dataset
    from repro.service import IndexManager

    manager = IndexManager()
    manager.create("pre", Dataset.from_transactions([{"a"}, {"a", "b"}]))
    with ServiceServer(manager=manager) as running:
        test_client = ServiceClient(port=running.port)
        assert running.manager.result_cache is running.cache
        first = test_client.query("pre", "subset", ["a"])
        assert test_client.query("pre", "subset", ["a"])["cached"] is True
        test_client.insert("pre", [{"a", "c"}])
        after = test_client.query("pre", "subset", ["a"])
        assert after["cached"] is False
        assert len(after["record_ids"]) == len(first["record_ids"]) + 1


EXPR_TRANSACTIONS = [
    {"a", "b", "c"},
    {"a", "b"},
    {"b", "c", "d"},
    {"a"},
    {"a", "c", "d", "e"},
    {"d", "e"},
]


@pytest.fixture(scope="module")
def expr_client(client):
    client.create_index("exprs", transactions=EXPR_TRANSACTIONS)
    return client


def expr_brute_force(expr) -> list[int]:
    return [
        record_id
        for record_id, items in enumerate(EXPR_TRANSACTIONS, start=1)
        if expr.matches(frozenset(items))
    ]


def test_expression_round_trip_over_the_wire(expr_client):
    from repro.core.query import And, Not, Subset, Superset

    expr = And((Subset({"a"}), Not(Superset({"a", "b"}))))
    result = expr_client.query_expr("exprs", expr)
    assert result["record_ids"] == expr_brute_force(expr)
    assert result["expr"] == expr.normalize().to_dict()
    assert "type" not in result  # composite outcomes carry no point predicate


def test_expression_accepts_raw_wire_dicts(expr_client):
    wire = {
        "op": "or",
        "args": [
            {"op": "equality", "items": ["a"]},
            {"op": "subset", "items": ["d", "e"]},
        ],
    }
    result = expr_client.query_expr("exprs", wire)
    assert result["record_ids"] == [4, 5, 6]


def test_limit_expression_over_the_wire(expr_client):
    from repro.core.query import Subset

    result = expr_client.query_expr("exprs", Subset({"a"}).limit(2))
    assert len(result["record_ids"]) == 2
    assert set(result["record_ids"]) <= {1, 2, 4, 5}


def test_equivalent_expressions_share_one_cache_slot(expr_client):
    from repro.core.query import And, Not, Subset, Superset

    left = And((Subset({"c", "b"}), Not(Superset({"b", "c"}))))
    right = And((Not(Not(Not(Superset({"c", "b"})))), Subset({"b", "c"})))
    first = expr_client.query_expr("exprs", left)
    second = expr_client.query_expr("exprs", right)
    assert first["record_ids"] == second["record_ids"]
    assert second["cached"] is True


def test_point_leaf_expressions_keep_the_legacy_fields(expr_client):
    result = expr_client.query_expr("exprs", {"op": "subset", "items": ["a", "b"]})
    assert result["type"] == "subset"
    assert result["items"] == ["a", "b"]
    assert result["record_ids"] == [1, 2]


def test_batch_mixes_expressions_and_point_queries(expr_client):
    queries = [
        {"expr": {"op": "not", "arg": {"op": "subset", "items": ["a"]}}},
        {"type": "subset", "items": ["a"]},
    ]
    negated, positive = expr_client.batch(queries, index="exprs")
    assert negated["record_ids"] == [3, 6]
    assert positive["record_ids"] == [1, 2, 4, 5]


def test_expr_and_type_together_map_to_400(expr_client):
    with pytest.raises(ServiceError, match="not both"):
        expr_client._request(
            "POST",
            "/query",
            {
                "index": "exprs",
                "expr": {"op": "subset", "items": ["a"]},
                "type": "subset",
                "items": ["a"],
            },
        )


def test_malformed_expressions_map_to_400(expr_client):
    for wire in ({"op": "teleport"}, {"op": "subset", "items": []}, {"op": "and", "args": []}):
        with pytest.raises(ServiceError):
            expr_client.query_expr("exprs", wire)


def test_update_invalidates_only_matching_expression_entries(expr_client):
    from repro.core.query import And, Not, Subset, Superset

    touched = And((Subset({"a"}), Not(Superset({"a", "b"}))))   # matches {a, c, x}
    untouched = And((Subset({"d"}), Subset({"e"})))             # does not
    expr_client.query_expr("exprs", touched)
    expr_client.query_expr("exprs", untouched)
    assert expr_client.query_expr("exprs", untouched)["cached"] is True

    response = expr_client.insert("exprs", [{"a", "c", "x"}])
    (new_id,) = response["record_ids"]

    refreshed = expr_client.query_expr("exprs", touched)
    assert refreshed["cached"] is False
    assert new_id in refreshed["record_ids"]
    assert expr_client.query_expr("exprs", untouched)["cached"] is True
