"""Smoke tests that the example scripts run and print sensible output."""

from __future__ import annotations

import importlib.util
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"examples_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_has_at_least_three_scripts(self):
        scripts = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3
        assert "quickstart.py" in scripts

    def test_quickstart_runs_and_matches_paper_answers(self, capsys):
        module = load_example("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "[101, 104, 114]" in output  # subset {a, d}
        assert "[106, 113]" in output  # superset {a, c}
        assert "metadata table" in output

    def test_market_basket_components(self):
        # Run the example's basket simulator at a smaller size and check the
        # analyses it performs give exact answers.
        module = load_example("market_basket")
        dataset = module.simulate_baskets(800)
        assert len(dataset) == 800
        from repro import OrderedInvertedFile, Subset

        oif = OrderedInvertedFile(dataset)
        result = oif.evaluate(Subset({"milk", "bread"}))
        assert all(dataset.get(record_id).contains_all({"milk", "bread"}) for record_id in result)

    def test_scaling_study_runs_small(self, capsys):
        module = load_example("scaling_study")
        module.main(400)
        output = capsys.readouterr().out
        assert "records" in output
        assert "OIF pages" in output

    def test_composite_queries_runs_and_agrees_across_layers(self, capsys):
        module = load_example("composite_queries")
        module.main()
        output = capsys.readouterr().out
        # Index, runner and service must report the same four answers.
        assert "answers via OIF: [1, 5, 7, 9]" in output
        assert "service: [1, 5, 7, 9]" in output
        assert "cached on repeat: True" in output
        # The probe line now carries the posting representation and cost
        # annotations, e.g. "probe subset(milk:bitmap) [sel=..., cost=...]".
        assert "probe subset(milk:" in output

    def test_sharded_service_example_runs_end_to_end(self, capsys):
        module = load_example("sharded_service")
        module.main()
        output = capsys.readouterr().out
        assert "identical answers, sharded and monolithic" in output
        assert "pending per shard after 2 inserts" in output
        assert "per-shard breakdown" in output
        assert "/stats per-shard slots: ['0', '1', '2', '3']" in output

    def test_weblog_sessions_components(self):
        load_example("weblog_sessions")
        from repro.datasets import MswebConfig, generate_msweb

        sessions = generate_msweb(MswebConfig(num_sessions=500, replicas=1, seed=3))
        assert len(sessions) == 500
