"""The multi-table H2OSystem facade."""

import pytest

from repro import Catalog, H2OSystem, generate_table
from repro.errors import CatalogError


@pytest.fixture()
def system():
    sys_ = H2OSystem()
    sys_.register(generate_table("orders", 6, 2000, rng=1))
    sys_.register(generate_table("events", 4, 1500, rng=2))
    return sys_


class TestRouting:
    def test_routes_by_from_table(self, system):
        first = system.execute("SELECT count(*) FROM orders")
        second = system.execute("SELECT count(*) FROM events")
        assert first.result.scalars()[0] == 2000
        assert second.result.scalars()[0] == 1500

    def test_unknown_table(self, system):
        with pytest.raises(CatalogError):
            system.execute("SELECT a1 FROM ghosts")

    def test_engines_created_lazily(self, system):
        assert system._engines == {}
        system.execute("SELECT a1 FROM orders")
        assert set(system._engines) == {"orders"}

    def test_per_table_adaptation_state(self, system):
        for _ in range(3):
            system.execute("SELECT sum(a1 + a2) FROM orders WHERE a3 < 0")
            system.execute("SELECT a1 FROM events")
        orders_engine = system.engine_for("orders")
        events_engine = system.engine_for("events")
        assert orders_engine is not events_engine
        assert len(orders_engine.reports) == 3
        assert len(events_engine.reports) == 3

    def test_run_sequence_mixed_tables(self, system):
        reports = system.run_sequence(
            ["SELECT a1 FROM orders", "SELECT a1 FROM events"]
        )
        assert len(reports) == 2
        assert system.cumulative_seconds() > 0


class TestCatalogLifecycle:
    def test_register_replace_resets_engine(self, system):
        system.execute("SELECT a1 FROM orders")
        fresh = generate_table("orders", 6, 100, rng=9)
        system.register(fresh, replace=True)
        report = system.execute("SELECT count(*) FROM orders")
        assert report.result.scalars()[0] == 100

    def test_drop_removes_engine(self, system):
        system.execute("SELECT a1 FROM orders")
        system.drop("orders")
        with pytest.raises(CatalogError):
            system.execute("SELECT a1 FROM orders")

    def test_external_catalog(self):
        catalog = Catalog()
        catalog.register(generate_table("t", 3, 500, rng=0))
        system = H2OSystem(catalog)
        assert system.execute("SELECT count(*) FROM t").result.scalars()[0] == 500
