"""Tests for instruction accounting."""

from repro.sim.counters import (CostModel, Counters, NATIVE_CATEGORIES,
                                OVERHEAD_CATEGORIES)


def test_charge_uses_cost_model():
    counters = Counters(CostModel(load=3, store=2))
    counters.charge("load")
    counters.charge("load")
    counters.charge("store")
    assert counters.instructions == {"load": 6, "store": 2}


def test_compute_charges_units_directly():
    counters = Counters()
    counters.charge("compute", 17)
    assert counters.instructions["compute"] == 17


def test_per_word_categories():
    model = CostModel(output_per_word=4, zero_fill_per_word=1,
                      ignore_unhash_per_word=4)
    counters = Counters(model)
    counters.charge("output", 5)
    counters.charge("zero_fill", 10)
    counters.charge("ignore_unhash", 2)
    assert counters.instructions["output"] == 20
    assert counters.instructions["zero_fill"] == 10
    assert counters.instructions["ignore_unhash"] == 8


def test_native_vs_overhead_split():
    counters = Counters()
    counters.charge("load")
    counters.charge("zero_fill", 4)
    assert counters.native_instructions() == counters.instructions["load"]
    assert counters.overhead_instructions() == counters.instructions["zero_fill"]
    assert counters.total_instructions() == (counters.native_instructions()
                                             + counters.overhead_instructions())


def test_categories_disjoint():
    assert not set(NATIVE_CATEGORIES) & set(OVERHEAD_CATEGORIES)


def test_events_accumulate():
    counters = Counters()
    counters.note("stores")
    counters.note("stores", 3)
    assert counters.events == {"stores": 4}


def test_snapshot_is_copy():
    counters = Counters()
    counters.charge("load")
    snap = counters.snapshot()
    counters.charge("load")
    assert snap["instructions"]["load"] < counters.instructions["load"]


def test_charge_table_matches_cost_model_for_every_category():
    """``charge`` looks costs up in a table built once from the frozen
    model; with every field off its default, each category's total must
    still equal ``CostModel.cost`` — the Figure 6 instruction counts
    depend on it."""
    import dataclasses

    model = CostModel(load=5, store=7, sync=11, alloc=13, libcall=17,
                      output_per_word=19, zero_fill_per_word=23,
                      ignore_unhash_per_word=29)
    assert all(getattr(model, f.name) != f.default
               for f in dataclasses.fields(CostModel))
    counters = Counters(model)
    units = {"load": 1, "store": 2, "compute": 31, "sync": 3, "alloc": 4,
             "libcall": 5, "output": 6, "zero_fill": 8, "ignore_unhash": 9}
    assert set(units) == set(NATIVE_CATEGORIES + OVERHEAD_CATEGORIES)
    for category, n in units.items():
        counters.charge(category, n)
        counters.charge(category)
    assert counters.instructions == {
        category: model.cost(category, n) + model.cost(category)
        for category, n in units.items()}
    assert counters.instructions["compute"] == 32  # units are instructions
