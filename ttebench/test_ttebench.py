"""Tests of the benchmark's own arithmetic (no ``repro`` needed).

    python3 -m pytest ttebench/test_ttebench.py -q
"""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import stats  # noqa: E402
from probe import Probe  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- percentiles -------------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert stats.min_samples_for(99) == 1000
    assert stats.min_samples_for(50) == 20
    value, n = stats.tail_percentile(list(range(1000)), 99)
    assert n == 1000
    beyond = sum(1 for s in range(1000) if s > value)
    assert beyond == 10
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(999)), 99)


# -- throughput and overhead -------------------------------------------------
def test_phase_throughput_is_total_work_over_total_wall():
    # Two builds of 30 trips taking 2 s and 4 s: 60 trips in 6 s.
    assert stats.throughput([30, 30], [2.0, 4.0]) == 10.0
    # Not the mean of per-unit rates (15 and 7.5 -> 11.25).
    assert stats.throughput([30, 30], [2.0, 4.0]) != 11.25
    with pytest.raises(ValueError):
        stats.throughput([30], [2.0, 4.0])
    with pytest.raises(ValueError):
        stats.throughput([], [])


def test_reference_throughput_divides_each_wall_by_its_host_factor():
    # 10 trips in 2 s at factor 1 and 10 trips in 4 s at factor 2 (a
    # host half as fast): 20 trips in 2 + 2 reference seconds.
    assert stats.ref_throughput([10, 10], [2.0, 4.0], [1.0, 2.0]) == 5.0
    with pytest.raises(ValueError):
        stats.ref_throughput([10, 10], [2.0, 4.0], [1.0])
    with pytest.raises(ValueError):
        stats.ref_throughput([10], [2.0], [0.0])


def test_host_factor_is_mean_of_bracketing_samples_over_nominal():
    before, after = hostspeed.sample(), hostspeed.sample()
    assert before > 0 and after > 0
    assert hostspeed.unit_factor(before, after) == pytest.approx(
        (before + after) / 2 / hostspeed.NOMINAL_S)
    assert hostspeed.unit_factor(hostspeed.NOMINAL_S,
                                 hostspeed.NOMINAL_S) == 1.0


def test_spread_units_places_every_unit_once_and_evenly():
    counts = {"sparse": 4, "train": 1, "batch": 8, "burst": 3}
    steps = stats.spread_units(counts, 4)
    assert len(steps) == 4
    for phase, count in counts.items():
        assert sum(step.count(phase) for step in steps) == count
    assert [step.count("sparse") for step in steps] == [1, 1, 1, 1]
    assert [step.count("batch") for step in steps] == [2, 2, 2, 2]
    assert [step.count("train") for step in steps] == [0, 0, 1, 0]
    assert [step.count("burst") for step in steps] == [1, 0, 1, 1]
    # Within a step, phases keep the order of ``counts``.
    assert steps[2] == ["sparse", "train", "batch", "batch", "burst"]
    with pytest.raises(ValueError):
        stats.spread_units(counts, 0)


def test_overhead_share():
    assert stats.overhead_share([1.1, 2.2], [1.0, 2.0]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.overhead_share([], [1.0])


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 4) == 0.0
    # Exclusive quartiles of 1..9 are 2.5 and 7.5 around a median of 5.
    assert stats.quartile_spread([float(v) for v in range(1, 10)]) == 1.0


# -- self time ---------------------------------------------------------------
def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    probe = Probe(clock=clock)
    ns = types.SimpleNamespace()

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        ns.leaf()
        ns.leaf()
        clock.advance(0.5)

    def top():
        clock.advance(3.0)
        ns.middle()

    ns.leaf, ns.middle, ns.top = leaf, middle, top
    probe.wrap(ns, "leaf", "L")
    probe.wrap(ns, "middle", "M")
    probe.wrap(ns, "top", "T")
    probe.phase = "p"
    ns.top()
    probe.phase = None
    assert probe.get("p", "L").calls == 2
    assert probe.get("p", "L").incl_s == 4.0
    assert probe.get("p", "L").self_s == 4.0
    assert probe.get("p", "M").incl_s == 5.5
    assert probe.get("p", "M").self_s == 1.5
    assert probe.get("p", "T").incl_s == 8.5
    assert probe.get("p", "T").self_s == 3.0
    # Self times partition the outermost call's wall.
    assert probe.self_total("p") == 8.5
    assert probe.restore() == []


def test_same_key_nesting_counts_once():
    clock = FakeClock()
    probe = Probe(clock=clock)
    ns = types.SimpleNamespace()

    def inner():
        clock.advance(1.0)

    def outer():
        clock.advance(2.0)
        ns.inner()

    ns.inner, ns.outer = inner, outer
    probe.wrap(ns, "inner", "K")
    probe.wrap(ns, "outer", "K")
    probe.phase = "p"
    ns.outer()
    stats_k = probe.get("p", "K")
    assert (stats_k.calls, stats_k.incl_s, stats_k.self_s) == (1, 3.0, 3.0)


def test_paused_probe_records_nothing():
    clock = FakeClock()
    probe = Probe(clock=clock)
    ns = types.SimpleNamespace(f=lambda: clock.advance(1.0))
    probe.wrap(ns, "f", "F")
    ns.f()
    assert probe.stats == {}


def test_generator_wrapper_times_each_next():
    clock = FakeClock()
    probe = Probe(clock=clock)
    ns = types.SimpleNamespace()

    def gen():
        for item in range(3):
            clock.advance(1.0)
            yield item

    ns.gen = gen
    probe.wrap(ns, "gen", "G", generator=True)
    probe.phase = "p"
    items = []
    for item in ns.gen():
        clock.advance(10.0)          # the consumer's time is not counted
        items.append(item)
    assert items == [0, 1, 2]
    assert probe.get("p", "G").self_s == 3.0
    assert probe.get("p", "G").calls == 4


def test_observe_and_before_hooks_run_outside_timing():
    clock = FakeClock()
    probe = Probe(clock=clock)
    seen = []
    ns = types.SimpleNamespace(f=lambda x: x * 2)
    probe.wrap(ns, "f", "F",
               before=lambda a, k: (seen.append(("before", a)),
                                    clock.advance(5.0)),
               observe=lambda a, k, r: seen.append(("after", r)))
    probe.phase = "p"
    assert ns.f(3) == 6
    assert seen == [("before", (3,)), ("after", 6)]
    assert probe.get("p", "F").incl_s == 0.0


# -- install / restore -------------------------------------------------------
class Widget:
    def method(self, x):
        return x + 1


def module_function(x):
    return x * 3


def test_wrap_and_restore_by_identity():
    module = types.ModuleType("fake_layer")
    module.module_function = module_function
    widget = Widget()
    widget.handler = widget.method
    originals = (vars(Widget)["method"], module.module_function,
                 widget.handler)

    probe = Probe()
    probe.wrap(Widget, "method", "W")
    probe.wrap(module, "module_function", "M")
    probe.wrap(widget, "handler", "H")
    assert vars(Widget)["method"] is not originals[0]
    probe.phase = "p"
    assert widget.method(1) == 2
    assert module.module_function(2) == 6
    assert widget.handler(4) == 5
    # The instance attribute holds the bound original, not the wrapper.
    assert probe.get("p", "W").calls == 1

    assert probe.restore() == []
    assert vars(Widget)["method"] is originals[0]
    assert module.module_function is originals[1]
    assert vars(widget)["handler"] is originals[2]
    assert probe.restore() == []          # nothing left to undo


def test_restore_reports_what_it_could_not_put_back():
    module = types.ModuleType("fake_layer")
    module.f = module_function
    probe = Probe()
    probe.wrap(module, "f", "F")

    class Sticky(types.ModuleType):
        def __setattr__(self, name, value):
            pass                      # refuses the restore

    module.__class__ = Sticky
    assert probe.restore() == ["F (f)"]


def test_wrap_refuses_inherited_attribute():
    class Child(Widget):
        pass

    with pytest.raises(AttributeError):
        Probe().wrap(Child, "method", "W")


# -- pins ----------------------------------------------------------------------
PIN = {"fingerprint": "ab" * 32, "path_digest": "cd" * 32}


def test_pin_match_passes():
    assert stats.pin_mismatches(dict(PIN), PIN) == []
    assert stats.pin_mismatches({"val_mae": 264.80828833},
                                {"val_mae": 264.80828833}) == []


def test_pin_fails_closed_on_perturbed_digest():
    actual = dict(PIN, path_digest="cd" * 31 + "ce")
    assert stats.pin_mismatches(actual, PIN) == ["path_digest"]


def test_pin_fails_closed_on_perturbed_mae():
    # The BLAS thread count moves val MAE in the 10th significant digit.
    assert stats.pin_mismatches({"val_mae": 264.80828894},
                                {"val_mae": 264.80828833}) == ["val_mae"]


def test_pin_fails_closed_on_missing_or_extra_fields():
    assert stats.pin_mismatches({}, PIN) == ["fingerprint", "path_digest"]
    assert stats.pin_mismatches(dict(PIN), {}) == ["<no pin>"]
    assert stats.pin_mismatches(dict(PIN, extra=1), PIN) == ["extra"]


def test_close_is_relative():
    assert stats.close(1000.0, 1000.0 + 1e-7)
    assert not stats.close(1000.0, 1000.0 + 1e-5)
    assert stats.close(0.0, 1e-10)
