"""Tests of the benchmark's own harness (not of the library).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import openloop
from perfbench.spans import Tracer, covered, layer_table, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeTime:
    """A clock that moves 1 us per reading and jumps on sleep."""

    def __init__(self):
        self.t = 0.0

    def clock(self):
        self.t += 1e-6
        return self.t

    def sleep(self, dt):
        self.t += dt


# -- spans ---------------------------------------------------------------------


def _span(i, parent, start, end, name="x"):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "b"),  # grandchild: charged to a, not root
        _span(3, 0, 5.0, 9.0, "a"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    table = layer_table(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == pytest.approx(7.0)
    assert table["a"]["self_s"] == pytest.approx(6.0)
    # Self times of every span add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0


def test_tracer_nesting_and_wrap_restore():
    fake = FakeTime()
    tracer = Tracer(clock=fake.clock)
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer.wrap(mod, "f", "layer.f", lambda tr, res, a, kw: tr.count("layer.f.sum", res))
    with tracer.span("root"):
        assert mod.f(1) == 2
        assert mod.f(2) == 3
    tracer.restore()
    assert mod.f is original
    root, first, second = tracer.spans
    assert first["parent"] == second["parent"] == root["id"]
    assert {s["root"] for s in tracer.spans} == {root["id"]}
    assert tracer.counts["layer.f.sum"] == 5
    assert layer_table(tracer.spans)["layer.f"]["calls"] == 2


def test_wrap_skips_calls_directly_under_the_named_span():
    # As in the oracle: its outer loop and its level chains call one function.
    tracer = Tracer(clock=FakeTime().clock)
    mod = types.SimpleNamespace(f=lambda: None)
    mod.loop = lambda: mod.f()
    tracer.wrap(mod, "f", "inner", skip_under="outer")
    tracer.wrap(mod, "loop", "outer")
    mod.loop()
    with tracer.span("level"):
        mod.f()
    tracer.restore()
    assert [s["name"] for s in tracer.spans] == ["outer", "level", "inner"]
# -- open loop -----------------------------------------------------------------


class FakeServer:
    """Resolves requests on flush; a flush costs ``flush_s`` of fake time."""

    def __init__(self, fake: FakeTime, flush_s: float):
        self.fake, self.flush_s, self.pending = fake, flush_s, []

    def submit(self, kind, us, vs):
        req = types.SimpleNamespace(value=None)
        req.result = lambda: req.value
        self.pending.append(req)
        return req

    def flush(self):
        self.fake.sleep(self.flush_s)
        for req in self.pending:
            req.value = np.zeros(1)
        self.pending = []

    def kmedian(self, weights, k):
        return np.zeros(1), []


def _traffic(due):
    n = len(due)
    return openloop.Traffic(
        due=np.asarray(due, dtype=float),
        kind=np.zeros(n, dtype=np.int64),
        us=np.zeros((n, 4), dtype=np.int64),
        vs=np.zeros((n, 4), dtype=np.int64),
        weight=np.zeros(n, dtype=np.int64),
    )


def test_latency_counts_from_due_time_through_a_stall():
    fake = FakeTime()
    server = FakeServer(fake, flush_s=0.050)
    res = openloop.run_step(
        server, _traffic([0.0, 0.001, 0.010]), [],
        kmedian_k=1, rate=100.0, duration=0.011, delay_s=0.002,
        max_pending=1000, grace_s=1.0, clock=fake.clock, sleep=fake.sleep,
    )
    # Requests 0 and 1 share the flush at ~2 ms, which stalls until ~52 ms.
    assert res.finish[:2] == pytest.approx([0.052, 0.052], abs=1e-3)
    # Request 2 was due at 10 ms but could only be sent after the stall...
    assert res.sent[2] - res.due[2] == pytest.approx(0.042, abs=1e-3)
    assert res.lateness[2] == pytest.approx(0.042, abs=1e-3)
    # ...and its latency counts that wait, the batching delay and its flush.
    assert res.latency[2] == pytest.approx(0.052 + 0.002 + 0.050 - 0.010, abs=1e-3)
    assert res.queue_wait == pytest.approx([0.002, 0.001, 0.002], abs=1e-3)
    assert res.unsent == 0


def test_flush_at_max_pending_without_waiting_for_the_delay():
    fake = FakeTime()
    res = openloop.run_step(
        FakeServer(fake, flush_s=0.0), _traffic([0.0, 0.0]), [],
        kmedian_k=1, rate=100.0, duration=0.01, delay_s=1.0,
        max_pending=8, grace_s=1.0, clock=fake.clock, sleep=fake.sleep,
    )
    assert np.all(res.latency < 1e-3)


def test_unsent_requests_fail_the_limit():
    fake = FakeTime()
    res = openloop.run_step(
        FakeServer(fake, flush_s=0.5), _traffic([0.0, 0.01, 0.02, 0.03]), [],
        kmedian_k=1, rate=100.0, duration=0.04, delay_s=0.001,
        max_pending=1000, grace_s=0.1, clock=fake.clock, sleep=fake.sleep,
    )
    assert res.unsent == 3
    assert np.isinf(res.latency[1:]).all()
    assert openloop.percentile_ms(res.latency, 50) == np.inf


# -- backlog and the rate ladder ------------------------------------------------


def _step(rate, lateness, latency=0.001, unsent=0):
    n = len(lateness) + unsent
    due = np.linspace(0.0, 1.0, n)
    sent = np.full(n, np.nan)
    sent[: len(lateness)] = due[: len(lateness)] + np.asarray(lateness)
    finish = np.where(np.isnan(sent), np.nan, due + latency)
    return openloop.StepResult(
        rate=rate, duration=1.0, due=due, sent=sent,
        finish=finish, flushed=sent, answers=[],
    )


def test_backlog_growing_detects_rising_lateness():
    steady = _step(1000, np.full(400, 0.002))
    assert not openloop.backlog_growing(steady, tol_s=0.025)
    rising = _step(1000, np.linspace(0.0, 0.2, 400))
    assert openloop.backlog_growing(rising, tol_s=0.025)
    assert openloop.backlog_growing(_step(1000, np.zeros(400), unsent=5), tol_s=1.0)


def test_slo_step_is_highest_rate_meeting_limit_without_backlog():
    steps = [
        _step(2000, np.zeros(400), latency=0.003),
        _step(4000, np.zeros(400), latency=0.010),
        _step(6000, np.zeros(400), latency=0.030),  # misses the p99 limit
        _step(8000, np.linspace(0.0, 0.3, 400), latency=0.005),  # backlog
    ]
    summaries = [openloop.summarize(s, limit_ms=25.0, tol_s=0.025) for s in steps]
    assert [s.meets_slo for s in summaries] == [True, True, False, False]
    assert [s.backlog for s in summaries] == [False, False, False, True]
    best = openloop.slo_step(summaries)
    assert best.rate == 4000
    assert best.served_qps == pytest.approx(400.0)  # 400 requests in 1 s
    assert openloop.slo_step(summaries[2:]) is None


# -- metric names -----------------------------------------------------------------


def test_metric_names_and_units_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            assert NAME_RE.match(m["name"]), m["name"]
            assert UNIT_RE.match(m["unit"]), m["unit"]
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("bad", ["", "_x", "a b", "a/b", "x" * 65, "é"])
def test_name_grammar_rejects(bad):
    assert not NAME_RE.match(bad)


def test_step_percentile_ignores_a_stall_confined_to_one_window():
    lat = np.full(300, 0.002)
    lat[:20] = 0.100  # one stall early in the step
    step = _step(1000, np.zeros(300), latency=lat)
    assert openloop.percentile_ms(step.latency, 99) == pytest.approx(100.0)
    assert openloop.step_percentile_ms(step, 99) == pytest.approx(2.0)
