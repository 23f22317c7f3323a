"""Open-loop load generator for the serving workloads.

One thread plays both the users and the batching front end of a
:class:`repro.serve.ForestServer`.  Requests arrive on a seeded Poisson
schedule fixed before the step starts (an open loop: a slow server does
not slow the arrivals, so a backlog can build).  The loop submits each
request when it is due, flushes the server when the pending pairs reach
``max_pending`` or when the oldest pending request has waited
``delay_s``, and runs k-median requests eagerly, so a k-median miss
stalls every request behind it.

Latency is timed from each request's *due* time, which charges a stall to
every request it delays; how late the generator submitted each request is
reported separately.  A request still unsent when the step's time is up
counts as failed, i.e. as missing any latency limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAIR_KIND_NAMES",
    "KMEDIAN",
    "Traffic",
    "make_traffic",
    "run_step",
    "StepResult",
    "backlog_growing",
    "percentile_ms",
    "step_percentile_ms",
    "StepSummary",
    "summarize",
    "slo_step",
]

PAIR_KIND_NAMES = ("distances", "distance_upper_bounds", "median_distances")
KMEDIAN = len(PAIR_KIND_NAMES)  # kind code of a k-median request
PAIRS_PER_REQUEST = 4


@dataclass
class Traffic:
    """A fixed request schedule: one row per request, due times ascending."""

    due: np.ndarray  # (N,) float64 seconds from step start
    kind: np.ndarray  # (N,) int64: index into PAIR_KIND_NAMES, or KMEDIAN
    us: np.ndarray  # (N, 4) int64
    vs: np.ndarray  # (N, 4) int64
    weight: np.ndarray  # (N,) int64: weight-vector index of k-median rows


def make_traffic(
    rng: np.random.Generator,
    *,
    n: int,
    rate: float,
    duration: float,
    hot_pairs: tuple[np.ndarray, np.ndarray],
    n_weights: int,
    kmedian_share: float,
) -> Traffic:
    """Poisson arrivals at ``rate`` over ``duration`` seconds.

    Half of the pair requests draw their pairs from ``hot_pairs`` (a pool
    small enough to stay in the server's LRU), half draw fresh uniform
    pairs (cache misses the server coalesces).
    """
    expected = int(rate * duration * 1.2) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    due = due[due < duration]
    N = due.size
    kind = rng.integers(0, len(PAIR_KIND_NAMES), size=N)
    kind[rng.random(N) < kmedian_share] = KMEDIAN
    us = rng.integers(0, n, size=(N, PAIRS_PER_REQUEST))
    vs = rng.integers(0, n, size=(N, PAIRS_PER_REQUEST))
    hot = rng.random(N) < 0.5
    pick = rng.integers(0, hot_pairs[0].size, size=(N, PAIRS_PER_REQUEST))
    us[hot] = hot_pairs[0][pick[hot]]
    vs[hot] = hot_pairs[1][pick[hot]]
    weight = rng.integers(0, n_weights, size=N)
    return Traffic(due=due, kind=kind, us=us, vs=vs, weight=weight)


@dataclass
class StepResult:
    """Per-request timings of one open-loop step (seconds, NaN if unsent)."""

    rate: float
    duration: float
    due: np.ndarray
    sent: np.ndarray  # submit time
    finish: np.ndarray  # resolve time
    flushed: np.ndarray  # flush start time (pair requests only)
    #: sampled requests for the correctness check: (kind, us, vs, weight, value)
    answers: list

    @property
    def latency(self) -> np.ndarray:
        """Due-to-resolve latency; ``inf`` for requests never resolved."""
        lat = self.finish - self.due
        return np.where(np.isnan(lat), np.inf, lat)

    @property
    def lateness(self) -> np.ndarray:
        """How late the generator submitted each sent request."""
        late = self.sent - self.due
        return late[~np.isnan(late)]

    @property
    def queue_wait(self) -> np.ndarray:
        """Submit-to-flush wait of each flushed pair request."""
        wait = self.flushed - self.sent
        return wait[~np.isnan(wait)]

    @property
    def unsent(self) -> int:
        return int(np.isnan(self.sent).sum())


def run_step(
    server,
    traffic: Traffic,
    weights: list[np.ndarray],
    *,
    kmedian_k: int,
    rate: float,
    duration: float,
    delay_s: float,
    max_pending: int,
    grace_s: float,
    sample_every: int = 0,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> StepResult:
    """Play ``traffic`` against ``server`` in real time; see the module doc.

    The step ends when every request is resolved or ``grace_s`` after the
    last due time, whichever is first.  With ``sample_every > 0`` every
    such request's answer is kept for the correctness check.
    """
    N = traffic.due.size
    sent = np.full(N, np.nan)
    finish = np.full(N, np.nan)
    flushed = np.full(N, np.nan)
    answers: list = []
    pending: list[tuple[int, object]] = []
    pending_pairs = 0
    t0 = clock()
    due = traffic.due + t0
    end = t0 + duration + grace_s
    i = 0
    while i < N or pending:
        now = clock()
        if pending and (
            pending_pairs >= max_pending or now - sent[pending[0][0]] >= delay_s
        ):
            server.flush()
            done = clock()
            for j, req in pending:
                flushed[j] = now
                finish[j] = done
                if sample_every and j % sample_every == 0:
                    answers.append(_row(traffic, j, req.result()))
            pending, pending_pairs = [], 0
            continue
        if now >= end:
            break
        if i < N and due[i] <= now:
            sent[i] = now
            kind = int(traffic.kind[i])
            if kind == KMEDIAN:
                costs, _ = server.kmedian(weights[traffic.weight[i]], kmedian_k)
                finish[i] = clock()
                if sample_every and i % sample_every == 0:
                    answers.append(_row(traffic, i, costs))
            else:
                req = server.submit(PAIR_KIND_NAMES[kind], traffic.us[i], traffic.vs[i])
                pending.append((i, req))
                pending_pairs += traffic.us.shape[1]
            i += 1
            continue
        wake = min(
            due[i] if i < N else end,
            sent[pending[0][0]] + delay_s if pending else end,
            end,
        )
        if wake - now > 2e-4:
            sleep(wake - now - 1e-4)
    return StepResult(
        rate=rate,
        duration=duration,
        due=due - t0,
        sent=sent - t0,
        finish=finish - t0,
        flushed=flushed - t0,
        answers=answers,
    )


def _row(traffic: Traffic, j: int, value) -> tuple:
    return (
        int(traffic.kind[j]), traffic.us[j].copy(), traffic.vs[j].copy(),
        int(traffic.weight[j]), value,
    )


def percentile_ms(latency: np.ndarray, q: float) -> float:
    """The ``q``-th percentile in ms, taken as an order statistic.

    Unresolved requests carry ``inf`` latency and rank above every
    resolved one, so a step with more than ``100 - q`` percent failures
    reports ``inf``.
    """
    return float(np.percentile(latency, q, method="higher")) * 1e3


def step_percentile_ms(result: StepResult, q: float, windows: int = 3) -> float:
    """Median over ``windows`` equal spans of due time of each span's percentile.

    One transient stall (a collection, a preempted core) then moves one
    window's percentile instead of the whole step's.
    """
    edges = np.linspace(0.0, result.duration, windows + 1)
    idx = np.searchsorted(edges, result.due, side="right") - 1
    lat = result.latency
    return float(np.median([percentile_ms(lat[idx == w], q) for w in range(windows)]))


def backlog_growing(result: StepResult, tol_s: float) -> bool:
    """Did the generator fall behind and keep falling behind?

    True when requests were left unsent, or when the median lateness of
    the last quarter of sent requests exceeds that of the first quarter
    by more than ``tol_s``.
    """
    if result.unsent:
        return True
    late = result.lateness
    if late.size < 8:
        return False
    q = late.size // 4
    return float(np.median(late[-q:]) - np.median(late[:q])) > tol_s


@dataclass
class StepSummary:
    """What the benchmark keeps of a step once its arrays are dropped."""

    rate: float
    p50_ms: float
    p99_ms: float
    backlog: bool
    meets_slo: bool
    served_qps: float  # requests resolved per second of the step
    late_ms: float  # mean generator lateness
    wait_ms: float  # mean submit-to-flush wait
    answers: list


def summarize(
    result: StepResult, limit_ms: float, tol_s: float, windows: int = 3
) -> StepSummary:
    """Reduce a step to its percentiles, backlog verdict and SLO verdict."""
    p99 = step_percentile_ms(result, 99, windows)
    backlog = backlog_growing(result, tol_s)
    return StepSummary(
        rate=result.rate,
        p50_ms=step_percentile_ms(result, 50, windows),
        p99_ms=p99,
        backlog=backlog,
        meets_slo=p99 <= limit_ms and not backlog,
        served_qps=float(np.isfinite(result.latency).sum()) / result.duration,
        late_ms=float(np.mean(result.lateness)) * 1e3,
        wait_ms=float(np.mean(result.queue_wait)) * 1e3,
        answers=result.answers,
    )


def slo_step(steps: list[StepSummary]) -> StepSummary | None:
    """The highest-rate step meeting the p99 limit with no growing backlog."""
    ok = [s for s in steps if s.meets_slo]
    return max(ok, key=lambda s: s.rate) if ok else None
