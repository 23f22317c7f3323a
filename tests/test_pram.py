"""Tests for the work/depth cost ledger."""

import pytest

from repro.pram import NULL_LEDGER, CostLedger


class TestSerial:
    def test_work_and_depth_add(self):
        c = CostLedger()
        c.serial(10)
        c.serial(5, 2)
        assert c.work == 15
        assert c.depth == 12

    def test_depth_defaults_to_work(self):
        c = CostLedger()
        c.serial(7)
        assert c.depth == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().serial(-1)


class TestParallelFor:
    def test_work_scales_depth_does_not(self):
        c = CostLedger()
        c.parallel_for(100, work_per_item=2, depth_per_item=3)
        assert c.work == 200
        assert c.depth == 3

    def test_zero_items_free(self):
        c = CostLedger()
        c.parallel_for(0)
        assert (c.work, c.depth) == (0, 0)

    def test_sequence_of_parallel_phases(self):
        c = CostLedger()
        for _ in range(4):
            c.parallel_for(10, 1, 2)
        assert c.work == 40
        assert c.depth == 8


class TestReductionAndSort:
    def test_reduction_log_depth(self):
        c = CostLedger()
        c.reduction(1024)
        assert c.work == 1024
        assert c.depth == 10

    def test_reduction_trivial(self):
        c = CostLedger()
        c.reduction(1)
        assert c.depth == 0

    def test_sort_nlogn_work(self):
        c = CostLedger()
        c.sort(8)
        assert c.work == 24  # 8 * log2(8)
        assert c.depth == 3

    def test_sort_single_item(self):
        c = CostLedger()
        c.sort(1)
        assert c.work == 1

    def test_sort_non_power_of_two(self):
        c = CostLedger()
        c.sort(5)  # ceil(log2 5) = 3
        assert c.work == 15
        assert c.depth == 3


class TestForkJoin:
    def test_join_max_depth_sum_work(self):
        parent = CostLedger()
        a, b = parent.fork(), parent.fork()
        a.serial(10, 10)
        b.serial(3, 3)
        parent.join(a, b)
        assert parent.work == 13
        assert parent.depth == 10

    def test_join_empty_noop(self):
        parent = CostLedger()
        parent.join()
        assert parent.snapshot() == (0, 0)


class TestNullLedger:
    def test_ignores_everything(self):
        NULL_LEDGER.serial(100)
        NULL_LEDGER.parallel_for(100)
        NULL_LEDGER.sort(100)
        NULL_LEDGER.reduction(100)
        NULL_LEDGER.join(CostLedger())
        assert NULL_LEDGER.snapshot() == (0, 0)

    def test_fork_returns_null(self):
        assert NULL_LEDGER.fork() is NULL_LEDGER
