"""The oracle for MBF-like queries on ``H`` (Section 5)."""

from repro.oracle.oracle import ChainHistory, HOracle

__all__ = ["ChainHistory", "HOracle"]
