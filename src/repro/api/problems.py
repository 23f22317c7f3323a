"""The Section-3 algorithm zoo as the facade's problem catalogue.

A real module alias of :mod:`repro.mbf.zoo`, so both spellings work::

    from repro.api import problems
    import repro.api.problems as problems

Every factory returns an :class:`~repro.mbf.problem.MBFProblem` runnable
through :func:`repro.api.solve` (``solve(G, problem)`` returns
``(value, iterations)``) on any capable engine; see the "Problems and
engines" section of API.md.
"""

from repro.mbf.zoo import *  # noqa: F401,F403
from repro.mbf.zoo import __all__  # noqa: F401
