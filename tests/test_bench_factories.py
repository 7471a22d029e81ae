"""Every instance factory the traced benchmark wraps builds and draws under
the tracer.

``perfbench/tracing.py`` rebinds the ``context_sampler`` field of the
instance each of six ``environments`` factories returns, so a change to an
instance's fields can break the traced benchmark. This test builds one
instance of each under the tracer, draws a context and its first reward,
and checks that the draw was recorded.
"""

import numpy as np
import pytest

import mixplan
from mixplan import Context, RankedContext

from test_bench_surface import _load_tracing

FACTORIES = {
    "make_synthetic": (0,),
    "make_random_unit_instance": (3, 4),
    "make_rank_instance": ([RankedContext(Context("q0", np.eye(2)), [1.0, 0.0])],),
    "make_hard_uniform": (3,),
    "make_hard_goptimal": (2,),
    "make_hard_nonconcentrating": (2, 4),
}


@pytest.mark.parametrize("factory, args", FACTORIES.items(), ids=list(FACTORIES))
def test_traced_factory_builds_and_draws(factory, args):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        instance = getattr(mixplan.environments, factory)(*args)
        context = instance.context_sampler(np.random.default_rng(0))
        reward = instance.reward(context, 0, np.random.default_rng(1))
    finally:
        tracer.restore()
    assert np.isfinite(reward)
    draws = tracer.names.index("environments.context_sampler")
    assert tracer.name_of.count(draws) == 1
