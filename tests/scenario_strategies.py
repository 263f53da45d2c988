"""Hypothesis strategies for scenarios and policies, shared by the randomized
tests. Table rows are drawn independently, so tables are not monotone in
general.

``hundredths`` draws probabilities on the two-decimal grid that sweeps use,
0 and 1 included, which makes exact ties and empty feasible sets common;
there the optimizer's status and optimum must equal the exact oracle's.
``probs`` draws any float in [0, 1], 0, 1 and tiny ones included. There a
constraint can be violated by less than ``CONSTRAINT_TOL``, which the
optimizer accepts, so only a one-sided comparison with the exact oracle
holds.
"""

from hypothesis import HealthCheck
from hypothesis import strategies as st

from crsense.analytics import PolicyVector, Scenario
from crsense.channel import SensingOption

SETTINGS = dict(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

hundredths = st.integers(0, 100).map(lambda k: k / 100)
probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def scenarios(draw, min_m: int = 1, max_m: int = 10, prob=probs) -> Scenario:
    m = draw(st.integers(min_m, max_m))
    indices = sorted(draw(st.lists(st.integers(1, 999), min_size=m, max_size=m, unique=True)))
    table = tuple(SensingOption(k, draw(prob), draw(prob), draw(prob)) for k in indices)
    return Scenario(draw(prob), draw(prob), draw(prob), draw(prob), draw(prob), table)


@st.composite
def policies(draw, m: int) -> PolicyVector:
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)
               .filter(lambda xs: sum(xs) > 0.0))
    total = sum(raw)
    return PolicyVector(tuple(x / total for x in raw))
