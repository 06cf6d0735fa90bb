"""Reference step for the tests: the skewed dyadic map of one cut.

`engine.population_step` applies the one-cut rule to many chains at once
with array arithmetic. This oracle is the rule written out for one cut
and one root, branch by branch, so the tests can replay a step's cuts and
compare each new root with it exactly.
"""

from stochbisect.distributions import DomainError


def skewed_dyadic(c: float, r: float) -> float:
    """Rescaling map for one cut: r/c if c >= r, else (r-c)/(1-c).

    The tie c == r takes the first branch (returns 1). Cuts at exactly
    0 or 1 are rejected because the map degenerates there.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"cut must lie strictly inside (0, 1), got {c}")
    if c >= r:
        return r / c
    return (r - c) / (1.0 - c)
