"""The four-city walkthrough network the README and the tests use."""

from __future__ import annotations

from fractions import Fraction

from .model import NetworkSpec, make_spec

#: round trips for the four-city walkthrough network
_EX_RTT = (
    (0, 2, 9, 2),
    (2, 0, 7, 2),
    (9, 7, 0, 5),
    (2, 2, 5, 0),
)

#: each node wants one file strongly (1/5) and the others lightly (1/40);
#: the favorites of C and D coincide, which is what makes the instance
#: interesting: whoever serves C pays for its heavy file-2 demand over
#: a long round trip
_EX_DEMANDS = (
    (Fraction(1, 5), Fraction(1, 40), Fraction(1, 40)),
    (Fraction(1, 40), Fraction(1, 5), Fraction(1, 40)),
    (Fraction(1, 40), Fraction(1, 40), Fraction(1, 5)),
    (Fraction(1, 40), Fraction(1, 40), Fraction(1, 5)),
)


def example_instance() -> NetworkSpec:
    """Four nodes, three files, preferential demands.

    Small enough to check by hand: B and D sit two units from everyone
    except the far-off C, and C reaches the rest only through D (5) or
    B (7).  The supply graph is unique and its conflict graph has a
    single proper 3-coloring, {A, C} / {B} / {D}, so planning reduces
    to one assignment problem.
    """
    return make_spec(("A", "B", "C", "D"), _EX_RTT, _EX_DEMANDS, 3)
