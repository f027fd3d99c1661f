"""The library refusals the runner maps to exit 2: the crossing cap, the
frontier budget and a custom sequence's missing entry.

They live apart from skein.py and sequences.py, which re-export them, so
that the command line can print the default cap in --help, refuse a spec
before building it, and catch every refusal without loading the library.
"""

DEFAULT_CROSSING_CAP = 24

# The most partial states the resolver's frontier may hold at a crossing.
# The cap counts crossings, yet an answer's size depends on the diagram's
# shape (xkyn:1,N has 2^N terms).  resolve xkyn:1,16 peaks at exactly this
# many states (5 s, 252 MiB), and xkyn:1,24, which the default cap admits,
# is refused after about 3 s and 222 MiB (CPython 3.11, 2-CPU Xeon host).
MAX_FRONTIER_STATES = 65_536


class CrossingCapExceeded(ValueError):
    """The diagram has more crossings than the configured expansion cap."""


class FrontierBudgetExceeded(ValueError):
    """The resolver's frontier grew past MAX_FRONTIER_STATES partial states."""


class MissingEntry(ValueError):
    """A custom sequence was asked for an index it does not define."""


def refuse_over_cap(what: str, crossings: int, cap: int) -> None:
    """Raise CrossingCapExceeded when crossings exceed the expansion cap;
    the one rule the library and the command line both apply."""
    if crossings > cap:
        raise CrossingCapExceeded(f"{what} has {crossings} crossings; the expansion cap is {cap}")
