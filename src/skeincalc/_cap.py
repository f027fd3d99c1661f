"""The two library refusals the runner maps to exit 2: the crossing cap
and a custom sequence's missing entry.

They live apart from skein.py and sequences.py, which re-export them, so
that the command line can print the default cap in --help, refuse a spec
before building it, and catch both refusals without loading the library.
"""

DEFAULT_CROSSING_CAP = 24


class CrossingCapExceeded(ValueError):
    """The diagram has more crossings than the configured expansion cap."""


class MissingEntry(ValueError):
    """A custom sequence was asked for an index it does not define."""


def refuse_over_cap(what: str, crossings: int, cap: int) -> None:
    """Raise CrossingCapExceeded when crossings exceed the expansion cap;
    the one rule the library and the command line both apply."""
    if crossings > cap:
        raise CrossingCapExceeded(f"{what} has {crossings} crossings; the expansion cap is {cap}")
