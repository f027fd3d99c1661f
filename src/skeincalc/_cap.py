"""The crossing cap: the one rule that refuses a diagram too large to expand.

It lives apart from skein.py so that the command line can print the
default in --help, and refuse a spec before building it, without loading
the resolver.  skein.py re-exports all three names.
"""

DEFAULT_CROSSING_CAP = 24


class CrossingCapExceeded(ValueError):
    """The diagram has more crossings than the configured expansion cap."""


def refuse_over_cap(what: str, crossings: int, cap: int) -> None:
    """Raise CrossingCapExceeded when crossings exceed the expansion cap;
    the one rule the library and the command line both apply."""
    if crossings > cap:
        raise CrossingCapExceeded(f"{what} has {crossings} crossings; the expansion cap is {cap}")
