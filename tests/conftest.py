"""Helpers shared by the test modules."""

from gwfloor.counting import _cover_profiles, _row
from gwfloor.multiplicity import twin_tree_mult

# Every cache that holds a result of `diagrams.label` or of a local
# factor, bound at import, as a test may patch the module attribute.
COUNT_CACHES = (_row, _cover_profiles, twin_tree_mult)


def clear_count_caches() -> None:
    """Forget every cached count result.

    A cache left out keeps results from before a patch, which hides a
    mutant, or from under one, which fails the tests that follow.
    """
    for cache in COUNT_CACHES:
        cache.cache_clear()
