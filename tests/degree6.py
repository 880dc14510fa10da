"""On-demand probe: the identities of every row of p2:6, past the tables.

No tier-1 or `verify` check counts a row with pairs of a degree past
p2:5.  This probe counts all 9 rows of p2:6 (n = 17, s = 0..8), whose
rows with s >= 6 reach further than any tier-1 table, and checks the
identities that need no engine-only number:

* every row's rank is Kontsevich's N_6 = 26312976;
* every row's all-positive signature is W_6 = KNOWN_WELSCHINGER["p2:6"];
* every row's all-negative signature is its <1> coefficient;
* the d_s := 1 chain: setting d_s := 1 in row s gives row s - 1, for
  s = 1..8;
* merge invariance on PLACEMENTS, two placements whose covers differ
  from the default rows' and from each other, so each is its own orbit
  pass of about 7 s;
* the default cover, default_pairs(8), is read back from the cache that
  the rows filled (`counting._cover_profiles`), with no second pass.

It then counts the twin elevator marks of odd weight >= 3 over the trees
of that cover's label entries: no tier-1 or verify row reaches the odd
branch of `multiplicity.twin_edge_mult` for m >= 3 (see
tests/odd_twins.py), and this cover holds 300 890 classes.

Run from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/degree6.py

It prints each failed check and each odd twin mark found, then one
summary line with the number of each, the wall time and the peak RSS,
and exits 1 if a check fails or a mark is found, 0 otherwise.
"""

import resource
import sys
import time

from gwfloor import counting
from gwfloor.counting import count, default_pairs, kontsevich, verify_square_substitution
from gwfloor.degrees import n_delta, parse_degree
from gwfloor.diagrams import _named
from gwfloor.gwring import equals_mod
from gwfloor.tables import KNOWN_WELSCHINGER

SPEC = "p2:6"
PLACEMENTS = [((1, 2),), ((1, 2), (4, 5))]  # 0-based


def checks(spec):
    """(name, passed) per check."""
    rank, welschinger = kontsevich(spec.params[0]), KNOWN_WELSCHINGER[str(spec)]
    s_max = n_delta(spec) // 2
    for s in range(s_max + 1):
        res = count(spec, s)
        yield f"rank_s{s}", res.rank == rank
        yield f"sig_pos_s{s}", res.signature_all_positive == welschinger
        yield f"sig_neg_is_one_coeff_s{s}", \
            res.signature_all_negative == res.beta_form.one_coeff
    for s in range(1, s_max + 1):
        yield f"square_substitution_s{s}", verify_square_substitution(spec, s)
    for pairs in PLACEMENTS:
        s = len(pairs)
        yield f"merge_invariance_s{s}_pairs_{_named(pairs)}", \
            equals_mod(count(spec, s, list(pairs)).total, count(spec, s).total)
    misses = counting._cover_profiles.cache_info().misses
    default_cover(spec)
    yield "default_cover_cached", counting._cover_profiles.cache_info().misses == misses


def default_cover(spec):
    """The label entries of the degree's default cover, as the rows cached them."""
    entries, _ = counting._cover_profiles(spec, default_pairs(n_delta(spec) // 2))
    return entries


def odd_twin_marks(entries):
    """(weight, point) per twin elevator mark of odd weight >= 3 over the
    entries' trees."""
    return [(m, i) for _, trees, _ in entries for tree in trees
            for m, i in tree.elevator_marks if m >= 3 and m % 2]


def main() -> int:
    start = time.perf_counter()
    spec = parse_degree(SPEC)
    total = failed = 0
    for name, passed in checks(spec):
        total += 1
        if not passed:
            failed += 1
            print(f"{spec} {name}: failed")
    entries = default_cover(spec)
    odd = odd_twin_marks(entries)
    for m, i in odd:
        print(f"{spec} default cover: twin elevator mark of weight {m} at point {i}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{spec}: {total} checks, {failed} failed; {len(entries)} label entries of the "
          f"default cover: {len(odd)} twin elevator marks of odd weight >= 3; "
          f"{time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MB")
    return int(failed > 0 or len(odd) > 0)


if __name__ == "__main__":
    sys.exit(main())
