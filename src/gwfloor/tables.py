"""Known beta presentations of the low-degree counts.

Each entry maps s to (h_coeff, beta_coeffs c_1..c_s, one_coeff).  These
are the published values for the five toric del Pezzo families at small
degree, with the one correction listed in PUBLISHED_ERRATA; the verify
command and the acceptance suite reproduce them from scratch.
"""

KNOWN_COUNTS: dict[str, dict[int, tuple[int, tuple[int, ...], int]]] = {
    "p2:3": {
        0: (2, (), 8),
        1: (2, (1,), 6),
        2: (2, (1, 0), 4),
        3: (2, (1, 0, 0), 2),
        4: (2, (1, 0, 0, 0), 0),
    },
    "p2:4": {
        0: (190, (), 240),
        1: (190, (48,), 144),
        2: (190, (32, 8), 80),
        3: (190, (20, 6, 1), 40),
        4: (190, (12, 4, 1, 0), 16),
        5: (190, (8, 2, 1, 0, 0), 0),
    },
    "p1xp1:2,2": {
        0: (2, (), 8),
        1: (2, (1,), 6),
        2: (2, (1, 0), 4),
        3: (2, (1, 0, 0), 2),
    },
    "p1xp1:2,3": {
        0: (24, (), 48),
        1: (24, (8,), 32),
        2: (24, (6, 1), 20),
        3: (24, (4, 1, 0), 12),
        4: (24, (2, 1, 0, 0), 8),
    },
    "p1xp1:2,4": {
        0: (192, (), 256),
        1: (192, (48,), 160),
        2: (192, (32, 8), 96),
        3: (192, (20, 6, 1), 56),
        4: (192, (12, 4, 1, 0), 32),
        5: (192, (8, 2, 1, 0, 0), 16),
    },
    "p1xp1:2,5": {
        0: (1280, (), 1280),
        1: (1280, (256,), 768),
        2: (1280, (160, 48), 448),
        3: (1280, (96, 32, 8), 256),
        4: (1280, (56, 20, 6, 1), 144),
        5: (1280, (32, 12, 4, 1, 0), 80),
        6: (1280, (16, 8, 2, 1, 0, 0), 48),
    },
    "bl1:3,1": {
        0: (2, (), 8),
        1: (2, (1,), 6),
        2: (2, (1, 0), 4),
        3: (2, (1, 0, 0), 2),
    },
    "bl1:4,2": {
        0: (24, (), 48),
        1: (24, (8,), 32),
        2: (24, (6, 1), 20),
        3: (24, (4, 1, 0), 12),
        4: (24, (2, 1, 0, 0), 8),
    },
    "bl2:4,2,2": {
        0: (2, (), 8),
        1: (2, (1,), 6),
        2: (2, (1, 0), 4),
        3: (2, (1, 0, 0), 2),
    },
    "bl2:4,2,1": {
        0: (24, (), 48),
        1: (24, (8,), 32),
        2: (24, (6, 1), 20),
        3: (24, (4, 1, 0), 12),
        4: (24, (2, 1, 0, 0), 8),
    },
    "bl2:4,1,1": {
        0: (190, (), 240),
        1: (190, (48,), 144),
        2: (190, (32, 8), 80),
        3: (190, (20, 6, 1), 40),
        4: (190, (12, 4, 1, 0), 16),
    },
    "bl3:3,1,1,1": {
        0: (2, (), 8),
        1: (2, (1,), 6),
        2: (2, (1, 0), 4),
    },
    "bl3:4,1,1,2": {
        0: (24, (), 48),
        1: (24, (8,), 32),
        2: (24, (6, 1), 20),
        3: (24, (4, 1, 0), 12),
    },
}

# Printed values that KNOWN_COUNTS corrects, per spec and field.  The
# printed bl2:4,1,1 rows have rank 2*160 + 240 = 560, but 4H - E1 - E2
# counts plane quartics through two more points: N_4 = 620 by the WDVV
# recursion, and the rows must equal those of p2:4 (h = 190).
PUBLISHED_ERRATA: dict[str, dict[str, int]] = {
    "bl2:4,1,1": {"h_coeff": 160},
}

# Complex counts stated alongside the tables.
KNOWN_COMPLEX = {
    "p1xp1:2,3": 96,
    "p1xp1:2,4": 640,
    "p1xp1:2,5": 3840,
}

# Welschinger invariants W_d of the plane degrees past the tables: real
# rational curves of degree d through 3d - 1 real points, counted with
# signs, as listed by Itenberg, Kharlamov and Shustin, "Welschinger
# invariant and enumeration of real rational curves", IMRN 2003.
KNOWN_WELSCHINGER = {"p2:6": 2845440, "p2:7": 792731520}

QUICK_SPECS = [
    "p2:2", "p2:3", "p1xp1:2,2", "p1xp1:2,3", "bl1:3,1", "bl1:4,2",
    "bl2:4,2,2", "bl2:4,2,1", "bl2:4,1,1", "bl3:3,1,1,1", "bl3:4,1,1,2",
]
# (spec, s_max): verify checks merge invariance for each s = 1..s_max.
MERGE_INVARIANCE_SPECS = [("p2:3", 2), ("p1xp1:2,2", 2)]
FULL_EXTRA_SPECS = ["p2:4", "p1xp1:2,4", "p1xp1:2,5"]
# Further checks of verify --scope full: plane degrees past the tables,
# whose s = 0 rank must be Kontsevich's N_d and whose s = 0 signature
# Welschinger's W_d, and placements of 0-based pairs whose count must
# equal the default placement's.  The bl2:5,1,1 placement merges a
# diagram that has a weight-2 twin elevator, which the default rows of
# the specs above almost never reach.
FULL_KONTSEVICH_SPECS = list(KNOWN_WELSCHINGER)
FULL_PLACEMENTS = [("bl2:5,1,1", ((4, 5), (6, 7), (8, 9), (10, 11)))]
# Degrees on isomorphic surfaces count the same curves, so their beta
# forms agree row by row for s <= min(n) / 2, although their floor
# diagrams differ (and so does n): an exceptional class of multiplicity 1
# is one more rational point; Bl2(P^2) = Bl1(P^1 x P^1) sends (a + b; a, b)
# to bidegree (a, b); the quadric's factors swap; the exceptional classes
# of bl3 permute; and the Cremona map sends (d; a) to (2d - sum a;
# d - a_j - a_k).  verify --scope full checks each group per s.
ISOMORPHIC_SPECS = [
    ["bl1:3,1", "p2:3"],
    ["bl1:4,1", "bl2:4,1,1", "bl3:4,1,1,1", "p2:4"],
    ["bl2:4,2,2", "p1xp1:2,2"],
    ["bl2:5,3,2", "p1xp1:3,2", "p1xp1:2,3"],
    ["bl3:4,2,1,1", "bl3:4,1,1,2"],
    ["bl3:5,2,1,1", "bl3:6,3,2,2"],
]
