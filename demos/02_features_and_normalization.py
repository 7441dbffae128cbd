"""
Feature snapshots and the two normalizations
============================================

Features are a time-indexed snapshot: demographics never change, but the
clickstream block accumulates day by day and the recency column keeps
counting. Z-scoring fits a population mean/std per column; percentile
normalization replaces activity columns with mid-ranks, which transfers
between courses with very different traffic levels.
"""

import datetime

import numpy as np

from dropoutlab.dataset import SynthConfig, synthesize_course
from dropoutlab.features import (
    BLOCKS,
    FEATURE_NAMES,
    FeatureMatrix,
    apply_norm,
    build_matrix,
    normalize,
)

course = synthesize_course(SynthConfig(course_id="FEATx", n_students=200), seed=3)

# the features are one fixed 66-column layout; blocks in order
print("feature blocks:")
for block, r in BLOCKS.items():
    span = (FEATURE_NAMES[r.start] if len(r) == 1 else
            f"{FEATURE_NAMES[r.start]} .. {FEATURE_NAMES[r.stop - 1]}")
    print(f"  {block}: {len(r)} column{'s' if len(r) > 1 else ''} ({span})")

# snapshot the course two weeks before the full-points date and at it;
# only time-dependent columns move
early = build_matrix(course, course.meta.t100_date - datetime.timedelta(days=14))
late = build_matrix(course, course.meta.t100_date)
i_events = FEATURE_NAMES.index("cum_nevents")
i_gender = FEATURE_NAMES.index("gender_female")
print(f"\ncum_nevents col mean: {early.values[:, i_events].mean():8.1f} (two weeks early)"
      f" -> {late.values[:, i_events].mean():8.1f} (at full points)")
print(f"gender_female col mean: {early.values[:, i_gender].mean():6.3f}"
      f" -> {late.values[:, i_gender].mean():6.3f} (static, as expected)")

# normalize fits stats of a kind on one matrix and applies them to the
# targets it is given; apply_norm applies stats, by their own kind, to any
# other snapshot. z-score first:
stats, (z,) = normalize(late, [late], "zscore")
print(f"\nafter z-score, cum_nevents mean {z.values[:, i_events].mean():+.2e}, "
      f"std {z.values[:, i_events].std():.3f}")

# percentile: activity columns become mid-ranks in (0, 1); dummy columns
# pass through untouched so 0/1 indicators stay 0/1
pstats, (p,) = normalize(late, [late], "percentile")
col = p.values[:, i_events]
print(f"after percentile, cum_nevents range [{col.min():.3f}, {col.max():.3f}]")
print(f"gender_female still binary: {np.unique(p.values[:, i_gender]).tolist()}")

# the percentile map is rank-based, so a 10x traffic blowup in a target
# course lands on the same [0, 1] scale instead of exploding
scaled_values = late.values.copy()
scaled_values[:, i_events] *= 10.0
scaled = FeatureMatrix(late.student_ids, scaled_values, late.as_of)
mapped = apply_norm(scaled, pstats).values[:, i_events]
print(f"\nsame students, 10x the clicks, mapped through the trained stats:"
      f" range [{mapped.min():.3f}, {mapped.max():.3f}]")
