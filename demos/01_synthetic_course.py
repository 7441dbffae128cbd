"""
Synthesizing a course and round-tripping it through CSV
=======================================================

A course is four tables: metadata, a demographic roster, per-day
clickstream activity, and final grades. The generator produces all four
from a seed, so every downstream result is reproducible.

The roster is held as columns in student-id order, the row order of every
feature matrix: yob (NaN for a non-response), loe, gender and continent
(each an index into its list of levels, one past the end for a
non-response) and took_precourse_survey (0/1).
"""

import tempfile
from pathlib import Path

import numpy as np

from dropoutlab.dataset import (
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    SynthConfig,
    load_course_dir,
    synthesize_course,
    write_course,
)

# one mid-sized course; the same (config, seed) pair always yields
# byte-identical tables
config = SynthConfig(course_id="DEMOx", n_students=300, weeks_to_t100=6, weeks_total=8)
course = synthesize_course(config, seed=7)

meta = course.meta
print(f"course {meta.course_id} ({meta.field})")
print(f"  launch {meta.launch_date}, full-points date {meta.t100_date}, ends {meta.end_date}")
print(f"  {course.n_students} students, {len(course.activity)} student-day activity rows")

# labels, in student-id order like the final grades: 1 iff the final grade
# reaches the certification threshold; a student with no row in grades.csv
# loads as grade 0
n_cert = int(course.certified.sum())
print(f"  certification threshold {meta.cert_threshold}: {n_cert} certify, "
      f"{course.n_students - n_cert} drop out")

# the first rows of each roster column, codes decoded (None is a non-response)
roster = course.roster
print(f"  student_ids: {roster.student_ids[:3]}")
print(f"  yob: {roster.yob[:3].tolist()}")
for name, levels in (("loe", LOE_LEVELS), ("gender", GENDERS), ("continent", CONTINENTS)):
    codes = getattr(roster, name)[:3].tolist()
    print(f"  {name}: {codes} = {[levels[c] if c < len(levels) else None for c in codes]}")
print(f"  took_precourse_survey: {roster.took_precourse_survey[:3].tolist()}")

# write the four CSV files and load them back; the round trip is exact
with tempfile.TemporaryDirectory() as tmp:
    paths = write_course(course, tmp)
    print("wrote", ", ".join(p.name for p in paths.values()))
    reloaded = load_course_dir(tmp)
    same_grades = np.array_equal(reloaded.final_grade, course.final_grade)
    same_columns = {
        name: np.array_equal(getattr(reloaded.roster, name), getattr(roster, name),
                             equal_nan=True)
        for name in ("yob", "loe", "gender", "continent", "took_precourse_survey")
    }
    same_columns["student_ids"] = reloaded.roster.student_ids == roster.student_ids
    print(f"reload matches original: roster columns {same_columns}, grades={same_grades}")
    assert all(same_columns.values()) and same_grades
    print("files on disk:", sorted(p.name for p in Path(tmp).iterdir()))
