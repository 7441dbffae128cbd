"""
Synthesizing a course and round-tripping it through CSV
=======================================================

A course is four tables: metadata, a demographic roster, per-day
clickstream activity, and final grades. The generator produces all four
from a seed, so every downstream result is reproducible.
"""

import tempfile
from pathlib import Path

from dropoutlab.dataset import (
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

# labels, in student-id order: 1 iff the final grade reaches the
# certification threshold; a student with no grade row counts as grade 0
n_cert = int(course.certified.sum())
print(f"  certification threshold {meta.cert_threshold}: {n_cert} certify, "
      f"{course.n_students - n_cert} drop out")

# a few roster rows to show the demographic fields (any of them may be null)
for s in course.students[:3]:
    print(f"  {s.student_id}: yob={s.yob} loe={s.loe} gender={s.gender} "
          f"continent={s.continent} survey={s.took_precourse_survey}")

# write the four CSV files and load them back; the round trip is exact
with tempfile.TemporaryDirectory() as tmp:
    paths = write_course(course, tmp)
    print("wrote", ", ".join(p.name for p in paths.values()))
    reloaded = load_course_dir(tmp)
    same_grades = reloaded.final_grade == course.final_grade
    same_roster = reloaded.students == course.students
    print(f"reload matches original: roster={same_roster} grades={same_grades}")
    print("files on disk:", sorted(p.name for p in Path(tmp).iterdir()))
