"""
Function-preserving network growth
==================================

net2wider replicates hidden units (splitting their outgoing weights) and
net2deeper inserts an identity layer, so the grown network computes the
same function as its teacher before any further training. grow_and_train
chains the two into a width sweep followed by a depth sweep, warm-starting
every cell from the previous one.
"""

import datetime

import numpy as np

from dropoutlab.dataset import SynthConfig, synthesize_course
from dropoutlab.deepnet import (
    forward,
    grow_and_train,
    init_mlp,
    net2deeper,
    net2wider,
    train_sgd,
)
from dropoutlab.features import build_matrix, holdout_split, normalize
from dropoutlab.settings import GrowthPlan, SgdConfig

# start with a trained 3-unit network on synthetic course features
course = synthesize_course(SynthConfig(course_id="GROWx", n_students=240), seed=9)
m = build_matrix(course, course.meta.t100_date - datetime.timedelta(days=7))
z = normalize(m, [m], "zscore")[1][0]
y = course.certified  # in student-id order, the row order of z
teacher = train_sgd(init_mlp(66, [3], seed=0), z.values, y, SgdConfig(epochs=5, seed=0))

# widen 3 -> 8: outputs match the teacher to floating-point noise
wider = net2wider(teacher, 0, 8, seed=1)
dev_w = np.max(np.abs(forward(wider, z.values) - forward(teacher, z.values)))
print(f"net2wider 3 -> 8 units: max output deviation {dev_w:.2e}")

# deepen by one identity layer: outputs match exactly
deeper = net2deeper(teacher, 0)
dev_d = np.max(np.abs(forward(deeper, z.values) - forward(teacher, z.values)))
print(f"net2deeper 1 -> 2 hidden layers: max output deviation {dev_d:.2e}")

# a compact sweep: widths 2..6, then depths 2..4 at fixed width 4, on the
# held-out split grow uses (half the students tested, z-scored on the rest);
# every row records the seed that makes the cell re-runnable in isolation
_, train, y_train, test, y_test = holdout_split(m, y, 0.5, 0, "zscore")
plan = GrowthPlan(width_from=2, width_to=6, depth_from=2, depth_to=4, fixed_width=4)
report = grow_and_train(train.values, y_train, test.values, y_test,
                        plan, SgdConfig(epochs=10, seed=0))

print("\nphase     w  h    auc     accuracy")
for row in report.rows:
    print(f"{row.phase:9s}{row.w:2d} {row.h:2d}  {row.auc:.4f}  {row.accuracy:.4f}")

best = report.best()
print(f"\nbest cell: phase={best.phase} w={best.w} h={best.h} auc={best.auc:.4f}")

# on this synthetic course the signal is close to linear, so the 0-hidden
# baseline is hard to beat; depth pays off on genuinely non-linear targets
# (the test suite demonstrates this with XOR, where the hyperplane tops out
# at chance and one hidden layer reaches perfect accuracy)
print("note: near-linear synthetic signal favors the 0-hidden baseline")

