"""The benchmark's workloads: which verb each runs and the config it builds.

Every value here is a `--set` override of the program's config; the seed of
a run is added by the worker. Keep this module free of imports so that
run.py can read it without loading the program.
"""

# Warm-up before any timing: a one-step `compare` at the default architecture
# on a tiny dataset, so that every code path and array shape of a training
# step and of evaluation has run once.
WARMUP = [
    "data.num_train_classes=4",
    "data.num_test_classes=2",
    "data.samples_per_class=8",
    "data.num_distractors=4",
    "data.pairs_per_side=10",
    "data.folds=2",
    "train.teacher_epochs=1",
    "train.student_epochs=1",
]

WORKLOADS = {
    # `compare --seeds <seed> --parallel 1` at the default architecture and
    # data, two epochs per network: training dominates, evaluation is small.
    "compare-seed": {
        "verb": "compare",
        "overrides": [
            "train.teacher_epochs=2",
            "train.student_epochs=2",
            "data.num_distractors=500",
        ],
    },
    # `evaluate` of one teacher and one student checkpoint against 20,000
    # distractors: data, protocols and eval-mode forward passes dominate and
    # no training step runs. The checkpoints are trained for one epoch each
    # during set-up, on the default data.
    "openset-gallery": {
        "verb": "evaluate",
        "setup": [
            "train.teacher_epochs=1",
            "train.student_epochs=1",
            "distill.kind=none",
        ],
        "overrides": ["data.num_distractors=20000"],
    },
}
