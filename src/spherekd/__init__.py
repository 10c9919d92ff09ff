"""spherekd: teacher-student distillation on hypersphere embeddings.

A small, fully deterministic toolkit: a float64 autodiff engine, staged
convolutional teacher/student networks, direction-matching distillation
losses with an exact-match baseline, and open-set verification /
identification benchmarks on synthetic identity data.
"""

__version__ = "0.1.0"
