"""Geometric back-end for depth/flow/pose estimation: SE(3) machinery,
pinhole camera geometry, information-matrix confidence modelling,
training-style losses, a confidence-weighted IRLS pose solver, trajectory
evaluation, and a deterministic synthetic-scene oracle.
"""

__version__ = "0.1.0"
