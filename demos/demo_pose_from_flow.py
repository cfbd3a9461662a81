"""
Camera pose from dense optical flow
===================================

Renders a synthetic scene with known motion, then recovers the motion
from the depth map and flow field with the IRLS Gauss-Newton solver.
"""

import numpy as np

from flowpose import solver, synthetic

true_xi = np.array([0.03, -0.01, 0.02, 0.004, -0.006, 0.01])
spec = synthetic.SceneSpec(
    width=96, height=72,
    motion=true_xi,
    depth_model=synthetic.PlaneDepth(normal=(0.1, -0.05, 1.0), offset=2.0),
    seed=7)
scene = synthetic.render(spec)

print("valid pixels:", int(scene.flow_field.valid.sum()))
print("mean |flow| in pixels:",
      float(np.abs(scene.flow_field.flow[scene.flow_field.valid]).mean()))

result = solver.solve(scene.depth, scene.flow_field, spec.intrinsics)
print("true xi:     ", true_xi)
print("estimated xi:", result.xi)
print("error:", np.linalg.norm(result.xi - true_xi))
print("converged in", result.iterations, "iterations")

# residuals at the solution are numerically zero on noiseless data
print("final weighted cost:", result.reports[-1].weighted_cost)
