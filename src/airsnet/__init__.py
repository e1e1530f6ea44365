"""Analysis and simulation of an amplifying-reflector aided single-cell network.

Two independent evaluation routes for the same system: closed-form/quadrature
analytics built on a mixture-Gamma channel model, and physical Monte-Carlo
simulation, cross-validated by the `validate` CLI experiment.
"""
