"""Census tools for Gaussian two-mode states.

Covariance-matrix standard forms, separability and classicality
verdicts, prior measures (information-metric weights and monotone
volume elements from discretized kernels), Gaussian fidelities with the
finite-difference Bures metric, and deterministic weighted Monte Carlo
drivers over all of it.
"""
