"""Radial solver and certificate checker for the 1-Laplacian boundary value
problem with a gradient absorption term that blows up as the state reaches 1.

The package splits into closed-form machinery (`oracle`, `geometry`,
`scalar`), the p-regularized continuation solver (`solver`), the clause
verifier (`verify`), and serialization plus a CLI (`io`, `cli`).  Names are
imported from those submodules; the package itself holds only the version.
"""

__version__ = "0.1.0"
