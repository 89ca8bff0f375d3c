"""Exact combinatorics of Heegaard diagrams.

The package computes, in exact rational arithmetic, the index quantities
attached to a domain between two generators of a Heegaard diagram (Euler
measure, point multiplicities, Maslov index, embedded Euler characteristic)
and carries out the associated surface constructions as deterministic
cell-complex surgery.  Each name lives in its submodule; importing one
loads only what that module imports.
"""

__version__ = "0.1.0"
