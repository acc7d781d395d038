"""Residual intersections, Fitting ideals, and Koszul-homology computations
on polynomial ideals over exact fields.

The package exports only `__version__`; the kernel is imported from its
modules (`residua.ideals`, `residua.residual`, ...).  Importing the package
loads every kernel module, so a tool that wraps their functions (such as
perfbench's tracer) finds them all loaded.  `residua.cli` is left out:
`python -m residua.cli` runs it as `__main__`, and a copy already imported
by the package would be run a second time."""

__version__ = "0.1.0"

from . import corpus, field, fitting, groebner, ideals, instances, koszul, residual, ring
