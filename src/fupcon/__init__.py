"""Exact verification toolkit for products of pairwise coprime solenoids.

Everything is computed over the rationals: torus geometry (segment sets,
preimages, components), piecewise-linear loop lifts, hitting certificates
for preimage fibers, winding repair by loop concatenation, and nested
connected neighborhood towers with an explicit epsilon bound.  Import from
the modules (fupcon.torus, fupcon.lifting, fupcon.hitting, ...); the
package root holds no re-exports.
"""

__version__ = "0.1.0"
