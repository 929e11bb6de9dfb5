"""Numerical laboratory for a singularly perturbed eikonal functional.

Minimizes eps*|hess u| + (1/eps)(1-|grad u|^2)^2 over extended
ellipse/stadium domains with the collar pinned to the signed distance,
and verifies at desk scale: convergence of minimizers to the distance
function, the defect-energy limit, concentration and sign structure of
entropy production, explicit minimal kinetic densities, and the
characteristic (Lagrangian) representation of the limit field.
"""

from . import energy, entropy, errors, fields, geometry, kinetic, lagrangian

__all__ = ["energy", "entropy", "errors", "fields", "geometry", "kinetic", "lagrangian"]
__version__ = "0.1.0"
