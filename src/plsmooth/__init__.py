"""Smoothing of piecewise affine homeomorphisms of 3D simplicial complexes.

Given a finitely piecewise affine homeomorphism f of a simplicial complex,
this package constructs an explicit diffeomorphism g that agrees with f
outside an arbitrarily small neighbourhood of the simplicial skeleton,
certifies that g is a diffeomorphism, and quantifies the convergence
g -> f in W^{1,p} and rearrangement-invariant norms as the smoothing
scale lambda goes to 0.
"""

from .blend import (FaceBlend, eta, eta_prime, face_blend,
                    face_blend_jacobian, face_floor, time_profile)
from .builders import (kuhn_cube, kuhn_identity, perturbed_kuhn_map,
                       single_tet, subdivided_tet, subdivided_tet_map,
                       two_tet, two_tet_map)
from .edge import (EdgeSmoother, fan_map, ray_blends, synthetic_fan,
                   wedge_jacobian, wedge_map)
from .errors import (CertificationError, ConstructionError, ContinuityError,
                     DegenerateSimplexError, DomainError, IntersectionError,
                     InvalidInputError, NoIsotopyFound, NonInjectiveError,
                     OrientationError, ParameterError, ParseError,
                     PLSmoothError)
from .mesh import (EdgeFan, FacePair, PLMap, SimplicialComplex, VertexStar,
                   edge_fans, face_pairs, load_complex,
                   pl_map_from_vertex_images, save_document,
                   validate_pl_homeo, vertex_stars)
from .norms import (RINorm, StepFunction, linf_difference, parse_norm,
                    rearrangement, rozumny_check)
from .pipeline import (SmoothedMap, SmoothingParams, assemble, choose_params,
                       format_table, lambda_sweep)
from .vertex import (SphereIsotopy, SphereMap, VertexSmoother, degree,
                     integral_degree)

__version__ = "0.1.0"
