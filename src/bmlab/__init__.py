"""bmlab: a desk-scale laboratory for Brownian-map geometry.

Samplers for excursion-driven metric spaces and random quadrangulations,
stable branching-process machinery, a free-field grid metric, and geodesic
analytics (exact geodesic counts, network signatures, star censuses,
covering slopes, confluence tables) over any of them.
"""

__version__ = "0.1.0"

from .csbp import (CsbpPath, LevyPath, MergePPP, lamperti_csbp_to_levy,
                   lamperti_levy_to_csbp, sample_csbp, sample_levy,
                   sample_merge_ppp, survival_prob, u_t)
from .gaussian import (BrownianSnakeSample, sample_excursion,
                       sample_snake_labels)
from .geodesics import (GeodesicPath, StarReport, classify_network,
                        coalescence_point, enumerate_geodesics,
                        extract_geodesic, frame_box_dimension,
                        hausdorff_distance, star_census,
                        strong_confluence_statistic)
from .gff import (DEFAULT_GAMMA, GffField, geodesic_overlay, path_length,
                  sample_dgff)
from .paths import GridPath
from .planar_map import (LabeledPlaneTree, Quadrangulation, bfs_metric,
                         boundary_length_process, calibrate_scaling,
                         cvs_construct, sample_labeled_tree)
from .rng import RngStream
from .snake_map import DiscreteBrownianMap, d_circ, quotient_metric, snake_space
from .spaces import GraphSpace, space_from_field
