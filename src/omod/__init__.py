"""Exact computer algebra for one-dimensional formal o-modules over
equal-characteristic local fields F_q((t)), with a verification harness for
torsion towers, torsion-point valuations, level structures, the torsion
character, the determinant/norm compatibility at the multiplication-rich
specialization, and the component-group action.
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .finitefield import GF, FieldSpec, FqElement  # noqa: F401
from .quotring import OModElement, OModRing  # noqa: F401
from .series import LocalFieldElement, LocalFieldSpec, base_field  # noqa: F401
from .newton import NewtonPolygon, Segment, newton_polygon  # noqa: F401
from .additive import AdditivePolynomial  # noqa: F401
from .tower import (FieldAutomorphism, FieldTower, additive_roots_in_field,  # noqa: F401
                    apply_automorphism, embed, find_integral_roots,
                    root_uniformizer_image, unramified_extension)
from .formalmod import (FormalOModule, LevelStructure, TorsionModule,  # noqa: F401
                        bijective_level_structure, connected_height,
                        count_level_structures, kernel_rank, lubin_tate_module,
                        module_from_unit_coefficients, torsion_points)
from .lubintate import (CharacterTable, DeterminantWitness,  # noqa: F401
                        LubinTateTower, build_tower, cm_tower,
                        verify_character, verify_determinant_character,
                        verify_product_formula, verify_torsion_valuations)
from .pi0 import (Character, DivisionOrder, Pi0Action, UnitGroup,  # noqa: F401
                  all_characters, h0_decomposition, matrix_determinant,
                  pi0_action_table, reduced_norm, unit_group)
from .report import CheckResult, merge_documents, report_document  # noqa: F401
from .cache import load_tower, save_tower  # noqa: F401
