"""Semiring completion toolkit: decide when a semiring can be ordered, model
infinite sums over cardinal-multiplicity families, and build the finitary
completion of a finite ordered semiring."""

from .cardinal import (ALEPH0, Cardinal, CardinalFamily, CharacteristicCardinality,
                       FIN0, FIN1, OmegaSequence, SigmaSemiring, UNCOUNTABLE,
                       characteristic_cardinality, check_sigma_axioms, fin,
                       finite_subsums, is_d_complete, is_finitary,
                       sup_in_order)
from .completion import (CompletionResult, CongruenceVerdict, collapse_holds,
                         completion_of_finite, lesssim,
                         no_universal_complete_demo, sim_verdict,
                         universal_property_check)
from .core import (CheckReport, FiniteSemiring, PartialOrder, QuasiOrder,
                   check_ordered_semiring, check_semiring_axioms,
                   enumerate_semirings, is_orderable, is_zero_sum_free,
                   natural_quasiorder, random_semiring,
                   search_compatible_order, semiring_from_json)
from .gallery import (NInfElement, OmegaMinusElement, adjoin_infinity, boolean,
                      four_valued, gallery_semiring, language_semiring,
                      nat_infinity, omega_plus_reverse, powerset_semiring,
                      three_valued)
from .series import (Polynomial, TruncatedSeries, embed_e, enumerate_below,
                     evaluate_phi, poly_from_text, poly_to_text)

__all__ = [name for name in dir() if not name.startswith("_")]
