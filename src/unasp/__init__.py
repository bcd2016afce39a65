"""Answer set solving for weighted rules over sub-intervals of [0,1]."""

from .intervals import (INCONSISTENT, EPS_CMP, Interval, OrderFamily,
                        Ordering, compare, kagg, naf, negate, tconorm, tnorm)
from .program import (Atom, ConstItem, GroundingCapExceeded, LitItem, Literal,
                      ParseError, Program, Rule, ground, parse_program)
from .transform import simplify, substitute, transform_program
from .semantics import (UnboundLiteral, is_answer_set, is_supported_model,
                        totals_from_positive)
from .mi import MiState, mi_fixpoint
from .depgraph import (AnalysisOverflow, NoValidAssumptionSet,
                       enumerate_cycles, intersection_table, owned_cycles,
                       scc_condense, select_assumption_set)
from .nmi import (ContractionReport, GainVector, NmiConfig, NmiOutcome,
                  branch_and_bound, check_contraction, cycle_gain,
                  nmi_iterate, solve_kagg_cycle)
from .solver import SolveReport, SolverConfig, solve

__version__ = "0.1.0"
