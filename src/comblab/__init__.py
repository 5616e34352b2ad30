"""Online learning over combinatorial decision sets.

Exact Hedge and mirror-descent learners over m-sets, multitask products,
and s-t path sets of DAGs, together with the hard-instance constructions
that separate them and a reproducible experiment harness.
"""

from .adversaries import (ConstantStream, DagLayeredStream, GaussianFeasibleStream,
                          HedgeKillerStream, MSetLbStream, MultitaskPhaseStream,
                          ShatteredSet, UniversalStream, bad_set_mass,
                          dag_hard_instance, dk_sample, find_shattered_set,
                          hedge_killer_base_rate, layered_dag,
                          universal_shattering_size)
from .domain import (Dag, DagPathSet, DecisionSet, ExplicitSet, LossCheck, MSet,
                     MultitaskSet, flow_check, load_dag, mset_selection_dag,
                     primal_norm_bruteforce)
from .errors import (CapExceeded, ComblabError, DegenerateVertex, DomainError,
                     InternalConsistencyError, PreconditionError,
                     ShatteringNotFound, SolverFailure, ValidationError)
from .harness import (EquivalenceReport, ExperimentConfig, ExperimentResult,
                      RegretLedger, build_adversary, build_learner, build_set,
                      check_iterate_equivalence, csv_text, lb_demo,
                      parse_config, run_experiment)
from .learners import (DilatedOmd, EntropyDagOmd, ExplicitHedge, Learner,
                       MSetOmd, PathHedge, dag_entropy_rate,
                       default_learning_rate, make_hedge, mset_omd_rate,
                       shift_losses, weight_pushing_marginals)
from .properties import PropertyResult, run_property_suite
from .proximal import flow_prox_newton, mset_prox, sinkhorn_flow_projection
from .regularizers import (DilatedEntropy, MSetRegularizer, NegativeEntropy,
                           Regularizer, path_entropy_sum, uniform_path_flow)
from .sampling import RngStream, sample_explicit, sample_mset, sample_path

__version__ = "0.1.0"
