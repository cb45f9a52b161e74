"""Monte Carlo engine for path-dependent functionals of diffusions.

Builds locally consistent Markov chain approximations of SDE models, runs
reproducible Monte Carlo over their piecewise-constant sample paths, and
evaluates functionals of exit times, projections and running maxima --
discretely monitored barrier options being the flagship application.
Includes executable diagnostics for the conditions under which such
estimates converge, and harnesses for the classical counter-examples where
they do not.
"""

from .errors import (ConfigError, EstimationError, EvaluationError,
                     PathfuncError, PreconditionError, SimulationError)
from .estimator import (ConvergenceReport, Estimate, UiReport,
                        convergence_study, counterexample_bessel,
                        counterexample_strong, counterexample_tangency,
                        estimate, ui_diagnostic)
from .functionals import (FunctionalSpec, constant_payoff,
                          custom_terminal, discontinuity_mass_estimate,
                          discrete_barrier_call, evaluate, observe_args_batch,
                          payoff_values, up_and_in_call)
from .models import SdeModel, gbm, inverse_bessel3, stoch_vol
from .paths import (BarrierPair, SampleVector, StepPath, classify_c_partition,
                    hitting_time)
from .schemes import (RngStream, SchemeConfig, binomial_variable_step,
                      check_local_consistency, simulate_path)
from .skorohod import (TimeChange, skorohod_distance_approx,
                       skorohod_distance_with_time_change)

__version__ = "0.1.0"
