"""Distribution and moments of discrete Choquet integrals of i.i.d. samples.

Core objects: games/capacities on a finite set (:mod:`.capacity`), divided
differences of truncated powers (:mod:`.divdiff`), order-statistic spacing
records (:mod:`.osmoments`), exact uniform and exponential distributions
(:mod:`.uniform`, :mod:`.exponential`), law-generic moments (:mod:`.moments`),
the normal-mixture approximation (:mod:`.asymptotic`), and a seedable Monte
Carlo oracle (:mod:`.montecarlo`).
"""
from .capacity import (CapacityCheck, CapacityFormatError, Chain, SetFunction,
                       chain_table, check_capacity, choquet, choquet_values,
                       enumerate_chains, game_from_dict, game_to_dict,
                       load_capacity, make_game, random_capacity, save_capacity)
from .divdiff import tp_minus_dd, tp_plus_dd
from .exponential import ExponentialChoquetDist, RegularityError, exp_moments
from .moments import DistributionReport, moments_report, orness, second_raw_moment
from .moments import mean as choquet_mean
from .montecarlo import MCReport, ks_statistic, sample, sample_values
from .asymptotic import (MixtureApprox, WeightFunction, alpha, beta2,
                         mixture_approx, mixture_cdf, mixture_pdf,
                         power_weight_game)
from .osmoments import (DavidJohnsonOrderStats, ExponentialOrderStats,
                        OrderStats, QuantileModel, UniformOrderStats, dj_mean,
                        dj_product, exponential_quantile_model,
                        normal_quantile_model, provider_for,
                        uniform_quantile_model)
from .uniform import UniformChoquetDist, closed_form_mean, closed_form_second_moment

__version__ = "0.1.0"
