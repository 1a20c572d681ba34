"""citegauge: citation forecasting and bibliometrics toolkit.

Load a corpus's publication-year ``Cohort`` in one pass (``load_cohort``)
and write a corpus (``write_corpus``); summarise a cohort by venue or
early-citation threshold (``group_by_venue``, ``group_by_early_threshold``,
``h_index``, ``year_correlation_matrix``); fit and explain the percentile
model (``percentile_transform``, ``build_design_matrix``, ``fit_ols``,
``anova_decompose``, ``boxplot_aggregate``); rank papers for triage
(``ddi_rank``, ``rule_of_thumb``) and keep the ``NominationLedger``.
"""

from .corpus import Cohort, PaperRecord, Source, load_cohort, write_corpus
from .metrics import (
    DEGENERATE,
    GroupStats,
    group_by_early_threshold,
    group_by_venue,
    h_index,
    year_correlation_matrix,
)
from .model import (
    FittedModel,
    anova_decompose,
    boxplot_aggregate,
    build_design_matrix,
    clip_early,
    fit_ols,
    percentile_transform,
)
from .triage import NominationLedger, ddi_rank, rule_of_thumb

__version__ = "0.1.0"
