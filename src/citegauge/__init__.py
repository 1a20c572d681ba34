"""citegauge: citation forecasting and bibliometrics toolkit."""

from .corpus import Cohort, PaperRecord, Source, filter_cohort, load_corpus, write_corpus
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
