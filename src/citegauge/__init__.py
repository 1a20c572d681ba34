"""citegauge: citation forecasting and bibliometrics toolkit.

A ``Cohort`` keeps its venues as ``venue_codes`` (one int32 code per
paper) into ``venue_names``; it has no per-paper ``venues`` tuple, and
neither has ``triage.Ranking``.  ``boxplot_aggregate`` takes group codes
and one label per code.  ``PaperRecord.citations_in``,
``CorrelationTable.at``, ``NominationLedger.replay`` and its ``events``
list are gone; a ``NominationLedger`` needs its file path,
``percentile_transform`` its ``future_year`` and ``ApiClient`` its
``ClientConfig``, which no longer has ``retry_cap`` or ``backoff_base``
(``ingest.RETRY_CAP`` and ``ingest.BACKOFF_BASE``).
"""

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
