"""Spot-price traces: data structures, synthetic generation, IO, statistics.

The paper seeds its simulations with Amazon's published spot-price history
for four markets (small/medium/large/xlarge) in four availability zones
(us-east-1a, us-east-1b, us-west-1a, eu-west-1a). We reproduce that input as
a calibrated regime-switching price process (see
:mod:`repro.traces.generator` and :mod:`repro.traces.calibration`) and also
support loading real traces in the AWS ``DescribeSpotPriceHistory`` CSV
format (:mod:`repro.traces.loader`).
"""

from repro.traces.trace import PriceTrace
from repro.traces.compiled import CompiledTrace
from repro.traces.calibration import (
    MarketCalibration,
    SpikeModel,
    calibration_for,
    DEFAULT_CALIBRATIONS,
)
from repro.traces.generator import TraceGenerator, generate_trace
from repro.traces.catalog import TraceCatalog, MarketKey, build_catalog
from repro.traces.loader import load_aws_csv, save_aws_csv, iter_aws_rows, roundtrip_equal
from repro.traces.ingest import (
    IngestReport,
    ingest_archive,
    load_segment_catalog,
    read_segment,
    write_segment,
    write_segment_catalog,
)
from repro.traces.refit import (
    fit_catalog,
    fit_market,
    load_calibrations,
    save_calibrations,
)
from repro.traces.validation import validate_trace, ValidationReport, ValidationCheck
from repro.traces.statistics import (
    trace_correlation,
    correlation_matrix,
    mean_pairwise_correlation,
    price_std,
    time_above_fraction,
    summarize_trace,
)

__all__ = [
    "PriceTrace",
    "CompiledTrace",
    "MarketCalibration",
    "SpikeModel",
    "calibration_for",
    "DEFAULT_CALIBRATIONS",
    "TraceGenerator",
    "generate_trace",
    "TraceCatalog",
    "MarketKey",
    "build_catalog",
    "load_aws_csv",
    "save_aws_csv",
    "iter_aws_rows",
    "roundtrip_equal",
    "IngestReport",
    "ingest_archive",
    "load_segment_catalog",
    "read_segment",
    "write_segment",
    "write_segment_catalog",
    "fit_catalog",
    "fit_market",
    "load_calibrations",
    "save_calibrations",
    "trace_correlation",
    "correlation_matrix",
    "mean_pairwise_correlation",
    "price_std",
    "time_above_fraction",
    "summarize_trace",
    "validate_trace",
    "ValidationReport",
    "ValidationCheck",
]
