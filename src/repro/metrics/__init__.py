"""Instrumentation: counters, busy-time accounting, report tables."""

from .counters import IntervalStats, MetricSet
from .histogram import LogHistogram, exact_percentile
from .machinereport import machine_report
from .report import format_percent, format_ratio, format_table

__all__ = [
    "IntervalStats",
    "LogHistogram",
    "MetricSet",
    "exact_percentile",
    "format_percent",
    "format_ratio",
    "format_table",
    "machine_report",
]
