"""Publication-grade analysis pipeline.

Machine-readable results, end to end:

* :mod:`repro.analysis.records` - tidy record tables built from
  generator outputs, cached :class:`StrategyRunResult`\\ s, sweep
  journals and telemetry JSONL;
* :mod:`repro.analysis.registry` - the figure/table registry behind
  ``repro figures`` and the benchmark suite, rendering each artifact
  through txt / BENCH JSON / CSV backends;
* :mod:`repro.analysis.bench` - the ``BENCH_<name>.json`` schema every
  benchmark emits next to its ``results/<name>.txt``;
* :mod:`repro.analysis.compare` - the regression gate
  (``repro analysis compare OLD NEW --tolerance F``) CI runs against
  the committed baselines under ``results/baselines/``.
"""

from repro.analysis.bench import (
    BENCH_PREFIX,
    BENCH_SCHEMA_VERSION,
    BenchFormatError,
    bench_path,
    bench_payload,
    feature_metrics,
    load_bench_dir,
    load_bench_json,
    sweep_metrics,
    write_bench_json,
    write_result_txt,
)
from repro.analysis.compare import (
    DEFAULT_TOLERANCE,
    ComparisonReport,
    MetricDelta,
    compare_dirs,
    render_comparison,
)
from repro.analysis.records import (
    RecordError,
    RecordTable,
    feature_records,
    fig1_records,
    fig9_records,
    journal_records,
    result_record,
    sweep_records,
    table1_records,
    table2_records,
    telemetry_records,
)
# Registry symbols resolve lazily (PEP 562): the registry imports the
# text renderers (repro.experiments.reporting), which themselves build
# rows through repro.analysis.records - importing the registry eagerly
# here would make that a circular import.
_REGISTRY_EXPORTS = (
    "FORMATS",
    "REGISTRY",
    "FigureSpec",
    "GeneratedFigure",
    "GenOptions",
    "UnknownFigureError",
    "figure_names",
    "generate_figure",
    "generate_figures",
    "get_spec",
    "write_figure",
)


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from repro.analysis import registry

        return getattr(registry, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "BENCH_PREFIX",
    "BENCH_SCHEMA_VERSION",
    "BenchFormatError",
    "ComparisonReport",
    "DEFAULT_TOLERANCE",
    "FORMATS",
    "FigureSpec",
    "GenOptions",
    "GeneratedFigure",
    "MetricDelta",
    "REGISTRY",
    "RecordError",
    "RecordTable",
    "UnknownFigureError",
    "bench_path",
    "bench_payload",
    "compare_dirs",
    "feature_metrics",
    "feature_records",
    "fig1_records",
    "fig9_records",
    "figure_names",
    "generate_figure",
    "generate_figures",
    "get_spec",
    "journal_records",
    "load_bench_dir",
    "load_bench_json",
    "render_comparison",
    "result_record",
    "sweep_metrics",
    "sweep_records",
    "table1_records",
    "table2_records",
    "telemetry_records",
    "write_bench_json",
    "write_figure",
    "write_result_txt",
]
