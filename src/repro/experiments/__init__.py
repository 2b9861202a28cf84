"""Experiment harness: regenerate every table and figure of the paper.

Each ``figN``/``tableN`` module produces a result object with a
``render()`` method (plain-text figure/table) plus typed accessors the
test- and benchmark-suites assert against.  See DESIGN.md §4 for the
experiment index.
"""

from repro.experiments.fig1 import Fig1Result, run_fig1
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig4 import Fig4Result, run_fig4
from repro.experiments.fig5 import Fig5Result, run_fig5, top_region
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.fig8 import Fig8Result, run_fig8
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.serialization import run_result_to_dict, run_result_to_json
from repro.experiments.runner import (
    run_policies,
    run_standalone,
    run_workload,
)
from repro.experiments.sweep import ConfigSweepResult, sweep_configurations
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.tables12 import (
    Table1Result,
    Table2Result,
    run_table1,
    run_table2,
)

__all__ = [
    "Fig1Result",
    "run_fig1",
    "Fig2Result",
    "run_fig2",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "top_region",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    "EXPERIMENTS",
    "Experiment",
    "list_experiments",
    "run_experiment",
    "run_result_to_dict",
    "run_result_to_json",
    "run_policies",
    "run_standalone",
    "run_workload",
    "ConfigSweepResult",
    "sweep_configurations",
    "Table3Result",
    "run_table3",
    "Table1Result",
    "Table2Result",
    "run_table1",
    "run_table2",
]
