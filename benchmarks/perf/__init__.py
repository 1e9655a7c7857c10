"""One benchmark for the whole stack (see README.md in this directory).

``BENCHMARK.json`` at the repository root is the contract: workload and
metric names, units and regression bounds live there and nowhere else.
``run.py`` measures one workload once and prints one JSON result line;
``python -m benchmarks.perf`` runs all of them, compares two result sets,
or calibrates the run-to-run spread.  Nothing under ``src/`` knows this
package exists: every layer is measured from outside, by timing calls
into its public functions and by reading the artifacts a run leaves.
"""
