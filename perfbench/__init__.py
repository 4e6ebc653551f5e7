"""The repository's performance benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the package in ``src/`` and
prints its metrics as one JSON line.  Nothing here is imported by the
package; the benchmark only calls the package's public API from outside.
"""
