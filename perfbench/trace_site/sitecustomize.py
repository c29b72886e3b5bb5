"""Installs the benchmark's span recorder at interpreter start.

The benchmark puts this directory first on ``PYTHONPATH`` only for a
traced run, together with ``PERFBENCH_SPANS``; cluster nodes inherit
both, so every server process of the run records spans.
"""

import os

if os.environ.get("PERFBENCH_SPANS"):
    import benchspans

    benchspans.install(os.environ["PERFBENCH_SPANS"])
