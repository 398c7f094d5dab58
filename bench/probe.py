"""Set-up probe: one fresh process that times the workload's set-up
(``import psifrac`` and, for ``kernels_warm``, the warm-up), as measured
and scaled to the reference core (``speed.py``), and prints both as JSON.

    python bench/probe.py kernels_warm
"""

import json
import sys

import speed
import workloads  # imports only the standard library


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]()
    _, measured, adjusted = speed.Speedometer().timed(workload.setup)  # psifrac first
    print(json.dumps({"setup_s": measured, "adjusted_s": adjusted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
