"""CLI launcher: runs ``psifrac.cli.main`` on the remaining arguments in this
fresh process, timing the core-speed slice at its start and end and, from a
timer, in between (``speed.py``); with ``--trace`` it installs the outside
tracer instead of the timer.  The samples, and the tracer's state, go to
the JSON file named first.

    python bench/launch.py OUT.json [--trace] eval derivative --f "exp(t)" --t 1.0
"""

import contextlib
import json
import sys
from pathlib import Path

import speed


def main() -> int:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    trace = args[:1] == ["--trace"]
    args = args[1:] if trace else args
    meter = speed.Speedometer()
    meter.sample()
    state = None
    try:
        with contextlib.nullcontext() if trace else meter.ticking():
            import psifrac.cli

            if trace:
                from tracer import Tracer

                # spans of the whole process: psifrac's submodules are loaded by now
                tracer = Tracer(keep=5_000).install()
                try:
                    code = psifrac.cli.main(args)
                finally:
                    tracer.uninstall()
                    state = tracer.state()
            else:
                code = psifrac.cli.main(args)
    finally:
        meter.sample()
        out.write_text(json.dumps({"times": meter.times, "slices": meter.slices,
                                   "ticked_s": meter.ticked_s, "trace": state}))
    return code


if __name__ == "__main__":
    sys.exit(main())
