"""Set-up time of one curvecheb invocation, measured in a fresh process.

Usage: python3 setup_probe.py SRC_DIR CONFIG

Prints the seconds from the first import of numpy and curvecheb through
reading the run config and building the curve and the set descriptor.
"""

import sys
import time


def main(src, config):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (counted: every invocation pays it)
    from curvecheb.cli import RunConfig
    cfg = RunConfig.from_file(config)
    cfg.build_curve()
    cfg.build_descriptor()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(*sys.argv[1:])
