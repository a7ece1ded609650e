"""Time one benchmark set-up in a fresh process and print it as JSON.

    python3 perfbench/setup_probe.py solve-pathloss

Set-up is importing ris_crn, building the workload's scenario and one
untimed warm-up solve on a seed outside the timed set.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

import env  # noqa: E402  (pins BLAS threads before numpy loads)

env.use_checkout_source()
from workloads import WORKLOADS, warm_up  # noqa: E402

wl = WORKLOADS[sys.argv[1]]
warm_up(wl, wl.scenario())
print('{"setup_s": %r}' % (perf_counter() - START))
