"""Set-up probe: time ``import ngdbf`` plus loading every config given.

Run in a fresh interpreter with ``PYTHONPATH`` at the checkout's ``src``;
prints the elapsed seconds and then one calibration kernel time.  Loading
a config parses and validates its alist, which is everything a campaign
does before its first frame.
"""

import sys
import time

started = time.perf_counter()
import ngdbf  # noqa: E402

for path in sys.argv[1:]:
    ngdbf.load_config(path)
elapsed = time.perf_counter() - started

from calibrate import kernel_seconds  # noqa: E402

kernel_seconds()    # the first run pays numpy's one-off allocations
print(repr(elapsed), repr(kernel_seconds()))
