"""CLK001 positive fixture: a clock adapter inside a clocked tree.

A module named ``clock.py`` under ``serve/`` gets no exemption: the one
sanctioned adapter lives in ``util/``, outside every clocked tree.
"""

import time


class MonotonicClock:
    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        if seconds > 0:
            time.sleep(seconds)
