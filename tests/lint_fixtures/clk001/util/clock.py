"""CLK001 negative fixture: the sanctioned adapter, outside the clocked trees."""

import time


class MonotonicClock:
    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        if seconds > 0:
            time.sleep(seconds)
