"""A benchmark is program code: what it calls is reachable."""

from repro.mod import used_by_benchmark

used_by_benchmark()
