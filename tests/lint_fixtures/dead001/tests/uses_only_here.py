"""Tests do not count as references."""

from repro.mod import only_in_tests, oracle, unreferenced_function

only_in_tests()
oracle()
unreferenced_function()
