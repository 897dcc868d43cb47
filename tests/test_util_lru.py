"""``repro.util.lru.WeightedLRU``: weight bound, recency, racing puts."""

from repro.util.lru import WeightedLRU


class TestWeightedLRU:
    def test_get_counts_hits_and_misses(self):
        table = WeightedLRU(max_weight=10)
        assert table.get("a") is None
        assert table.put("a", "A", 3) == "A"
        assert table.get("a") == "A"
        assert (table.hits, table.misses, len(table), table.weight) == (1, 1, 1, 3)

    def test_evicts_least_recently_used_down_to_the_bound(self):
        table = WeightedLRU(max_weight=10)
        for key in "abc":
            table.put(key, key.upper(), 4)  # a is evicted by c
        assert table.get("a") is None
        assert table.get("b") == "B"  # b is now more recent than c
        table.put("d", "D", 4)
        assert table.get("c") is None
        assert (table.get("b"), table.get("d")) == ("B", "D")
        assert table.weight == 8

    def test_first_put_wins_and_is_returned_to_the_loser(self):
        table = WeightedLRU(max_weight=10)
        first, second = object(), object()
        assert table.put("k", first, 2) is first
        assert table.put("k", second, 5) is first
        assert table.weight == 2

    def test_an_overweight_entry_is_still_cached_alone(self):
        table = WeightedLRU(max_weight=10)
        table.put("small", 1, 1)
        table.put("huge", 2, 50)
        assert table.get("huge") == 2 and len(table) == 1
        table.put("next", 3, 1)
        assert table.get("huge") is None and table.weight == 1
