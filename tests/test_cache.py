"""Cache timing-model tests."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.cache import Cache


def make_cache(**kw):
    defaults = dict(size=1024, line_size=32, ways=2, hit_latency=1,
                    miss_latency=10)
    defaults.update(kw)
    return Cache(**defaults)


class TestBasics:
    def test_first_access_misses(self):
        c = make_cache()
        assert c.access(0x100) == 11
        assert c.stats.misses == 1

    def test_second_access_hits(self):
        c = make_cache()
        c.access(0x100)
        assert c.access(0x100) == 1
        assert c.stats.hits == 1

    def test_same_line_hits(self):
        c = make_cache()
        c.access(0x100)
        assert c.access(0x11C) == 1  # same 32-byte line

    def test_next_line_misses(self):
        c = make_cache()
        c.access(0x100)
        assert c.access(0x120) == 11

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache(size=1000, line_size=32, ways=3)


class TestReplacement:
    def test_lru_eviction(self):
        c = make_cache()  # 2 ways, 16 sets
        set_stride = c.num_sets * c.line_size
        a, b, d = 0, set_stride, 2 * set_stride  # same set
        c.access(a)
        c.access(b)
        c.access(a)       # a is now MRU
        c.access(d)       # evicts b (LRU)
        assert c.probe(a)
        assert not c.probe(b)
        assert c.probe(d)

    def test_invalidate(self):
        c = make_cache()
        c.access(0x40)
        c.invalidate(0x40)
        assert not c.probe(0x40)

    def test_invalidate_all(self):
        c = make_cache()
        for i in range(8):
            c.access(i * 64)
        c.invalidate_all()
        assert not any(c.probe(i * 64) for i in range(8))


class TestStats:
    def test_hit_rate(self):
        c = make_cache()
        c.access(0)
        c.access(0)
        c.access(0)
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_reset(self):
        c = make_cache()
        c.access(0)
        c.stats.reset()
        assert c.stats.accesses == 0


@given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
def test_capacity_invariant(addresses):
    """No set ever holds more tags than the associativity."""
    c = make_cache()
    for addr in addresses:
        c.access(addr)
    assert all(len(ways) <= c.ways for ways in c._sets)


@given(st.lists(st.integers(0, 0x3FF), min_size=1, max_size=100))
def test_rerun_is_deterministic(addresses):
    c1, c2 = make_cache(), make_cache()
    lat1 = [c1.access(a) for a in addresses]
    lat2 = [c2.access(a) for a in addresses]
    assert lat1 == lat2


class TestMruHit:
    """``Cache.access`` returns at once on a hit in a set's MRU way."""

    def test_mru_hit_keeps_the_lru_order(self):
        c = make_cache(ways=4, size=2048)
        set_stride = c.num_sets * c.line_size
        for k in (3, 2, 1, 0):
            c.access(k * set_stride)
        order = list(c._sets[0])
        assert c.access(8) == c.hit_latency   # line 0, the MRU way
        assert c._sets[0] == order
        assert (c.stats.hits, c.stats.misses) == (1, 4)

    def test_hit_in_another_way_moves_it_to_the_front(self):
        c = make_cache(ways=4, size=2048)
        set_stride = c.num_sets * c.line_size
        for k in (3, 2, 1, 0):
            c.access(k * set_stride)
        assert c.access(2 * set_stride) == c.hit_latency
        assert c._sets[0] == [2, 0, 1, 3]


def _lru_reference(cache, addresses):
    """Plain LRU: every hit moves its tag to the front of the set."""
    sets = [[] for _ in range(cache.num_sets)]
    latencies = []
    hits = misses = 0
    for addr in addresses:
        line = addr // cache.line_size
        ways = sets[line % cache.num_sets]
        tag = line // cache.num_sets
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            hits += 1
            latencies.append(cache.hit_latency)
        else:
            ways.insert(0, tag)
            del ways[cache.ways:]
            misses += 1
            latencies.append(cache.hit_latency + cache.miss_latency)
    return latencies, hits, misses, sets


@given(st.lists(st.integers(0, 0x7FF), min_size=1, max_size=200),
       st.sampled_from((1, 2, 4)))
def test_access_matches_plain_lru(addresses, ways):
    """Latencies, counts and every set's order agree with plain LRU.
    Each set sees four tags, so hits in the MRU way, hits in other ways
    and evictions all occur."""
    c = make_cache(ways=ways)
    latencies = [c.access(a) for a in addresses]
    expected = _lru_reference(make_cache(ways=ways), addresses)
    assert (latencies, c.stats.hits, c.stats.misses, c._sets) == expected
