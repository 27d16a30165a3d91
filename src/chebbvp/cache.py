"""The solver's one cache: factorizations, bases and endpoint rows, bounded by bytes.

Each kind's build function is wrapped by ``memoize`` and keyed by its arguments, which give an entry's
bytes before it is built.  A miss evicts the least recently used entries of every kind while they, the
new entry and the entries still being built exceed ``CACHE_BYTES``, then builds outside the lock.  The
entry just built is never evicted, and neither is an entry used inside a ``hold()`` block still open on
any thread: a solve holds its working set, so one larger than the bound is kept whole until the next
miss after the solve, and a warm re-solve hits all of it.  Two threads that miss on one key both build
it, equal bit for bit, and return the first one stored.
"""

import threading
from collections import OrderedDict, namedtuple
from contextlib import contextmanager
from functools import update_wrapper

# Sized by counting each kind's builds over every `chebbvp tables` run, `solve --time` on tables 1a, 1c, 1d, 1e
# and 3, and four seed-1 cold_layers benchmark decks, at 8 to 32 MiB.  Apart from the decks' clears, no run
# builds a factorization or basis twice at any of them; table 1e, whose largest solve holds 28 MB, rebuilds
# endpoint rows below 19.4 MiB, and every other run peaks below 5.3 MB.  The cold decks fill any bound.
CACHE_BYTES = 24 << 20

CacheInfo = namedtuple("CacheInfo", "hits misses currsize nbytes")

_entries: OrderedDict = OrderedDict()  # (kind, key) -> (value, nbytes), least recently used first
_lock = threading.Lock()
_kinds: list = []
_total = 0  # bytes of the entries
_building = 0  # bytes of the entries being built: stores made meanwhile, by a basis build too, leave them room
_held: dict = {}  # thread id -> the entries its open hold() block has used


def _evict(room: int) -> None:
    global _total
    excess, victims = _total + _building + room - CACHE_BYTES, []
    held = set().union(*_held.values()) if excess > 0 else ()
    for slot, (_, nbytes) in _entries.items():
        if excess <= 0:
            break
        if slot not in held:
            victims.append(slot)
            excess -= nbytes
    for slot in victims:
        _total -= _entries.pop(slot)[1]


def _use(slot, value):
    """value, stored at slot, now the most recently used entry and held by this thread's open block."""
    _entries.move_to_end(slot)
    used = _held.get(threading.get_ident())
    if used is not None:
        used.append(slot)
    return value


@contextmanager
def hold():
    """Keep every entry this thread uses inside the block from eviction until the outermost block ends."""
    me = threading.get_ident()
    if me in _held:
        yield
        return
    with _lock:
        _held[me] = []
    try:
        yield
    finally:
        with _lock:
            del _held[me]


class _Kind:
    """build(*key) memoized in the cache, with its own hit and miss counts."""

    def __init__(self, build, nbytes):
        update_wrapper(self, build)
        self._build, self._nbytes = build, nbytes
        self.hits = self.misses = 0
        _kinds.append(self)

    def __call__(self, *key):
        global _building, _total
        slot = (self, key)
        with _lock:
            entry = _entries.get(slot)
            if entry is not None:
                self.hits += 1
                return _use(slot, entry[0])
            self.misses += 1
            nbytes = self._nbytes(*key)
            _evict(nbytes)  # a large entry is built without the ones it displaces alive
            _building += nbytes
        try:
            value = self._build(*key)
        finally:
            with _lock:
                _building -= nbytes
        with _lock:
            if slot not in _entries:
                _evict(nbytes)  # other builds may have stored entries meanwhile
                _entries[slot] = (value, nbytes)
                _total += nbytes
            return _use(slot, _entries[slot][0])

    def cache_info(self) -> CacheInfo:
        with _lock:
            sizes = [nbytes for (kind, _), (_, nbytes) in _entries.items() if kind is self]
            return CacheInfo(self.hits, self.misses, len(sizes), sum(sizes))

    def cache_clear(self) -> None:
        global _total
        with _lock:
            for slot in [slot for slot in _entries if slot[0] is self]:
                _total -= _entries.pop(slot)[1]
            self.hits = self.misses = 0


def memoize(nbytes):
    """Keep build(*key) in the cache as an entry of nbytes(*key) bytes."""
    return lambda build: _Kind(build, nbytes)


def clear() -> None:
    """Empty the solver's cache and reset its counts: results hold none of its entries, so their memory
    is freed, and the next solve rebuilds what it needs with unchanged results."""
    for kind in _kinds:
        kind.cache_clear()
