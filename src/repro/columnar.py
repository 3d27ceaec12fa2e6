"""Columnar surrogate sets: chunked bitsets over the surrogate ordinal
space, plus the copy-on-write object-state table behind O(1) snapshots.

The paper's storage design partitions a class's instances into
precomputed structures so the run-time search is *set algebra over
partitions*, not per-row interpretation.  This module supplies the
machinery for that on the read path:

:class:`SurrogateSet`
    The store's extents and every index posting list
    (:mod:`repro.query.indexes`) are sets of surrogates.  Surrogate ids
    are allocated densely from 1 (:class:`~repro.objects.surrogate.
    SurrogateAllocator`), so the id *is* the ordinal: bit ``i`` of the
    bitset means ``Surrogate(i)`` is a member.  Bits live in chunks of
    :data:`CHUNK_BITS`, each chunk one arbitrary-precision ``int`` used
    as a bitmask -- Python evaluates ``&``/``|``/``& ~`` over those in C,
    64 bits per machine word, so intersecting a posting list with an
    extent is a handful of word-vector operations instead of a hash
    probe per element.  Chunk ints are immutable, which makes chunk-level
    copy-on-write automatic: :meth:`SurrogateSet.copy` copies only the
    chunk *table* (one dict entry per ~:data:`CHUNK_BITS` members) and
    shares the payload.

    The class is deliberately set-compatible -- ``in``, iteration (in
    ascending surrogate order), ``len``, ``&``/``|``/``-`` with plain
    sets on either side, ``==`` against sets/frozensets -- so the
    planner, the pipeline, and the test suites can treat a posting list
    as "a set of surrogates" without caring about the representation.
    Members that are not :class:`~repro.objects.surrogate.Surrogate`
    instances (unit tests index plain strings) go to a small overflow
    set and keep exact set semantics.

:class:`ObjectColumns` / :class:`FrozenColumns`
    The per-object state table behind sublinear ``store.snapshot()``.
    The write side privatizes an instance's membership/value containers
    by *reassignment* (see ``ObjectStore._prepare_write``), so a
    snapshot cannot lazily read them off the instance -- it needs the
    container references frozen at capture time.  Instead of copying a
    ``{surrogate: (refs)}`` dict per snapshot (O(n)), the store keeps
    this chunked table of ``id -> (surrogate, memberships, values)`` rows
    with two-level copy-on-write: capture shares the whole chunk table
    by reference (O(1)); the first write after a capture copies the top
    table, and the first write *into a chunk* copies that one chunk.

Counters for the bitset algebra (words ANDed/ORed/ANDNOTed, chunks
copied by COW) accumulate in the module-level :data:`BITSET_STATS`
(process-wide, like a CPU performance counter) and surface through
``store.stats()`` and ``repro stats`` with a ``bitset.`` prefix.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.objects.surrogate import Surrogate

__all__ = [
    "BITSET_STATS",
    "BitsetStats",
    "CHUNK_BITS",
    "FrozenColumns",
    "ObjectColumns",
    "SurrogateSet",
]

#: Bits per bitset chunk.  4096 keeps a 100k-object extent in ~25 chunk
#: ints while each chunk AND still runs as one C loop over 64 words.
CHUNK_BITS = 4096
_CHUNK_SHIFT = 12                      # log2(CHUNK_BITS)
_CHUNK_MASK = CHUNK_BITS - 1
_CHUNK_BYTES = CHUNK_BITS // 8
#: 64-bit machine words per chunk (what the op counters count).
WORDS_PER_CHUNK = CHUNK_BITS // 64

#: Objects per :class:`ObjectColumns` chunk: small enough that the
#: first-write-after-snapshot chunk copy is cheap, large enough that the
#: top table stays tiny (n/256 entries).
_COL_SHIFT = 8

#: Chunks at or below this popcount decode via lowest-set-bit peeling
#: (O(members)); denser chunks scan their 512 bytes through _BYTE_BITS.
_SPARSE_BITS = 64

#: byte value -> tuple of set bit offsets, for fast ascending iteration.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if byte & (1 << bit))
    for byte in range(256)
)


class BitsetStats:
    """Process-wide counters for the columnar set algebra."""

    FIELDS: Tuple[str, ...] = (
        "words_anded",         # 64-bit words ANDed (intersections)
        "words_ored",          # 64-bit words ORed (unions)
        "words_andnot",        # 64-bit words AND-NOTed (differences)
        "chunks_cow_copied",   # bitset chunk-table entries copied by COW
        "column_chunks_copied",  # object-column chunks copied by COW
    )

    __slots__ = FIELDS

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"BitsetStats({inner})"


#: The module-wide counter instance every SurrogateSet reports into.
BITSET_STATS = BitsetStats()


class SurrogateSet:
    """A mutable set of surrogates backed by chunked bitmaps.

    Membership of ``Surrogate(i)`` is bit ``i & (CHUNK_BITS-1)`` of
    chunk ``i >> log2(CHUNK_BITS)``; chunks are plain ints in a dict,
    absent meaning all-zero.  Non-``Surrogate`` members (unit tests use
    bare strings as surrogates) live in an overflow set.  Iteration
    yields bitmap members in ascending id order, then overflow members.
    """

    __slots__ = ("_chunks", "_overflow", "_count")

    def __init__(self, members: Optional[Iterable] = None) -> None:
        self._chunks: Dict[int, int] = {}
        self._overflow: Optional[set] = None
        self._count = 0                 # bitmap cardinality (cached)
        if members is not None:
            self.update(members)

    # -- construction ---------------------------------------------------

    @classmethod
    def _raw(cls, chunks: Dict[int, int], count: int,
             overflow: Optional[set]) -> "SurrogateSet":
        out = cls.__new__(cls)
        out._chunks = chunks
        out._count = count
        out._overflow = overflow if overflow else None
        return out

    def copy(self) -> "SurrogateSet":
        """An independent set sharing the (immutable) chunk payloads --
        the COW privatization copy: O(chunk count), not O(members)."""
        chunks = dict(self._chunks)
        BITSET_STATS.chunks_cow_copied += len(chunks)
        return SurrogateSet._raw(
            chunks, self._count,
            set(self._overflow) if self._overflow else None)

    # -- mutation -------------------------------------------------------

    def add(self, member) -> None:
        if isinstance(member, Surrogate):
            sid = member.id
            key = sid >> _CHUNK_SHIFT
            bit = 1 << (sid & _CHUNK_MASK)
            chunks = self._chunks
            word = chunks.get(key, 0)
            if not word & bit:
                chunks[key] = word | bit
                self._count += 1
        else:
            if self._overflow is None:
                self._overflow = set()
            self._overflow.add(member)

    def discard(self, member) -> None:
        if isinstance(member, Surrogate):
            sid = member.id
            key = sid >> _CHUNK_SHIFT
            chunks = self._chunks
            word = chunks.get(key)
            if word is None:
                return
            bit = 1 << (sid & _CHUNK_MASK)
            if word & bit:
                word ^= bit
                if word:
                    chunks[key] = word
                else:
                    del chunks[key]
                self._count -= 1
        elif self._overflow is not None:
            self._overflow.discard(member)

    def update(self, members: Iterable) -> None:
        if isinstance(members, SurrogateSet):
            self._ior_bitmap(members)
            return
        add = self.add
        for member in members:
            add(member)

    def clear(self) -> None:
        self._chunks = {}
        self._overflow = None
        self._count = 0

    # -- queries --------------------------------------------------------

    def __contains__(self, member) -> bool:
        if isinstance(member, Surrogate):
            sid = member.id
            word = self._chunks.get(sid >> _CHUNK_SHIFT)
            return bool(word and (word >> (sid & _CHUNK_MASK)) & 1)
        return self._overflow is not None and member in self._overflow

    def __len__(self) -> int:
        return self._count + (len(self._overflow) if self._overflow else 0)

    def __bool__(self) -> bool:
        return bool(self._count or self._overflow)

    def __iter__(self) -> Iterator:
        byte_bits = _BYTE_BITS
        for key in sorted(self._chunks):
            base = key << _CHUNK_SHIFT
            word = self._chunks[key]
            if word.bit_count() <= _SPARSE_BITS:
                # Sparse chunk: peel lowest set bits instead of scanning
                # all 512 bytes.
                while word:
                    low = word & -word
                    yield Surrogate(base + low.bit_length() - 1)
                    word ^= low
                continue
            data = word.to_bytes(_CHUNK_BYTES, "little")
            for byte_index, byte in enumerate(data):
                if byte:
                    offset = base + (byte_index << 3)
                    for bit in byte_bits[byte]:
                        yield Surrogate(offset + bit)
        if self._overflow:
            yield from self._overflow

    def ids(self) -> Iterator[int]:
        """Ascending bitmap ids (overflow members have no ordinal)."""
        byte_bits = _BYTE_BITS
        for key in sorted(self._chunks):
            base = key << _CHUNK_SHIFT
            word = self._chunks[key]
            if word.bit_count() <= _SPARSE_BITS:
                while word:
                    low = word & -word
                    yield base + low.bit_length() - 1
                    word ^= low
                continue
            data = word.to_bytes(_CHUNK_BYTES, "little")
            for byte_index, byte in enumerate(data):
                if byte:
                    offset = base + (byte_index << 3)
                    for bit in byte_bits[byte]:
                        yield offset + bit

    def isdisjoint(self, other) -> bool:
        if isinstance(other, SurrogateSet):
            a, b = self._chunks, other._chunks
            if len(a) > len(b):
                a, b = b, a
            for key, word in a.items():
                if word & b.get(key, 0):
                    return False
            if self._overflow and other._overflow:
                return self._overflow.isdisjoint(other._overflow)
            return True
        return all(member not in self for member in other)

    # -- set algebra ----------------------------------------------------

    def _coerced(self, other) -> Optional["SurrogateSet"]:
        if isinstance(other, SurrogateSet):
            return other
        if isinstance(other, (set, frozenset)):
            return SurrogateSet(other)
        return None

    def _ior_bitmap(self, other: "SurrogateSet") -> None:
        chunks = self._chunks
        added = 0
        for key, word in other._chunks.items():
            mine = chunks.get(key, 0)
            merged = mine | word
            if merged != mine:
                added += merged.bit_count() - mine.bit_count()
                chunks[key] = merged
        BITSET_STATS.words_ored += WORDS_PER_CHUNK * len(other._chunks)
        self._count += added
        if other._overflow:
            if self._overflow is None:
                self._overflow = set()
            self._overflow |= other._overflow

    def __and__(self, other) -> "SurrogateSet":
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a, b = self._chunks, other._chunks
        if len(a) > len(b):
            a, b = b, a
        chunks: Dict[int, int] = {}
        count = 0
        for key, word in a.items():
            merged = word & b.get(key, 0)
            if merged:
                chunks[key] = merged
                count += merged.bit_count()
        BITSET_STATS.words_anded += WORDS_PER_CHUNK * len(a)
        overflow = (self._overflow & other._overflow
                    if self._overflow and other._overflow else None)
        return SurrogateSet._raw(chunks, count, overflow)

    __rand__ = __and__

    def __or__(self, other) -> "SurrogateSet":
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a, b = self._chunks, other._chunks
        if len(a) < len(b):
            a, b = b, a
        chunks = dict(a)
        count = self._count + other._count
        for key, word in b.items():
            mine = chunks.get(key)
            if mine is None:
                chunks[key] = word
            else:
                merged = mine | word
                count -= (mine.bit_count() + word.bit_count()
                          - merged.bit_count())
                chunks[key] = merged
        BITSET_STATS.words_ored += WORDS_PER_CHUNK * len(b)
        if self._overflow or other._overflow:
            overflow = set(self._overflow or ()) | set(other._overflow or ())
        else:
            overflow = None
        return SurrogateSet._raw(chunks, count, overflow)

    __ror__ = __or__

    def __sub__(self, other) -> "SurrogateSet":
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        b = other._chunks
        chunks: Dict[int, int] = {}
        count = 0
        touched = 0
        for key, word in self._chunks.items():
            theirs = b.get(key)
            if theirs:
                touched += 1
                word &= ~theirs
                if not word:
                    continue
            chunks[key] = word
            count += word.bit_count()
        BITSET_STATS.words_andnot += WORDS_PER_CHUNK * touched
        overflow = (self._overflow - other._overflow
                    if self._overflow and other._overflow
                    else set(self._overflow) if self._overflow else None)
        return SurrogateSet._raw(chunks, count, overflow)

    def __rsub__(self, other) -> "SurrogateSet":
        coerced = self._coerced(other)
        if coerced is None:
            return NotImplemented
        return coerced.__sub__(self)

    def __ior__(self, other) -> "SurrogateSet":
        coerced = self._coerced(other)
        if coerced is None:
            self.update(other)
            return self
        self._ior_bitmap(coerced)
        return self

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SurrogateSet):
            if self._chunks != other._chunks:
                return False
            return (self._overflow or set()) == (other._overflow or set())
        if isinstance(other, (set, frozenset)):
            if len(self) != len(other):
                return False
            return all(member in self for member in other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        preview = ", ".join(repr(m) for _, m in zip(range(5), self))
        suffix = ", ..." if len(self) > 5 else ""
        return f"SurrogateSet({{{preview}{suffix}}}, n={len(self)})"


# ----------------------------------------------------------------------
# Object-state columns (the snapshot capture table)
# ----------------------------------------------------------------------

class FrozenColumns:
    """A captured, immutable view of an :class:`ObjectColumns` table.

    Holds the chunk table by reference; the writer's copy-on-write
    discipline guarantees no chunk reachable from here is ever mutated
    again.  Keys are surrogate *ids*; values are ``(surrogate,
    membership set, value dict)`` -- the instance's container references
    as of the capture, shaped as the row a query loop consumes, so a
    scan's row list is a list of references into this table and
    allocates nothing per row.
    """

    __slots__ = ("_chunks", "_count")

    def __init__(self, chunks: Dict[int, Dict[int, tuple]],
                 count: int) -> None:
        self._chunks = chunks
        self._count = count

    def get(self, sid: int) -> Optional[tuple]:
        chunk = self._chunks.get(sid >> _COL_SHIFT)
        return chunk.get(sid) if chunk else None

    def __contains__(self, sid: int) -> bool:
        chunk = self._chunks.get(sid >> _COL_SHIFT)
        return bool(chunk) and sid in chunk

    def __len__(self) -> int:
        return self._count

    def iter_ids(self) -> Iterator[int]:
        for key in sorted(self._chunks):
            yield from sorted(self._chunks[key])

    def rows(self, surrogates: "SurrogateSet") -> list:
        """The captured ``(surrogate, memberships, values)`` entry of
        each member, ascending -- what a query's row loop consumes
        instead of instance wrappers."""
        chunks = self._chunks
        return [chunks[sid >> _COL_SHIFT][sid] for sid in surrogates.ids()]


class ObjectColumns(FrozenColumns):
    """The live ``surrogate id -> (surrogate, memberships, values)`` row
    table, with two-level copy-on-write against the store's snapshot
    stamp; it reads like the captures it hands out.

    The store updates an entry whenever an object becomes live, dies, or
    has its containers privatized-by-reassignment
    (``ObjectStore._prepare_write``); :meth:`capture` then freezes the
    whole table in O(1) by handing out the chunk-table reference.  A
    write at stamp ``s`` first privatizes the top table (once per
    snapshot generation), then the touched chunk (once per chunk per
    generation) -- so writers pay O(n/256) *once* after each snapshot
    instead of every snapshot paying O(n).
    """

    __slots__ = ("_chunk_stamp", "_stamp")

    def __init__(self) -> None:
        super().__init__({}, 0)
        self._chunk_stamp: Dict[int, int] = {}
        self._stamp = -1

    def _writable_chunk(self, key: int, stamp: int) -> Dict[int, tuple]:
        if self._stamp != stamp:
            # First write after a capture: privatize the top table; every
            # chunk it references may be shared with the capture now.
            self._chunks = dict(self._chunks)
            self._chunk_stamp = {}
            self._stamp = stamp
        if self._chunk_stamp.get(key) != stamp:
            chunk = dict(self._chunks.get(key, ()))
            BITSET_STATS.column_chunks_copied += 1
            self._chunks[key] = chunk
            self._chunk_stamp[key] = stamp
            return chunk
        return self._chunks[key]

    def put(self, surrogate: Surrogate, memberships, values,
            stamp: int) -> None:
        sid = surrogate.id
        chunk = self._writable_chunk(sid >> _COL_SHIFT, stamp)
        if sid not in chunk:
            self._count += 1
        chunk[sid] = (surrogate, memberships, values)

    def drop(self, sid: int, stamp: int) -> None:
        chunk = self._writable_chunk(sid >> _COL_SHIFT, stamp)
        if chunk.pop(sid, None) is not None:
            self._count -= 1

    def reinstall(self, frozen: FrozenColumns) -> None:
        """Point the table back at a captured one (scope rollback).  The
        stamps go: its chunks may be shared with open snapshots."""
        self._chunks = frozen._chunks
        self._count = frozen._count
        self._chunk_stamp = {}
        self._stamp = -1

    def capture(self) -> FrozenColumns:
        """Freeze the current table (O(1)).  The caller has just advanced
        the store's stamp, so the next write privatizes."""
        return FrozenColumns(self._chunks, self._count)
