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

    The class is a set of surrogates -- ``in``, iteration, ``len``,
    ``&``/``|``/``-`` and ``==`` between two of them -- so callers treat
    a posting list as one.  Members come out in ascending order
    from :meth:`SurrogateSet.ids`, the one decoder (whole or over an id
    range), with no big-int work per member (see ``_SPARSE_SHIFT``).

:class:`ObjectColumns` / :class:`FrozenColumns`
    The per-object state table behind O(1) ``store.snapshot()``.  The
    write side privatizes an instance's value dict by *reassignment*
    (``ObjectStore._prepare_write``) and replaces its interned
    membership frozenset on a reclassification, putting the row again
    either way: this chunked table of ``id -> (surrogate, memberships,
    values)`` rows, shared by two-level copy-on-write.  A scan after a
    write gathers only the segments the write changed
    (:meth:`FrozenColumns.scan`); a plan keeps its visit rows per
    read-only view, by weak reference
    (:func:`repro.query.planner._compile_executor`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.objects.surrogate import Surrogate
from repro.obs import _Counters

__all__ = [
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
#: 64-bit machine words per chunk (what the op counters count).
WORDS_PER_CHUNK = CHUNK_BITS // 64

#: Objects per :class:`ObjectColumns` chunk: small enough that the
#: first-write-after-snapshot chunk copy is cheap, large enough that the
#: top table stays tiny (n/256 entries).  A scan segment is the same
#: 256-id range of a bitset chunk.
_COL_SHIFT = 8
_SEGMENT_MASK = (1 << (1 << _COL_SHIFT)) - 1

#: A chunk (or range slice) with at most one in 2**_SPARSE_SHIFT bits set
#: decodes by a digit search per member, memoised (_sparse_ids, <= 128 ids
#: an entry), else through _BYTE_BITS; both cold costs grow with its length.
#: Crossovers (Intel Xeon, CPython 3.11, median us of 40 alternating
#: rounds, digit vs byte): ~150 set bits of a 4096-bit chunk (144: 40.8
#: vs 42.8, 160: 55.1 vs 53.9), ~8 of a 256-id slice (6: 4.1 vs 4.2,
#: 10: 5.1 vs 5.0).
_SPARSE_SHIFT = 5
#: Fewer surrogates than this are added one by one (cheaper than a build).
_BUILD_MIN = 12

#: byte value -> tuple of set bit offsets, for fast ascending iteration.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if byte & (1 << bit))
    for byte in range(256)
)


@lru_cache(maxsize=256)
def _sparse_ids(base: int, word: int) -> Tuple[int, ...]:
    """A sparse word's ids at ``base``: one C-level search of its binary
    digits per member (the last digit is bit 0), memoised on the pair."""
    digits = bin(word)
    top = base + len(digits) - 1
    out = []
    at = digits.rfind("1")
    while at > 0:
        out.append(top - at)
        at = digits.rfind("1", 0, at)
    return tuple(out)


class BitsetStats(_Counters):
    """One store's counters for the columnar set algebra, surfaced by
    ``store.stats()`` with a ``bitset.`` prefix.  The store hands its
    sink to each operation it runs; the operators, and any call given
    no sink, count nothing."""

    __slots__ = FIELDS = (
        "words_anded",         # 64-bit words ANDed (intersections)
        "words_ored",          # 64-bit words ORed (unions)
        "words_andnot",        # 64-bit words AND-NOTed (differences)
        "chunks_cow_copied",   # bitset chunk-table entries copied by COW
        "column_chunks_copied",  # object-column chunks copied by COW
        "rows_carried",        # scan/visit rows reused, not looked up
        "rows_gathered",       # scan/visit rows looked up in column chunks
    )


class SurrogateSet:
    """A mutable set of surrogates backed by chunked bitmaps.

    Membership of ``Surrogate(i)`` is bit ``i & (CHUNK_BITS-1)`` of
    chunk ``i >> log2(CHUNK_BITS)``; chunks are plain ints in a dict,
    absent meaning all-zero.  It holds surrogates only, and iterates
    them in ascending id order.
    """

    __slots__ = ("_chunks", "_count")

    def __init__(self, members: Optional[Iterable] = None) -> None:
        self._chunks: Dict[int, int] = {}
        self._count = 0                 # cardinality (cached)
        if members is not None:
            self.update(members)

    # -- construction ---------------------------------------------------

    @classmethod
    def _raw(cls, chunks: Dict[int, int], count: int) -> "SurrogateSet":
        out = cls.__new__(cls)
        out._chunks = chunks
        out._count = count
        return out

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "SurrogateSet":
        """``Surrogate(i)`` for each ``i`` in ``ids`` (any order, repeats
        allowed): one ``bytearray`` per touched chunk, turned into its
        ``int`` once -- no big-int work per member."""
        rows: Dict[int, bytearray] = {}
        for sid in ids:
            row = rows.get(sid >> _CHUNK_SHIFT)
            if row is None:
                row = rows[sid >> _CHUNK_SHIFT] = bytearray(CHUNK_BITS >> 3)
            row[(sid & _CHUNK_MASK) >> 3] |= 1 << (sid & 7)
        chunks = {key: int.from_bytes(row, "little")
                  for key, row in rows.items()}
        return cls._raw(chunks, sum(map(int.bit_count, chunks.values())))

    @classmethod
    def union(cls, sets: Iterable["SurrogateSet"],
              stats=None) -> "SurrogateSet":
        """All of ``sets``, counted once at the end (a 4096-bit popcount
        costs more than the OR)."""
        chunks: Dict[int, int] = {}
        for members in sets:
            for key, word in members._chunks.items():
                chunks[key] = chunks.get(key, 0) | word
            if stats is not None:
                stats.words_ored += WORDS_PER_CHUNK * len(members._chunks)
        return cls._raw(chunks, sum(w.bit_count() for w in chunks.values()))

    def copy(self, stats=None) -> "SurrogateSet":
        """An independent set sharing the (immutable) chunk payloads --
        the COW privatization copy: O(chunk count), not O(members)."""
        chunks = dict(self._chunks)
        if stats is not None:
            stats.chunks_cow_copied += len(chunks)
        return SurrogateSet._raw(chunks, self._count)

    # -- mutation -------------------------------------------------------

    def add(self, member: Surrogate) -> None:
        sid = member.id
        key = sid >> _CHUNK_SHIFT
        bit = 1 << (sid & _CHUNK_MASK)
        chunks = self._chunks
        word = chunks.get(key, 0)
        if not word & bit:
            chunks[key] = word | bit
            self._count += 1

    def discard(self, member: Surrogate) -> None:
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

    def update(self, members: Iterable[Surrogate], stats=None) -> None:
        if not isinstance(members, SurrogateSet):
            members = list(members)
            if len(members) < _BUILD_MIN:
                for member in members:
                    self.add(member)
                return
            members = SurrogateSet.from_ids([m.id for m in members])
        self._ior_bitmap(members, stats)

    def clear(self) -> None:
        self._chunks = {}
        self._count = 0

    # -- queries --------------------------------------------------------

    def __contains__(self, member) -> bool:
        if isinstance(member, Surrogate):
            sid = member.id
            word = self._chunks.get(sid >> _CHUNK_SHIFT)
            return bool(word and (word >> (sid & _CHUNK_MASK)) & 1)
        return False

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return bool(self._count)

    def __iter__(self) -> Iterator[Surrogate]:
        return map(Surrogate, self.ids())

    def ids(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        """Ascending ids; with ``stop``, only those in ``[start, stop)``."""
        out: List[int] = []
        append = out.append
        byte_bits = _BYTE_BITS
        chunks = self._chunks
        keys = sorted(chunks) if stop is None else range(
            start >> _CHUNK_SHIFT, ((stop - 1) >> _CHUNK_SHIFT) + 1)
        for key in keys:
            word = chunks.get(key, 0)
            base = key << _CHUNK_SHIFT
            if stop is not None and word:
                # Clip to the range: the decoder sees its bits only.
                low = max(start - base, 0)
                high = min(stop - base, CHUNK_BITS)
                word = (word >> low) & ((1 << (high - low)) - 1)
                base += low
            if word and word.bit_count() << _SPARSE_SHIFT <= word.bit_length():
                out += _sparse_ids(base, word)
                continue
            data = word.to_bytes((word.bit_length() + 7) >> 3, "little")
            for byte_index, byte in enumerate(data):
                if byte:
                    offset = base + (byte_index << 3)
                    for bit in byte_bits[byte]:
                        append(offset + bit)
        return out

    # -- set algebra ----------------------------------------------------
    # ``and_``/``or_``/``sub`` are ``&``/``|``/``-`` with a BitsetStats
    # sink to count into; the operators are them called with none.

    def _ior_bitmap(self, other: "SurrogateSet", stats=None) -> None:
        chunks = self._chunks
        added = 0
        for key, word in other._chunks.items():
            mine = chunks.get(key, 0)
            merged = mine | word
            if merged != mine:
                added += merged.bit_count() - mine.bit_count()
                chunks[key] = merged
        if stats is not None:
            stats.words_ored += WORDS_PER_CHUNK * len(other._chunks)
        self._count += added

    def and_(self, other, stats=None) -> "SurrogateSet":
        if not isinstance(other, SurrogateSet):
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
        if stats is not None:
            stats.words_anded += WORDS_PER_CHUNK * len(a)
        return SurrogateSet._raw(chunks, count)

    __and__ = and_

    def or_(self, other, stats=None) -> "SurrogateSet":
        if not isinstance(other, SurrogateSet):
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
        if stats is not None:
            stats.words_ored += WORDS_PER_CHUNK * len(b)
        return SurrogateSet._raw(chunks, count)

    __or__ = or_

    def sub(self, other, stats=None) -> "SurrogateSet":
        if not isinstance(other, SurrogateSet):
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
        if stats is not None:
            stats.words_andnot += WORDS_PER_CHUNK * touched
        return SurrogateSet._raw(chunks, count)

    __sub__ = sub

    # -- comparison -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, SurrogateSet):
            return self._chunks == other._chunks
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
    signature, value dict)`` -- the instance's interned membership
    frozenset and value dict as of the capture, shaped as the row a
    query loop consumes, so a scan's row list is a list of references
    into this table and allocates nothing per row.
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

    def gather(self, surrogates: "SurrogateSet",
               stats: BitsetStats) -> list:
        """The captured ``(surrogate, memberships, values)`` entry of
        each member, ascending -- what a query's row loop consumes
        instead of instance wrappers -- counted in ``rows_gathered``."""
        chunks = self._chunks
        rows = [chunks[sid >> _COL_SHIFT][sid] for sid in surrogates.ids()]
        stats.rows_gathered += len(rows)
        return rows

    def scan(self, extent: "SurrogateSet", prior: Optional[tuple],
             stats: BitsetStats) -> tuple:
        """``(bits, rows, table)``: ``extent``'s rows, ascending, plus
        what the next snapshot needs to carry them forward -- the
        extent's chunk words and ``table[key] = (chunk, lo, hi)``, the
        slice of ``rows`` segment ``key`` fills.  A segment is copied
        from ``prior`` (the previous snapshot's triple for the class)
        only if its chunk is the same object and the extent's bits over
        it are equal; an unchanged bitset chunk costs one compare.
        Every other segment is gathered; with no ``prior``, all are."""
        bits = dict(extent._chunks)
        old_bits, old_rows, old_table = prior or ({}, [], {})
        chunks = self._chunks
        rows: list = []
        table: Dict[int, tuple] = {}
        carried = 0
        per_word = 1 << (_CHUNK_SHIFT - _COL_SHIFT)
        for word_key in sorted(bits):
            word = bits[word_key]
            old = old_bits.get(word_key)
            changed = 0 if word == old else word ^ (old or 0)
            for key in range(word_key * per_word, (word_key + 1) * per_word):
                entry = old_table.get(key)
                if changed:
                    shift = (key << _COL_SHIFT) & _CHUNK_MASK
                    if not (word >> shift) & _SEGMENT_MASK:
                        continue
                    if (changed >> shift) & _SEGMENT_MASK:
                        entry = None
                elif entry is None:
                    continue
                chunk = chunks[key]
                lo = len(rows)
                if entry is not None and entry[0] is chunk:
                    rows += old_rows[entry[1]:entry[2]]
                    carried += entry[2] - entry[1]
                else:     # one lookup per member of the segment
                    rows += map(chunk.__getitem__, extent.ids(
                        key << _COL_SHIFT, (key + 1) << _COL_SHIFT))
                table[key] = (chunk, lo, len(rows))
        stats.rows_carried += carried
        stats.rows_gathered += len(rows) - carried
        return bits, rows, table


class ObjectColumns(FrozenColumns):
    """The live ``surrogate id -> (surrogate, memberships, values)`` row
    table, with two-level copy-on-write against the store's snapshot
    stamp; it reads like the captures it hands out.

    The store updates an entry whenever an object becomes live, dies,
    has its value dict privatized-by-reassignment
    (``ObjectStore._prepare_write``) or its signature replaced
    (``MutationPipeline.reclassify``); :meth:`capture` then freezes the
    whole table in O(1) by handing out the chunk-table reference.  A
    write at stamp ``s`` first privatizes the top table (once per
    snapshot generation), then the touched chunk (once per chunk per
    generation) -- so writers pay O(n/256) *once* after each snapshot
    instead of every snapshot paying O(n).  Chunk copies tick the
    owning store's ``stats``.
    """

    __slots__ = ("_chunk_stamp", "_stamp", "_stats")

    def __init__(self, stats: BitsetStats) -> None:
        super().__init__({}, 0)
        self._chunk_stamp: Dict[int, int] = {}
        self._stamp = -1
        self._stats = stats

    def _writable_chunk(self, key: int, stamp: int) -> Dict[int, tuple]:
        if self._stamp != stamp:
            # First write after a capture: privatize the top table; every
            # chunk it references may be shared with the capture now.
            self._chunks = dict(self._chunks)
            self._chunk_stamp = {}
            self._stamp = stamp
        if self._chunk_stamp.get(key) != stamp:
            chunk = dict(self._chunks.get(key, ()))
            self._stats.column_chunks_copied += 1
            self._chunks[key] = chunk
            self._chunk_stamp[key] = stamp
            return chunk
        # (A chunk drop() emptied is gone; a new one is private too.)
        return self._chunks.setdefault(key, {})

    def put(self, surrogate: Surrogate, memberships, values,
            stamp: int) -> None:
        sid = surrogate.id
        chunk = self._writable_chunk(sid >> _COL_SHIFT, stamp)
        if sid not in chunk:
            self._count += 1
        chunk[sid] = (surrogate, memberships, values)

    def drop(self, sid: int, stamp: int) -> None:
        key = sid >> _COL_SHIFT
        chunk = self._writable_chunk(key, stamp)
        if chunk.pop(sid, None) is not None:
            self._count -= 1
        if not chunk:
            # Ids are never reused: an emptied chunk would stay in the
            # table, and every privatization would copy it, forever.
            del self._chunks[key]

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
