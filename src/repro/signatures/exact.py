"""Alias-free "magic" signatures (the paper's BSCexact configuration).

An :class:`ExactSignature` stores the precise address set.  It answers every
bulk operation without false positives, which lets experiments isolate how
much of BulkSC's behaviour (squashes, unnecessary invalidations, directory
lookups) is caused by Bloom aliasing rather than true sharing.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.signatures.base import Signature


class ExactSignature(Signature):
    """A signature that is simply the set of inserted line addresses.

    ``_bits`` holds the member set.  A set is a bitmask over the universe
    of line addresses, so exact signatures share the packed-mask face of
    :class:`~repro.signatures.bloom.BloomSignature`: :meth:`_hash` gives a
    one-member mask, ``sig._bits |= mask`` inserts, and
    ``(sig._bits & mask) == mask`` tests membership, here without
    aliasing.  The batched interpreter and BDM pinning rely on only these
    operators, so they serve both signature kinds with one code path.
    """

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        self._bits: Set[int] = set()

    def _hash(self, line_addr: int) -> Tuple[FrozenSet[int], Tuple[int]]:
        """(one-member mask, index), the shape of ``BloomSignature._hash``."""
        return frozenset((line_addr,)), (line_addr,)

    def _check_compatible(self, other: Signature) -> "ExactSignature":
        if not isinstance(other, ExactSignature):
            raise TypeError(f"cannot combine ExactSignature with {type(other).__name__}")
        return other

    # -- mutation -----------------------------------------------------------
    def insert(self, line_addr: int) -> None:
        self._bits.add(line_addr)

    def clear(self) -> None:
        self._bits.clear()

    def insert_many(self, line_addrs: Iterable[int]) -> None:
        self._bits.update(line_addrs)

    def member_many(self, line_addrs: Iterable[int]) -> List[bool]:
        members = self._bits
        return [addr in members for addr in line_addrs]

    def filter_members(self, line_addrs: Iterable[int]) -> List[int]:
        members = self._bits
        return [addr for addr in line_addrs if addr in members]

    def union_update(self, other: Signature) -> None:
        self._bits |= self._check_compatible(other)._bits

    # -- functional operations ------------------------------------------------
    def intersect(self, other: Signature) -> "ExactSignature":
        out = ExactSignature()
        out._bits = self._bits & self._check_compatible(other)._bits
        return out

    def union(self, other: Signature) -> "ExactSignature":
        out = ExactSignature()
        out._bits = self._bits | self._check_compatible(other)._bits
        return out

    def is_empty(self) -> bool:
        return not self._bits

    def disjoint(self, other: Signature) -> bool:
        """Allocation-free emptiness of the intersection (no new signature)."""
        return self._bits.isdisjoint(self._check_compatible(other)._bits)

    def member(self, line_addr: int) -> bool:
        return line_addr in self._bits

    def decode_sets(self, num_sets: int) -> Set[int]:
        mask = num_sets - 1
        return {addr & mask for addr in self._bits}

    def copy(self) -> "ExactSignature":
        out = ExactSignature()
        out._bits = set(self._bits)
        return out

    def empty_like(self) -> "ExactSignature":
        return ExactSignature()

    # -- introspection -----------------------------------------------------------
    def exact_members(self) -> FrozenSet[int]:
        return frozenset(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ExactSignature n={len(self._bits)}>"
