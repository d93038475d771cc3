"""Virtual-to-physical qubit layouts."""

from __future__ import annotations

from typing import Mapping

from repro.transpiler.exceptions import TranspilerError

__all__ = ["Layout"]


class Layout:
    """A bijection between virtual (circuit) and physical (device) qubits."""

    def __init__(self, virtual_to_physical: Mapping[int, int] | None = None):
        self._v2p: dict[int, int] = {}
        self._p2v: dict[int, int] = {}
        if virtual_to_physical:
            for virtual, physical in virtual_to_physical.items():
                self.add(virtual, physical)

    @classmethod
    def trivial(cls, num_qubits: int) -> "Layout":
        return cls({i: i for i in range(num_qubits)})

    def add(self, virtual: int, physical: int) -> None:
        # plain ints: ApplyLayout emits these as wires without re-checking
        virtual, physical = int(virtual), int(physical)
        if virtual in self._v2p or physical in self._p2v:
            raise TranspilerError(
                f"layout collision adding virtual {virtual} -> physical {physical}"
            )
        self._v2p[virtual] = physical
        self._p2v[physical] = virtual

    def physical(self, virtual: int) -> int:
        return self._v2p[virtual]

    def virtual(self, physical: int) -> int:
        return self._p2v[physical]

    def swap_physical(self, a: int, b: int) -> None:
        """Update the layout after a SWAP on physical qubits ``a`` and ``b``."""
        virtual_a = self._p2v.get(a)
        virtual_b = self._p2v.get(b)
        if virtual_a is not None:
            self._v2p[virtual_a] = b
        if virtual_b is not None:
            self._v2p[virtual_b] = a
        self._p2v[a], self._p2v[b] = virtual_b, virtual_a
        if self._p2v[a] is None:
            del self._p2v[a]
        if self._p2v[b] is None:
            del self._p2v[b]

    @property
    def virtual_to_physical(self) -> dict[int, int]:
        return dict(self._v2p)

    @property
    def physical_to_virtual(self) -> dict[int, int]:
        return dict(self._p2v)

    def copy(self) -> "Layout":
        return Layout(self._v2p)

    def __len__(self) -> int:
        return len(self._v2p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._v2p == other._v2p

    def __repr__(self) -> str:
        mapping = ", ".join(f"{v}->{p}" for v, p in sorted(self._v2p.items()))
        return f"<Layout {mapping}>"
