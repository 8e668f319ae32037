"""Tree data types: one node type for elementary and derived trees.

Every node carries two feature structures, top and bottom.  Adjunction
unifies the host node's top with the auxiliary root's top and the host
node's bottom with the auxiliary foot's bottom; the final collapse step
then requires top and bottom to unify at every node.  Variables written
in a tree are local to it: the engine keeps their names at
instantiation and tags them with the derivation step at each splice.
Nodes never change once built, so a derived tree shares the nodes a
step leaves as they were, elementary ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .featstruct import EMPTY, FeatureStruct

INTERNAL = "internal"
ANCHOR = "anchor"
SUBST = "subst"
FOOT = "foot"

INITIAL = "initial"
AUXILIARY = "aux"


@dataclass(slots=True, unsafe_hash=True)
class Node:
    """Not frozen, so that building one costs plain slot stores; nothing
    assigns to a node once it is built, so it hashes by value.
    Derivation sets `surface`, `lexeme` and `variant` on anchors and
    `was_foot` on the lower half of a node that hosted an adjunction."""

    label: str
    kind: str = INTERNAL
    top: FeatureStruct = EMPTY
    bottom: FeatureStruct = EMPTY
    children: tuple = ()
    surface: Optional[str] = None
    lexeme: Optional[str] = None
    variant: Optional[int] = None
    was_foot: bool = False

    def walk(self, address=()) -> list:
        """(address, node) pairs in pre-order, in one list filled by plain
        recursion: nested generators cost a frame resume per level."""
        _walk(self, address, out := [])
        return out

    def node_at(self, address) -> "Node":
        """The node at a Gorn address below this one; KeyError if none."""
        node = self
        for i in address:
            try:
                node = node.children[i]
            except IndexError:
                raise KeyError("no node at address %r" % (address,)) from None
        return node


def _walk(node, address, out):
    out.append((address, node))
    for i, child in enumerate(node.children):
        _walk(child, address + (i,), out)


@dataclass(frozen=True)
class ElementaryTree:
    name: str
    klass: str  # INITIAL or AUXILIARY
    root: Node

    def __post_init__(self):
        if self.klass not in (INITIAL, AUXILIARY):
            raise ValueError("unknown tree class %r" % self.klass)
        for _, node in self.nodes():
            if node.kind != INTERNAL and node.children:
                raise ValueError("%s node %r cannot have children"
                                 % (node.kind, node.label))

    def nodes(self):
        return self.root.walk()

    def anchor_address(self):
        return next((a for a, node in self.nodes() if node.kind == ANCHOR),
                    None)

    def node_at(self, address) -> Node:
        return self.root.node_at(address)
