"""Arena-slotted node storage for the tree-construction stage.

The DOM in :mod:`repro.html.dom` used to be a classic object graph: every
node owned a ``parent`` pointer, an eagerly-allocated ``children`` list and
(for elements) an eagerly-allocated attribute dict.  At crawl scale those
three allocations per node dominate tree-construction cost — most text
nodes are leaves and most elements carry no attributes, so the lists and
dicts are allocated only to stay empty.

This module provides the storage half of the arena refactor:

``AtomTable``
    Interns tag and attribute names so every ``<div>`` across every
    document shares one ``str`` object.  The bytes tokenizer feeds raw
    tag-name bytes straight into the table (``intern_bytes``), which both
    dedupes the decode+lower work per distinct spelling and makes
    name comparisons in the tree builder pointer-compare fast.

``DomArena``
    Flat parallel columns — ``kinds``, ``names``, ``parents``,
    ``children`` — indexed by node id.  Node objects in ``dom`` are thin
    views ``(arena, index)`` over these columns; hot immutable fields
    (element name, namespace) are mirrored into view slots so the tree
    builder's state machine keeps slot-speed reads, while linkage lives
    only in the columns.  Child lists are batched: the column holds
    ``None`` until a node acquires its first child, so leaves never
    allocate a list.

The arena is an *allocator*, not a closed graph: parents and child lists
store view references, so nodes from different arenas can be linked
freely (standalone ``Element(...)`` constructions get a small private
arena).  See DESIGN.md §3.14 for the layout diagram and the view-layer
contract.
"""
from __future__ import annotations

#: node kinds stored in the ``kinds`` column
KIND_DOCUMENT = 0
KIND_FRAGMENT = 1
KIND_DOCTYPE = 2
KIND_ELEMENT = 3
KIND_TEXT = 4
KIND_COMMENT = 5


class AtomTable:
    """Interning table for tag/attribute names, shared across documents.

    ``intern`` maps a ``str`` to its canonical instance.  ``tag_bytes``
    and ``attr_bytes`` are the bytes-domain decode caches (raw source
    name bytes -> canonical lowercased ``str``): the bytes tokenizer
    binds them directly in its hot loops, so every tag name it emits is
    already the canonical atom and the arena's ``names`` column across
    *all* documents shares one ``str`` per distinct spelling.  All caches
    are capped: fuzzed input can mint unbounded distinct names, and an
    unbounded table would be a cross-document memory leak.
    """

    __slots__ = ("_atoms", "tag_bytes", "attr_bytes", "_cap")

    def __init__(self, cap: int = 8192) -> None:
        self._atoms: dict[str, str] = {}
        self.tag_bytes: dict[bytes, str] = {}
        self.attr_bytes: dict[bytes, str] = {}
        self._cap = cap

    def intern(self, name: str) -> str:
        atoms = self._atoms
        atom = atoms.get(name)
        if atom is None:
            if len(atoms) >= self._cap:
                atoms.clear()
            atoms[name] = atom = name
        return atom

    def intern_bytes(self, raw: bytes) -> str:
        """Canonical lowercased name for raw ASCII tag-name bytes."""
        cache = self.tag_bytes
        atom = cache.get(raw)
        if atom is None:
            if len(cache) >= self._cap:
                cache.clear()
            atom = self.intern(raw.decode("utf-8", "replace").lower())
            cache[raw] = atom
        return atom

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, name: str) -> bool:
        return name in self._atoms


#: the process-wide atom table: tag names are a small closed-ish set, so
#: sharing one table across documents is what makes ``is``-comparisons and
#: the bytes-domain decode cache pay off
GLOBAL_ATOMS = AtomTable()


class DomArena:
    """Columnar storage for DOM nodes.

    One arena typically backs one parsed document (the tree builder
    allocates every node it creates from the document's arena); standalone
    node constructions fall back to a private arena per node.  Columns:

    ``kinds``     ``KIND_*`` int per node — isinstance-free flat scans
    ``names``     interned tag name (elements/doctypes) or ``None``
    ``parents``   parent *view reference* or ``None``
    ``children``  batched child list (list of view references) or ``None``
                  — allocated lazily on first child
    """

    __slots__ = ("kinds", "names", "parents", "children", "atoms")

    def __init__(self, atoms: AtomTable | None = None) -> None:
        self.kinds: list[int] = []
        self.names: list[str | None] = []
        self.parents: list[object | None] = []
        self.children: list[list | None] = []
        self.atoms = atoms if atoms is not None else GLOBAL_ATOMS

    def alloc(self, kind: int, name: str | None = None) -> int:
        """Reserve one node slot; returns its index."""
        idx = len(self.kinds)
        self.kinds.append(kind)
        self.names.append(name)
        self.parents.append(None)
        self.children.append(None)
        return idx

    def unlink(self) -> None:
        """Drop every parent and child link, freeing the tree.

        Views hold their arena and the link columns hold views, so a
        parsed tree is a reference cycle; emptying the columns lets
        reference counting free it without the cyclic collector.  Every
        view over this arena is unusable afterwards.
        """
        self.parents.clear()
        self.children.clear()

    def __len__(self) -> int:
        return len(self.kinds)
