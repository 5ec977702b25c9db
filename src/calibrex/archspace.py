"""NATS-Bench architecture encodings and cell fingerprints.

The topology space (TSS) is a 4-node DAG whose 6 edges each carry one of 5
operations; the size space (SSS) is a 5-layer channel configuration.  Cell
fingerprints are the NAS-Bench-201 unique-cell strings (zero edges
counted): each node is written as the sorted sum of its input terms, so two
cells share a fingerprint when their output is the same expression up to
commuted sums.  This is the key behind the 6,466 unique topology cells; it
is not full computational equivalence.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Tuple

from .predictions import _is_int

TSS_OPS = ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3",
           "avg_pool_3x3")
OP_ALIASES = {"zero": "none", "skip": "skip_connect",
              "conv1x1": "nor_conv_1x1", "conv3x3": "nor_conv_3x3",
              "avgpool3x3": "avg_pool_3x3"}
REAL_OPS = ("nor_conv_1x1", "nor_conv_3x3", "avg_pool_3x3")

# edges of the complete DAG on nodes 0..3, grouped by target node as they
# appear in the NATS string notation
TSS_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

SSS_CHANNELS = (8, 16, 24, 32, 40, 48, 56, 64)
SSS_LAYERS = 5


def _canon_op(op: str) -> str:
    op = OP_ALIASES.get(op, op)
    if op not in TSS_OPS:
        raise ValueError(f"unknown operation {op!r}")
    return op


@dataclass(frozen=True)
class TssArch:
    """A topology-space cell: one operation per DAG edge."""

    ops: Tuple[str, ...]

    def __post_init__(self):
        if len(self.ops) != len(TSS_EDGES):
            raise ValueError(f"expected {len(TSS_EDGES)} operations, "
                             f"got {len(self.ops)}")
        object.__setattr__(self, "ops",
                           tuple(_canon_op(op) for op in self.ops))

    def to_string(self) -> str:
        return tss_string(self.ops)


@dataclass(frozen=True)
class SssArch:
    """A size-space configuration: output channels for each of 5 layers."""

    channels: Tuple[int, ...]

    def __post_init__(self):
        if len(self.channels) != SSS_LAYERS:
            raise ValueError(f"expected {SSS_LAYERS} channel values")
        for c in self.channels:
            if not _is_int(c) or c not in SSS_CHANNELS:
                raise ValueError(f"channel {c!r} not in {SSS_CHANNELS}")
        object.__setattr__(self, "channels",
                           tuple(int(c) for c in self.channels))

    def to_string(self) -> str:
        return sss_string(self.channels)


def tss_string(ops) -> str:
    """NATS cell notation of six canonical edge ops in ``TSS_EDGES`` order."""
    return "|{}~0|+|{}~0|{}~1|+|{}~0|{}~1|{}~2|".format(*ops)


def sss_string(channels) -> str:
    """Colon-separated notation of five channel counts."""
    return ":".join(str(c) for c in channels)


def parse_tss(text: str) -> TssArch:
    """Parse the NATS cell notation |op~0|+|op~0|op~1|+|op~0|op~1|op~2|."""
    blocks = text.strip().split("+")
    if len(blocks) != 3:
        raise ValueError(f"expected 3 node blocks, got {len(blocks)}")
    ops = []
    for node, block in enumerate(blocks, start=1):
        parts = [p for p in block.split("|") if p]
        if len(parts) != node:
            raise ValueError(f"node {node} should have {node} incoming "
                             f"edges, got {len(parts)}")
        for src, part in enumerate(parts):
            op, sep, origin = part.partition("~")
            if not sep or origin != str(src):
                raise ValueError(f"malformed edge token {part!r}")
            ops.append(op)
    return TssArch(tuple(ops))


def parse_sss(text: str) -> SssArch:
    """Parse the colon-separated channel notation, e.g. 8:16:24:32:40."""
    parts = text.strip().split(":")
    try:
        chans = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer channel in {text!r}") from None
    return SssArch(chans)


def parse_arch(text: str):
    """Parse either notation, deciding by shape."""
    return parse_tss(text) if "|" in text else parse_sss(text)


def enumerate_tss() -> List[TssArch]:
    """All 5^6 cells in lexicographic op-index order."""
    return [TssArch(ops)
            for ops in itertools.product(TSS_OPS, repeat=len(TSS_EDGES))]


def enumerate_sss() -> List[SssArch]:
    """All 8^5 channel configurations in lexicographic order."""
    return [SssArch(ch)
            for ch in itertools.product(SSS_CHANNELS, repeat=SSS_LAYERS)]


# the search spaces by tag; an entry looks its enumeration up by name when
# called, so a wrapper set on this module sees the call
SPACES = {"tss": lambda: enumerate_tss(), "sss": lambda: enumerate_sss()}


def model_size(arch: SssArch) -> int:
    """Channel-sum size proxy used for bracketing architectures."""
    return sum(arch.channels)


def canonical_fingerprint(arch: TssArch) -> str:
    """The NAS-Bench-201 unique-cell string of a cell (zero edges counted).

    Node 0 is ``"0"``; every later node is the sorted ``"+"``-join of its
    input terms, one per incoming edge.  A term is ``"#"`` (zero) when the
    edge is ``none`` or its source string is exactly ``"#"``, the source
    string itself for ``skip_connect``, and ``"(" + source + ")@" + op``
    otherwise.  The fingerprint is node 3's string.

    Equal strings mean the output is the same expression up to the order
    of summed terms; this is not full computational equivalence (a zero
    term inside a sum, for example, still shows in the string).  Over the
    15,625 cells it gives the 6,466 classes NAS-Bench-201 reports.
    """
    nodes = ["0"]
    ops = iter(arch.ops)
    for node in (1, 2, 3):
        terms = []
        for src in range(node):
            op, x = next(ops), nodes[src]
            if op == "none" or x == "#":
                terms.append("#")
            elif op == "skip_connect":
                terms.append(x)
            else:
                terms.append(f"({x})@{op}")
        nodes.append("+".join(sorted(terms)))
    return nodes[3]
