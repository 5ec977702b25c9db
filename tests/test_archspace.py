"""Tests for architecture encodings, enumeration, and cell fingerprints."""
import itertools
import re
from collections import Counter

import numpy as np
import pytest

from calibrex import (
    SssArch,
    TssArch,
    canonical_fingerprint,
    enumerate_sss,
    enumerate_tss,
    model_size,
    parse_arch,
    parse_sss,
    parse_tss,
)
from calibrex.archspace import (
    REAL_OPS,
    SSS_CHANNELS,
    TSS_EDGES,
    TSS_OPS,
)


# ---------------------------------------------------------------------------
# encodings and enumeration
# ---------------------------------------------------------------------------

def test_tss_enumeration_count_and_order():
    space = enumerate_tss()
    assert len(space) == 15625
    assert space[0].ops == ("none",) * 6
    assert space[-1].ops == ("avg_pool_3x3",) * 6
    assert space[1].ops == ("none",) * 5 + ("skip_connect",)
    assert len(set(space)) == 15625  # archs hash and compare by value


def test_sss_enumeration_count_and_order():
    space = enumerate_sss()
    assert len(space) == 32768
    assert space[0].channels == (8,) * 5
    assert space[-1].channels == (64,) * 5
    assert space[1].channels == (8, 8, 8, 8, 16)


def test_tss_string_round_trip():
    rng = np.random.default_rng(0)
    space = enumerate_tss()
    for idx in rng.integers(0, len(space), size=200):
        arch = space[idx]
        assert parse_tss(arch.to_string()) == arch
    assert (TssArch(("none",) * 6).to_string()
            == "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|")


def test_sss_string_round_trip():
    rng = np.random.default_rng(1)
    space = enumerate_sss()
    for idx in rng.integers(0, len(space), size=200):
        arch = space[idx]
        assert parse_sss(arch.to_string()) == arch
    assert SssArch((8, 16, 24, 32, 40)).to_string() == "8:16:24:32:40"


def test_op_aliases_normalize():
    arch = TssArch(("zero", "skip", "conv1x1", "conv3x3", "avgpool3x3",
                    "none"))
    assert arch.ops == ("none", "skip_connect", "nor_conv_1x1",
                        "nor_conv_3x3", "avg_pool_3x3", "none")


def test_tss_validation_errors():
    with pytest.raises(ValueError, match="unknown operation"):
        TssArch(("conv7x7",) + ("none",) * 5)
    with pytest.raises(ValueError, match="expected 6"):
        TssArch(("none",) * 5)


def test_parse_tss_errors():
    with pytest.raises(ValueError, match="3 node blocks"):
        parse_tss("|none~0|+|none~0|none~1|")
    with pytest.raises(ValueError, match="node 2 should have 2"):
        parse_tss("|none~0|+|none~0|+|none~0|none~1|none~2|")
    with pytest.raises(ValueError, match="malformed edge token"):
        parse_tss("|none~1|+|none~0|none~1|+|none~0|none~1|none~2|")
    with pytest.raises(ValueError, match="malformed edge token"):
        parse_tss("|none|+|none~0|none~1|+|none~0|none~1|none~2|")


def test_sss_validation_errors():
    with pytest.raises(ValueError, match="expected 5"):
        SssArch((8, 16))
    with pytest.raises(ValueError, match="channel 12 not in"):
        SssArch((8, 12, 16, 24, 32))
    # each was once cast by int() first: 8.7 became 8, "8" was taken
    for channel, shown in ((8.7, "8.7"), ("8", "'8'"),
                           (np.float64(16.9), "np.float64(16.9)")):
        with pytest.raises(ValueError, match=re.escape(
                f"channel {shown} not in (8, 16, 24, 32, 40, 48, 56, 64)")):
            SssArch((channel, 16, 24, 32, 40))
    arch = SssArch((np.int64(8), 16, 24, 32, 40))
    assert arch.channels == (8, 16, 24, 32, 40)
    assert type(arch.channels[0]) is int
    with pytest.raises(ValueError, match="non-integer channel"):
        parse_sss("8:x:24:32:40")


def test_parse_arch_dispatch():
    assert isinstance(parse_arch("8:8:8:8:8"), SssArch)
    assert isinstance(
        parse_arch("|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"),
        TssArch)


def test_model_size():
    assert model_size(SssArch((8, 16, 24, 32, 40))) == 120
    assert model_size(SssArch((64,) * 5)) == 320
    sizes = {model_size(a) for a in enumerate_sss()}
    assert min(sizes) == 40 and max(sizes) == 320


# ---------------------------------------------------------------------------
# fingerprints: frozen example pairs
# ---------------------------------------------------------------------------

def fp(ops):
    return canonical_fingerprint(TssArch(ops))


# the key of a cell whose three inputs to node 3 are all zero terms
ZERO_CELL = "#+#+#"


def test_dead_cells_share_one_fingerprint():
    assert fp(("none",) * 6) == ZERO_CELL
    # everything flows into node 2, nothing reaches the output node
    assert fp(("nor_conv_3x3", "nor_conv_3x3", "nor_conv_3x3",
               "none", "none", "none")) == ZERO_CELL
    # a skip from an empty node carries nothing
    assert fp(("none", "none", "none",
               "none", "skip_connect", "none")) == ZERO_CELL
    # transitive: node 1 is zero, so node 2 is the sum of two zero terms;
    # that sum is not itself "#", so the conv on (2,3) stays in the key
    chain = fp(("none", "none", "nor_conv_3x3",
                "none", "none", "nor_conv_1x1"))
    assert chain == "#+#+(#+#)@nor_conv_1x1" != ZERO_CELL


def test_skip_chain_to_output_is_identity():
    direct = fp(("none", "none", "none", "skip_connect", "none", "none"))
    via_node1 = fp(("skip_connect", "none", "none",
                    "none", "skip_connect", "none"))
    assert via_node1 == direct == "#+#+0"
    # node 2 also sums the zero term of its none input (1,2), so the
    # chain through it carries one more term
    via_node2 = fp(("none", "skip_connect", "none",
                    "none", "none", "skip_connect"))
    assert via_node2 != direct
    assert ZERO_CELL not in (direct, via_node2)


def test_skip_forwards_source_into_target():
    # skip(0->1) then conv(1->3) computes the same cell as conv(0->3)
    a = fp(("skip_connect", "none", "none", "none", "nor_conv_3x3", "none"))
    b = fp(("none", "none", "none", "nor_conv_3x3", "none", "none"))
    assert a == b != ZERO_CELL


def test_parallel_instances_match_across_routings():
    # two conv3x3 fed by the input and summed at the output, routed once
    # through conv(0->1) + skip(1->3) and once through skip(0->1) +
    # conv(1->3); the other conv3x3 is the direct edge (0,3) in both
    a = fp(("nor_conv_3x3", "none", "none",
            "nor_conv_3x3", "skip_connect", "none"))
    b = fp(("skip_connect", "none", "none",
            "nor_conv_3x3", "nor_conv_3x3", "none"))
    assert a == b != ZERO_CELL
    # routed through node 2 instead, the conv input is the sum of the
    # input and the zero term of edge (1,2): a different expression
    c = fp(("skip_connect", "skip_connect", "none",
            "none", "nor_conv_3x3", "nor_conv_3x3"))
    assert c != a


def test_chain_matches_across_interior_nodes():
    # conv3x3 -> conv1x1 chain via node 1 vs via node 2: node 2 sums the
    # zero term of edge (1,2) as well, so the two chains differ
    a = fp(("nor_conv_3x3", "none", "none", "none", "nor_conv_1x1", "none"))
    b = fp(("none", "nor_conv_3x3", "none", "none", "none", "nor_conv_1x1"))
    # the order of the operations matters too
    c = fp(("nor_conv_1x1", "none", "none", "none", "nor_conv_3x3", "none"))
    assert len({a, b, c, ZERO_CELL}) == 4


def test_disconnected_live_instances_are_kept():
    # the pool on edge (0,1) never reaches the output, so it is not part
    # of the output expression
    a = fp(("avg_pool_3x3", "none", "none", "nor_conv_3x3", "none", "none"))
    b = fp(("none", "none", "none", "nor_conv_3x3", "none", "none"))
    assert a == b
    # a skip (1,3) puts the same pool on a path to the output
    c = fp(("avg_pool_3x3", "none", "none",
            "nor_conv_3x3", "skip_connect", "none"))
    assert c != b


def test_identity_multiplicity_is_tracked():
    once = fp(("none", "none", "none", "skip_connect", "none", "none"))
    twice = fp(("skip_connect", "none", "none",
                "skip_connect", "skip_connect", "none"))
    assert once != twice
    assert ZERO_CELL not in (once, twice)


def test_operation_identity_matters():
    a = fp(("none", "none", "none", "nor_conv_3x3", "none", "none"))
    b = fp(("none", "none", "none", "nor_conv_1x1", "none", "none"))
    c = fp(("none", "none", "none", "avg_pool_3x3", "none", "none"))
    assert len({a, b, c}) == 3


def test_all_real_subspace_has_no_collisions():
    fps = {fp(ops) for ops in itertools.product(REAL_OPS, repeat=6)}
    assert len(fps) == 3 ** 6


def test_fingerprint_is_deterministic():
    rng = np.random.default_rng(2)
    space = enumerate_tss()
    for idx in rng.integers(0, len(space), size=50):
        arch = space[idx]
        assert canonical_fingerprint(arch) == canonical_fingerprint(arch)


# ---------------------------------------------------------------------------
# fingerprints against expression trees
# ---------------------------------------------------------------------------

ZERO = "zero"


def expression_tree(arch: TssArch, flatten: bool):
    """Node 3's value as a hashable tree, built without strings.

    A sum is an unordered multiset of terms; a node with one term is that
    term.  ``none`` edges and operations on a zero node give the ``ZERO``
    sentinel, which stays in the sum.  A skip edge passes its source's
    value on as one term, or, with ``flatten``, splices a source sum's
    terms into the target sum.
    """
    nodes = ["X"]
    ops = iter(arch.ops)
    for node in (1, 2, 3):
        terms = []
        for src in range(node):
            op, x = next(ops), nodes[src]
            if op == "none" or x == ZERO:
                terms.append(ZERO)
            elif op != "skip_connect":
                terms.append((op, x))
            elif flatten and isinstance(x, frozenset):
                terms.extend(t for t, n in x for _ in range(n))
            else:
                terms.append(x)
        nodes.append(terms[0] if len(terms) == 1
                     else frozenset(Counter(terms).items()))
    return nodes[3]


def _partition_refines(finer, coarser) -> int:
    """Assert equal ``finer`` labels imply equal ``coarser`` labels.

    Returns how many cells shared a ``finer`` label with an earlier cell.
    """
    seen = {}
    merged = 0
    for f, c in zip(finer, coarser):
        if f in seen:
            assert seen[f] == c
            merged += 1
        else:
            seen[f] = c
    return merged


def test_fingerprint_equality_is_reduced_graph_isomorphism():
    space = enumerate_tss()
    keys = [canonical_fingerprint(a) for a in space]
    nested = [expression_tree(a, flatten=False) for a in space]
    flat = [expression_tree(a, flatten=True) for a in space]

    # equal nested trees are the same expression: the keys must agree
    merged = _partition_refines(nested, keys)
    # the key writes a skipped-in sum as "+"-joined terms, so equal keys
    # must at least be equal once nested sums are flattened
    merged_keys = _partition_refines(keys, flat)
    # both checks really exercised the equal branch
    assert merged > 1000 and merged_keys > 1000


def test_class_count_bounds_on_fixed_first_edge():
    # with "none" on edge (0,1), node 1 is dead, so only edges (0,2),
    # (0,3), (2,3) matter: 125 raw configurations collapse well below 3125
    space = enumerate_tss()
    fps = {canonical_fingerprint(a) for a in space[:3125]}
    assert 10 < len(fps) <= 125
