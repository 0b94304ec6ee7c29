"""Derivation helpers that several test modules share."""

from npls.derivation import ProofNode


def given_nodes(d):
    """``d``'s nodes as a derivation is given: each with its whole sequent."""
    return {p: ProofNode(d.sequent(p), node.rule) for p, node in d.nodes.items()}
