"""Merkle-tree commitments over model weights.

Before deployment the platform commits to the exact weights it shipped; the
device (or an auditor) can later prove that the weights it used are the
committed ones by revealing only a logarithmic number of hashes.  Combined
with the execution transcript of :mod:`repro.verification.protocol`, this
pins a prediction to a specific registered model version (paper Section VI:
the proof "merely guarantees that the prediction was indeed the result of
the unmodified model").
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["MerkleTree", "commit_model_weights"]


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_pair(left: str, right: str) -> str:
    return _hash((left + right).encode())


class MerkleTree:
    """A binary Merkle tree over a list of byte leaves."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("MerkleTree requires at least one leaf")
        self.leaf_hashes: List[str] = [_hash(leaf) for leaf in leaves]
        self.levels: List[List[str]] = [list(self.leaf_hashes)]
        current = self.leaf_hashes
        while len(current) > 1:
            nxt: List[str] = []
            for i in range(0, len(current), 2):
                left = current[i]
                right = current[i + 1] if i + 1 < len(current) else current[i]
                nxt.append(_hash_pair(left, right))
            self.levels.append(nxt)
            current = nxt

    @property
    def root(self) -> str:
        """Root commitment."""
        return self.levels[-1][0]

    def proof(self, index: int) -> List[Tuple[str, str]]:
        """Inclusion proof for leaf ``index`` as a list of (side, hash) pairs."""
        if not 0 <= index < len(self.leaf_hashes):
            raise IndexError("leaf index out of range")
        path: List[Tuple[str, str]] = []
        idx = index
        for level in self.levels[:-1]:
            sibling = idx ^ 1
            if sibling >= len(level):
                sibling = idx
            side = "right" if sibling > idx else "left"
            path.append((side, level[sibling]))
            idx //= 2
        return path

    @staticmethod
    def verify_proof(leaf: bytes, index: int, proof: Sequence[Tuple[str, str]], root: str) -> bool:
        """Check an inclusion proof against a root commitment."""
        current = _hash(leaf)
        for side, sibling in proof:
            if side == "right":
                current = _hash_pair(current, sibling)
            else:
                current = _hash_pair(sibling, current)
        return current == root


def commit_model_weights(model, chunk_size: int = 4096) -> Tuple[str, MerkleTree, List[bytes]]:
    """Commit to a model's flattened weights in fixed-size chunks.

    Returns ``(root, tree, chunks)``; the chunks are kept by the prover so it
    can answer audit challenges with inclusion proofs.
    """
    flat = model.get_flat_weights().astype(np.float64)
    raw = flat.tobytes()
    if not raw:
        raw = b"\x00"
    chunks = [raw[i : i + chunk_size] for i in range(0, len(raw), chunk_size)]
    tree = MerkleTree(chunks)
    return tree.root, tree, chunks
