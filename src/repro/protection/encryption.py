"""Model encryption at rest and key management.

Paper Section V: "encryption techniques can protect the model while it is
downloaded or stored on the device.  The model is then decrypted as it is
loaded in memory, right before being used" (as OpenVINO and CoreML do).

The implementation uses a keyed keystream cipher (SHA-256 in counter mode —
standard library only, no external crypto dependency) with an
encrypt-then-MAC construction, so both confidentiality of the stored blob
and integrity of what gets loaded are covered.  The
:class:`ModelKeyManager` derives per-device keys from a master secret so a
leaked device key does not expose other devices' artifacts.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["EncryptedBlob", "encrypt_blob", "decrypt_blob", "ModelKeyManager", "IntegrityError"]


class IntegrityError(RuntimeError):
    """Raised when decrypting a blob whose MAC does not verify."""


@dataclass(frozen=True)
class EncryptedBlob:
    """An encrypted model artifact: nonce + ciphertext + MAC tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.nonce) + len(self.ciphertext) + len(self.tag)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHA-256 counter-mode keystream of the requested length."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(key + nonce + counter.to_bytes(8, "little")).digest())
        counter += 1
    return b"".join(blocks)[:length]


def encrypt_blob(plaintext: bytes, key: bytes, nonce: Optional[bytes] = None) -> EncryptedBlob:
    """Encrypt-then-MAC a model blob with the given key."""
    if not isinstance(plaintext, (bytes, bytearray)):
        raise TypeError("plaintext must be bytes")
    if nonce is None:
        nonce = os.urandom(16)
    stream = _keystream(key, nonce, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    tag = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return EncryptedBlob(nonce=nonce, ciphertext=ciphertext, tag=tag)


def decrypt_blob(blob: EncryptedBlob, key: bytes) -> bytes:
    """Verify the MAC then decrypt; raises :class:`IntegrityError` on tamper."""
    expected = hmac.new(key, blob.nonce + blob.ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(expected, blob.tag):
        raise IntegrityError("MAC verification failed: blob was modified or the key is wrong")
    stream = _keystream(key, blob.nonce, len(blob.ciphertext))
    return bytes(a ^ b for a, b in zip(blob.ciphertext, stream))


class ModelKeyManager:
    """Derives and tracks per-device model-encryption keys.

    Key hierarchy: ``master -> (model, device) key``.  Devices only ever hold
    their own derived key; revoking a device simply means refusing to wrap
    new artifacts for it.
    """

    def __init__(self, master_secret: bytes = b"tinymlops-model-protection") -> None:
        self._master = bytes(master_secret)
        self._revoked: set[str] = set()
        self.issued: Dict[Tuple[str, str], bytes] = {}

    def device_key(self, model_name: str, device_id: str) -> bytes:
        """Derive (and record) the key protecting ``model_name`` on ``device_id``."""
        if device_id in self._revoked:
            raise PermissionError(f"device {device_id!r} is revoked")
        key = hmac.new(self._master, f"{model_name}|{device_id}".encode(), hashlib.sha256).digest()
        self.issued[(model_name, device_id)] = key
        return key

    def revoke_device(self, device_id: str) -> None:
        """Stop issuing keys to a device (e.g. after detected tampering)."""
        self._revoked.add(device_id)

    def wrap_model(self, model_bytes: bytes, model_name: str, device_id: str, nonce: Optional[bytes] = None) -> EncryptedBlob:
        """Encrypt a model artifact for a specific device."""
        return encrypt_blob(model_bytes, self.device_key(model_name, device_id), nonce=nonce)

    def unwrap_model(self, blob: EncryptedBlob, model_name: str, device_id: str) -> bytes:
        """Decrypt a model artifact on the device (integrity-checked)."""
        return decrypt_blob(blob, self.device_key(model_name, device_id))
