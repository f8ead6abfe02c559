"""Simulated network: message accounting with virtual latency/bandwidth."""

from repro.net.codec import (
    EncodedColumn,
    EncodedFragment,
    decode_fragment,
    encode_fragment,
)
from repro.net.sim import (
    DEFAULT_BANDWIDTH_BYTES_PER_S,
    DEFAULT_LATENCY_S,
    DropRule,
    DroppedMessage,
    FaultInjector,
    LinkProfile,
    MessageRecord,
    MessageTrace,
    Network,
    estimate_rows_bytes,
    estimate_value_bytes,
)

__all__ = [
    "DEFAULT_BANDWIDTH_BYTES_PER_S",
    "DEFAULT_LATENCY_S",
    "DropRule",
    "DroppedMessage",
    "EncodedColumn",
    "EncodedFragment",
    "decode_fragment",
    "encode_fragment",
    "FaultInjector",
    "LinkProfile",
    "MessageRecord",
    "MessageTrace",
    "Network",
    "estimate_rows_bytes",
    "estimate_value_bytes",
]
