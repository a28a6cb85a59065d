"""Link-level lab for multi-user MIMO downlink image transport.

Rayleigh channels with a transmitter-side CSI error split, MF/ZF precoders
with a cost probe, analytic link budgets against Monte-Carlo oracles,
bit-plane QAM frame transport, contraction-operator reconstruction with
performance bounds, and sweep/benchmark harnesses.
"""

from .channel import SeedSpec, draw_channel_set
from .images import synthetic_test_image
from .link import QamParams, ber_from_sinr, link_budget
from .precoding import zf_precoder
from .transceiver import QamConstellation, split_bit_planes, transmit_frame

__version__ = "0.1.0"
