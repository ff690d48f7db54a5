"""Tests for BGP (RFC 4271) and BGPsec (RFC 8205) message sizing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp import bgp_update_size, bgpsec_update_size
from repro.bgp.bgpsec import (
    BGPSEC_SIGNATURE_BYTES,
    SECURE_PATH_SEGMENT_BYTES,
    SIGNATURE_SEGMENT_OVERHEAD_BYTES,
)
from repro.bgp.messages import AS_NUMBER_BYTES, NLRI_BYTES


class TestBGPUpdateSize:
    def test_minimal_update(self):
        # 19 header + 2 withdrawn + 2 attr len + 4 origin + 5 as-path hdr
        # + 4 one ASN + 7 next hop + 5 NLRI = 48.
        assert bgp_update_size(1) == 48

    def test_grows_4_bytes_per_as_hop(self):
        assert bgp_update_size(5) - bgp_update_size(4) == AS_NUMBER_BYTES

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            bgp_update_size(0)


class TestBGPsecUpdateSize:
    def test_grows_full_signature_per_hop(self):
        per_hop = (
            SECURE_PATH_SEGMENT_BYTES
            + SIGNATURE_SEGMENT_OVERHEAD_BYTES
            + BGPSEC_SIGNATURE_BYTES
        )
        assert bgpsec_update_size(5) - bgpsec_update_size(4) == per_hop

    def test_roughly_order_of_magnitude_above_bgp(self):
        """§5.2: BGPsec overhead is ~1 order of magnitude above BGP due to
        larger update messages and lack of aggregation."""
        path_len = 4
        prefixes = 10
        # One BGP UPDATE aggregates the prefixes: one more NLRI entry each.
        bgp = bgp_update_size(path_len) + (prefixes - 1) * NLRI_BYTES
        bgpsec = prefixes * bgpsec_update_size(path_len)
        assert 8.0 <= bgpsec / bgp

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            bgpsec_update_size(0)

    @given(path_len=st.integers(min_value=1, max_value=30))
    def test_always_larger_than_bgp(self, path_len):
        assert bgpsec_update_size(path_len) > bgp_update_size(path_len)
