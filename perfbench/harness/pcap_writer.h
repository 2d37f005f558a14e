// Writes synthetic packets as a classic pcap the datapath layer can decode.
#pragma once

#include <span>
#include <string>

#include "fcm.h"
#include "flow/packet.h"

namespace perfbench {

// Writes `packets` as a little-endian, microsecond classic pcap with
// LINKTYPE_ETHERNET. Each flow keeps one frame shape, chosen from its key:
// mostly Ethernet/IPv4 TCP, some UDP, a minority 802.1Q-tagged, and a
// minority IPv6 (source address 2001:db8::<key>). Records carry headers only
// (caplen = L2-L4 header bytes); orig_len is the packet's byte count, raised
// to the header length where a packet is shorter than its headers. IPv4
// frames decode back to the packet's key; IPv6 frames decode to the parser's
// 32-bit fold of the address. Throws std::runtime_error on I/O failure.
void write_capture(const std::string& path, std::span<const flow::Packet> packets);

}  // namespace perfbench
