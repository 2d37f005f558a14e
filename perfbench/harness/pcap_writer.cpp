#include "pcap_writer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/hash.h"

namespace perfbench {

namespace {

class Buffer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16be(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32be(std::uint32_t v) {
    u16be(static_cast<std::uint16_t>(v >> 16));
    u16be(static_cast<std::uint16_t>(v));
  }
  void u16le(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32le(std::uint32_t v) {
    u16le(static_cast<std::uint16_t>(v));
    u16le(static_cast<std::uint16_t>(v >> 16));
  }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  std::size_t size() const noexcept { return bytes_.size(); }
  const std::uint8_t* data() const noexcept { return bytes_.data(); }
  void clear() noexcept { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

struct FrameShape {
  bool ipv6 = false;
  bool vlan = false;
  bool udp = false;

  std::uint32_t header_bytes() const {
    return 14 + (vlan ? 4 : 0) + (ipv6 ? 40 : 20) + (udp ? 8 : 20);
  }
};

FrameShape shape_of(flow::FlowKey key) {
  const std::uint64_t h = fcm::common::mix64(key.value ^ 0x70ca9ull);
  FrameShape shape;
  shape.ipv6 = (h & 15) == 0;              // ~6% of flows
  shape.vlan = ((h >> 4) & 7) == 0;        // ~12% of flows
  shape.udp = ((h >> 8) % 10) < 3;         // ~30% of flows
  return shape;
}

void append_record(Buffer& out, const flow::Packet& packet, std::uint64_t index) {
  const FrameShape shape = shape_of(packet.key);
  const std::uint32_t caplen = shape.header_bytes();
  const std::uint32_t orig_len = std::max(packet.bytes, caplen);
  const std::uint32_t l2_bytes = 14 + (shape.vlan ? 4 : 0);
  const std::uint32_t l3_bytes = orig_len - l2_bytes;

  // Record header: ts_sec, ts_usec, incl_len, orig_len.
  out.u32le(static_cast<std::uint32_t>(index / 1'000'000));
  out.u32le(static_cast<std::uint32_t>(index % 1'000'000));
  out.u32le(caplen);
  out.u32le(orig_len);

  // Ethernet: dst MAC, src MAC, optional 802.1Q tag, EtherType.
  out.u16be(0x0200);
  out.u32be(0x00000001);
  out.u16be(0x0200);
  out.u32be(0x00000002);
  if (shape.vlan) {
    out.u16be(0x8100);
    out.u16be(static_cast<std::uint16_t>(100 + (packet.key.value & 0xff)));
  }
  const std::uint8_t protocol = shape.udp ? 17 : 6;
  const std::uint32_t l4_bytes = shape.udp ? 8 : 20;
  if (shape.ipv6) {
    out.u16be(0x86dd);
    out.u32be(0x60000000);
    out.u16be(static_cast<std::uint16_t>(std::min<std::uint32_t>(l3_bytes - 40, 0xffff)));
    out.u8(protocol);
    out.u8(64);  // hop limit
    out.u32be(0x20010db8);  // source 2001:db8::<key>
    out.u32be(0);
    out.u32be(0);
    out.u32be(packet.key.value);
    out.u32be(0x20010db8);  // destination 2001:db8::1
    out.u32be(0);
    out.u32be(0);
    out.u32be(1);
  } else {
    out.u16be(0x0800);
    out.u8(0x45);  // version 4, IHL 5
    out.u8(0);
    out.u16be(static_cast<std::uint16_t>(std::min<std::uint32_t>(l3_bytes, 0xffff)));
    out.u16be(static_cast<std::uint16_t>(index));  // identification
    out.u16be(0x4000);                              // don't fragment
    out.u8(64);                                     // TTL
    out.u8(protocol);
    out.u16be(0);  // checksum (unchecked by the parser)
    out.u32be(packet.key.value);
    out.u32be(0x0a000001);
  }
  const std::uint16_t src_port = static_cast<std::uint16_t>(1024 + (packet.key.value >> 20));
  out.u16be(src_port);
  out.u16be(shape.udp ? 53 : 443);
  if (shape.udp) {
    const std::uint32_t ip_header = shape.ipv6 ? 40 : 20;
    out.u16be(static_cast<std::uint16_t>(
        std::min<std::uint32_t>(std::max(l3_bytes - ip_header, l4_bytes), 0xffff)));
    out.u16be(0);  // checksum
  } else {
    out.u32be(static_cast<std::uint32_t>(index));  // sequence
    out.u32be(0);                                  // acknowledgment
    out.u8(0x50);                                  // data offset 5 words
    out.u8(0x18);                                  // PSH|ACK
    out.u16be(0xffff);                             // window
    out.u16be(0);                                  // checksum
    out.u16be(0);                                  // urgent pointer
  }
}

struct FileCloser {
  void operator()(std::FILE* file) const noexcept { std::fclose(file); }
};

}  // namespace

void write_capture(const std::string& path, std::span<const flow::Packet> packets) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "wb"));
  if (!file) throw std::runtime_error("write_capture: cannot open " + path);

  constexpr std::size_t kFlushBytes = std::size_t{1} << 22;
  Buffer buffer;
  buffer.reserve(kFlushBytes + 256);
  buffer.u32le(0xa1b2c3d4);  // microsecond magic
  buffer.u16le(2);           // version 2.4
  buffer.u16le(4);
  buffer.u32le(0);           // thiszone
  buffer.u32le(0);           // sigfigs
  buffer.u32le(256);         // snaplen: headers only
  buffer.u32le(1);           // LINKTYPE_ETHERNET

  const auto flush = [&] {
    if (buffer.size() > 0 &&
        std::fwrite(buffer.data(), 1, buffer.size(), file.get()) != buffer.size()) {
      throw std::runtime_error("write_capture: short write on " + path);
    }
    buffer.clear();
  };
  for (std::size_t i = 0; i < packets.size(); ++i) {
    append_record(buffer, packets[i], i);
    if (buffer.size() >= kFlushBytes) flush();
  }
  flush();
  std::FILE* raw = file.release();
  if (std::fclose(raw) != 0) {
    throw std::runtime_error("write_capture: cannot close " + path);
  }
}

}  // namespace perfbench
