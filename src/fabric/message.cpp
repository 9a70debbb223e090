#include "fabric/message.hpp"

#include "common/check.hpp"
#include "common/time.hpp"

namespace pm2::fabric {

size_t Message::wire_size() const { return sizeof(WireHeader) + payload_size(); }

std::optional<Message> Fabric::recv(int timeout_ms) {
  if (timeout_ms < 0) return recv_until(UINT64_MAX);
  if (timeout_ms == 0) return try_recv();
  return recv_until(now_ns() + static_cast<uint64_t>(timeout_ms) * 1'000'000);
}

std::vector<uint8_t>& Message::flat() {
  if (!chain.empty()) {
    PM2_CHECK(payload.empty()) << "message with both flat and chained payload";
    payload = chain.take_flat();
  }
  return payload;
}

WireHeader wire_header(const Message& msg) {
  WireHeader h{};
  h.magic = kWireMagic;
  h.type = msg.type;
  h.reserved = 0;
  h.src = msg.src;
  h.dst = msg.dst;
  h.corr = msg.corr;
  h.payload_len = msg.payload_size();
  return h;
}

}  // namespace pm2::fabric
