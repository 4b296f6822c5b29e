#include "core/wire.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>

namespace xtv {

namespace {

constexpr char kMagic[4] = {'x', 'w', 'f', '1'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 4;  // magic + type + length
constexpr std::size_t kChecksumBytes = 8;
/// Findings are a few hundred bytes; anything near this cap means the
/// stream is garbage, not a big frame.
constexpr std::uint32_t kMaxPayload = 1u << 20;

std::uint64_t fnv1a64(std::uint8_t type, const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  h ^= type;
  h *= 1099511628211ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

}  // namespace

const char* wire_type_name(WireType t) {
  switch (t) {
    case WireType::kHello: return "hello";
    case WireType::kHeartbeat: return "heartbeat";
    case WireType::kJobSubmit: return "job-submit";
    case WireType::kJobAccepted: return "job-accepted";
    case WireType::kJobRejected: return "job-rejected";
    case WireType::kJobStatus: return "job-status";
    case WireType::kJobFinding: return "job-finding";
    case WireType::kJobDone: return "job-done";
    case WireType::kJobQuery: return "job-query";
    case WireType::kWorkerSetup: return "worker-setup";
    case WireType::kWorkerReady: return "worker-ready";
    case WireType::kWorkerReject: return "worker-reject";
    case WireType::kUnitAssign: return "unit-assign";
    case WireType::kUnitResult: return "unit-result";
    case WireType::kUnitDone: return "unit-done";
  }
  return "unknown";
}

std::string wire_encode_frame(WireType type, const std::string& payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  out.append(kMagic, sizeof(kMagic));
  out += static_cast<char>(type);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  put_u64(out, fnv1a64(static_cast<std::uint8_t>(type), payload.data(),
                       payload.size()));
  return out;
}

void WireDecoder::feed(const char* data, std::size_t n) {
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

bool WireDecoder::next(WireFrame* frame) {
  if (corrupt_) return false;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return false;
  const char* p = buffer_.data() + consumed_;
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    corrupt_ = true;
    return false;
  }
  const std::uint8_t type = static_cast<std::uint8_t>(p[4]);
  const std::uint32_t len = get_u32(p + 5);
  if (type < static_cast<std::uint8_t>(WireType::kHello) ||
      type > static_cast<std::uint8_t>(WireType::kUnitDone) ||
      len > kMaxPayload) {
    corrupt_ = true;
    return false;
  }
  if (avail < kHeaderBytes + len + kChecksumBytes) return false;
  const char* payload = p + kHeaderBytes;
  const std::uint64_t want = get_u64(payload + len);
  if (fnv1a64(type, payload, len) != want) {
    corrupt_ = true;
    return false;
  }
  frame->type = static_cast<WireType>(type);
  frame->payload.assign(payload, len);
  consumed_ += kHeaderBytes + len + kChecksumBytes;
  return true;
}

bool WireWriter::send(WireType type, const std::string& payload) {
  const std::string frame = wire_encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t w = ::write(fd_, frame.data() + off, frame.size() - off);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;  // EPIPE: reader gone; the writer should wind down
    }
  }
  return true;
}

}  // namespace xtv
