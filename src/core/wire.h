// Length-prefixed, checksummed wire format between lease holders and the
// coordinator (DESIGN.md §12, §14), and on the serve daemon's sockets and
// runner pipes (§13).
//
// A holder process streams its findings back over a socket; it can die
// at any byte, so the stream must be self-delimiting and
// self-validating. Every frame is
//
//   "xwf1" | type (1 byte) | payload length (u32 LE) | payload
//        | fnv1a-64 over (type byte + payload) (u64 LE)
//
// The decoder consumes bytes incrementally (streams deliver arbitrary
// chunks), yields only frames whose magic, length, and checksum all
// verify, and latches a permanent `corrupt` flag on the first violation —
// a corrupted stream means the sender's memory can no longer be trusted,
// and the coordinator treats it exactly like a crash.
//
// Payloads are text: victim-finding frames reuse the journal codec
// (core/journal.h journal_encode/journal_decode), whose hexfloat doubles
// round-trip bit-exactly — the property the bit-identical multi-process
// merge rests on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

namespace xtv {

enum class WireType : std::uint8_t {
  kHello = 1,        ///< job runner alive; payload "<job key>"
  kHeartbeat,        ///< payload "<sequence>"

  // --- Verification service (src/serve, DESIGN.md §13) ---
  // The daemon speaks the same framing — bytes, checksums, and corruption
  // latch unchanged — on its Unix-domain client sockets, its optional TCP
  // listener, and the daemon <-> job-runner pipes; only the connection
  // envelope (deadlines, caps, keepalive) differs per transport, and it
  // lives entirely in serve/daemon.cpp. Payloads are text; the first
  // token is a correlation token (client direction) or the 16-hex job
  // key. kHeartbeat doubles as the daemon's idle TCP keepalive, and a
  // kJobRejected with token "-" is a connection-level verdict (e.g. the
  // connection cap) rather than an answer to one submission.
  kJobSubmit,        ///< client->daemon: "<token> <job spec k=v ...>"
  kJobAccepted,      ///< daemon->client: "<token> <job key> <state>"
  kJobRejected,      ///< daemon->client: "<token> <reason> <detail>"
  kJobStatus,        ///< daemon->client: "<job key> <state> <k=v ...>"
  kJobFinding,       ///< "<job key> <journal payload>" — one settled victim
  kJobDone,          ///< "<job key> <done|conceded> <k=v ...>" — terminal
  kJobQuery,         ///< client->daemon: "<token> <job key>" — status poll

  // --- Lease protocol (core/shard_exec.h, DESIGN.md §12, §14) ---
  // The lease coordinator leases work units — contiguous victim slices —
  // to holders: forked processes over a socketpair, or xtv_worker
  // processes over TCP (which first get the job spec in kWorkerSetup).
  // Same framing; payloads are text. Every unit-scoped frame carries
  // "<unit id> <attempt>" so completions from a partitioned-then-healed
  // holder are recognized as stale and dropped idempotently. kHeartbeat
  // (above) doubles as the holder liveness signal.
  kWorkerSetup,      ///< coord->worker: "<options hash hex> <heartbeat ms>
                     ///<                  <spec text>"
  kWorkerReady,      ///< holder->coord: "<options hash hex> <pid>"
  kWorkerReject,     ///< worker->coord: "<reason> <detail>" — typed refusal
  kUnitAssign,       ///< coord->holder: "<unit id> <attempt> <victims...>"
  kUnitResult,       ///< holder->coord: "<unit id> <attempt> r <journal payload>"
                     ///<            or "<unit id> <attempt> s <victim>" (skip)
  kUnitDone,         ///< holder->coord: "<unit id> <attempt> <results streamed>"
};

const char* wire_type_name(WireType t);

struct WireFrame {
  WireType type = WireType::kHello;
  std::string payload;
};

/// Serializes one frame (exposed for tests and the writer).
std::string wire_encode_frame(WireType type, const std::string& payload);

/// Incremental frame parser over an arbitrary byte stream.
class WireDecoder {
 public:
  /// Appends raw bytes from the pipe.
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete, verified frame. Returns false when the
  /// buffer holds no complete frame (or the stream is corrupt).
  bool next(WireFrame* frame);

  /// Latched on the first magic/length/checksum violation.
  bool corrupt() const { return corrupt_; }

  /// Bytes buffered but not yet consumed (a non-zero value at worker EOF
  /// is the torn tail of an interrupted frame — expected on a crash).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

/// Thread-safe framed writer over a pipe or socket fd. Holder side: the
/// unit loop and the heartbeat thread share one writer, so frames never
/// interleave.
class WireWriter {
 public:
  explicit WireWriter(int fd) : fd_(fd) {}

  /// Writes one frame atomically w.r.t. other send() calls (EINTR-safe
  /// full write). Returns false when the peer is gone (EPIPE — the
  /// coordinator or daemon abandoned this writer); callers treat that as
  /// "stop".
  bool send(WireType type, const std::string& payload);

 private:
  int fd_;
  std::mutex mutex_;
};

}  // namespace xtv
