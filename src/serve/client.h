// Blocking client for the verification service (serve/daemon.h).
//
// Speaks xwf1 frames over the daemon's Unix-domain socket or its TCP
// listener. Used by the `xtv_serve submit` CLI mode, the serve tests,
// and the chaos harness — all of which need the same loop: submit a
// spec, collect each streamed finding exactly once, and wait for the
// terminal done/conceded verdict.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/journal.h"
#include "core/wire.h"
#include "serve/job.h"

namespace xtv {
namespace serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects to a daemon endpoint. "host:port" or "tcp:host:port" (a
  /// colon-separated target with no '/') selects TCP; anything else is a
  /// Unix-domain socket path.
  bool connect(const std::string& endpoint, std::string* error);

  /// Sends one frame (EINTR-safe full write).
  bool send(WireType type, const std::string& payload, std::string* error);

  /// Blocking framed read. False on timeout, daemon EOF, or a corrupt
  /// stream (with `error` describing which).
  bool recv(WireFrame* frame, double timeout_ms, std::string* error);

  void close();
  bool connected() const { return fd_ >= 0; }

  /// Raw descriptor — the remote-fan-out coordinator (serve/remote.h)
  /// polls several worker connections at once and so cannot use the
  /// blocking single-socket recv() above.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  WireDecoder decoder_;
};

/// True when `endpoint` names a TCP target ("host:port" with a numeric
/// port, or an explicit "tcp:host:port"), splitting it into host/port.
/// False for Unix socket paths.
bool parse_tcp_endpoint(const std::string& endpoint, std::string* host,
                        std::string* port);

/// Listens on the TCP endpoint `address` ("host:port"; port 0 asks for an
/// ephemeral port): resolves it, binds the first address that takes with
/// SO_REUSEADDR, listens, and reads the bound numeric "host:port" back
/// into `*bound`. A non-empty `endpoint_file` gets that endpoint written
/// atomically: clients and scripts poll the file, and a torn write (half
/// a port number) would send them dialing a stranger's socket. Returns
/// the (blocking) listening descriptor, or -1 with `error` set.
int listen_tcp(const std::string& address, const std::string& endpoint_file,
               std::string* bound, std::string* error);

/// Everything a finished job streamed back.
struct JobResult {
  std::uint64_t key = 0;
  JobState state = JobState::kQueued;  ///< terminal: kDone or kConceded
  std::string summary;                 ///< daemon's terminal k=v summary
  std::map<std::size_t, JournalRecord> findings;  ///< by victim net
  /// Findings the daemon sent more than once for the same victim — the
  /// exactly-once contract says this must stay 0; the chaos harness
  /// asserts on it.
  std::size_t duplicate_findings = 0;
};

/// Submits `spec` and blocks until the daemon reports the job terminal,
/// collecting every streamed finding. `timeout_ms` bounds the whole wait.
/// False on rejection (queue-full, bad-spec, draining), timeout, or a
/// dropped connection — with the daemon's reason in `error`.
bool submit_and_wait(
    ServeClient& client, const JobSpec& spec, double timeout_ms,
    JobResult* result, std::string* error,
    const std::function<void(const JournalRecord&)>& on_finding = nullptr);

}  // namespace serve
}  // namespace xtv
